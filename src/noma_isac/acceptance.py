"""End-to-end acceptance checks tying the closed forms, the Monte Carlo
oracles, and the region computation together.

Each check returns a CheckResult whose detail string is deterministic for a
given seed, so a selftest report can be diffed byte for byte.  The CLI
selftest runs them at --trials Monte Carlo trials, 1e5 by default; the test
suite's full-scale gate runs them at 1e6 trials with its own seed.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import (
    ergodic_rates,
    outage_probability,
    reference_table,
    sensing_rate,
    sensing_rate_asymptotic,
    sum_rate,
    thresholds,
)
from .channel import CorrelationMatrix
from .config import ISAC, SystemConfig, db_to_linear, fdsac
from .montecarlo import (
    dual_function_signal,
    estimate_ecr,
    estimate_outage,
    estimate_slope,
    orthogonal_streams,
    sensing_mi_bruteforce,
    sensing_mi_reduced,
)
from .region import containment_check, fdsac_frontier, isac_corner
from .specfun import EULER_GAMMA, _elementwise, exp_int_ei, log2_det_i_plus_scaled

SNR_GRID_DB = tuple(range(0, 45, 5))
#: Side of the (kappa, mu) grid of the containment check.
REGION_GRID_N = 101
SPLIT_KAPPA = 0.5
SPLIT_MU = 0.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_MODES = (("isac", ISAC), ("fdsac", fdsac(SPLIT_KAPPA, SPLIT_MU)))


def check_outage_closed_form(cfg: SystemConfig, trials: int, seed: int) -> CheckResult:
    """Closed-form outage against the event-level estimator, 3-sigma bands.

    The band uses the binomial standard error implied by the closed-form
    probability, which stays valid when the empirical count is tiny.  Where
    that probability is 0 or 1, the standard error is 0: the point's z is 0
    if the estimate equals it exactly and inf otherwise.
    """
    worst = 0.0
    checks = 0
    powers = db_to_linear(SNR_GRID_DB)
    for _, mode in _MODES:
        value = np.array(outage_probability(cfg, mode, powers))
        emp, _ = estimate_outage(cfg, mode, powers, trials, seed)
        se = np.sqrt(value * (1.0 - value) / trials)
        gap = np.abs(value - emp)
        with np.errstate(divide="raise", invalid="raise"):
            z = np.divide(gap, se, out=np.where(gap == 0.0, 0.0, math.inf), where=se > 0.0)
        worst = max(worst, float(np.max(z)))
        checks += value.size
    return CheckResult(
        name="outage closed form vs monte carlo",
        passed=worst <= 3.0,
        detail=f"max |z| = {worst:.3f} over {checks} points",
    )


def check_ecr_closed_form(cfg: SystemConfig, trials: int, seed: int) -> CheckResult:
    """Closed-form ergodic rates against sample means, max(3 SE, 1e-2) bands."""
    worst = -math.inf
    checks = 0
    powers = db_to_linear(SNR_GRID_DB)
    for _, mode in _MODES:
        value = np.array(ergodic_rates(cfg, mode, powers))
        emp, std_error = estimate_ecr(cfg, mode, powers, trials, seed)
        tol = np.maximum(3.0 * std_error, 1e-2)
        worst = max(worst, float(np.max(np.abs(value - emp) - tol)))
        checks += value.size
    return CheckResult(
        name="ergodic rate closed form vs monte carlo",
        passed=worst <= 0.0,
        detail=f"worst band excess = {worst:.2e} over {checks} points",
    )


def check_diversity_orders(cfg: SystemConfig) -> CheckResult:
    """Log-log outage slopes over 30-40 dB match the reference table's
    diversity orders.

    A user whose outage is 0 or 1 at a grid point has no slope.  It passes
    only if its thresholds imply that value at every point: 1 on an
    infeasible mode, 0 where its threshold (theta near, vartheta far) is 0.
    """
    grid_db = 30.0 + np.arange(11.0)
    ok = True
    shown = []
    for (_, mode), row in zip(_MODES, reference_table(cfg, SPLIT_KAPPA)):
        th = thresholds(cfg, mode)
        cells = []
        for pout, threshold, order, tol in zip(
            outage_probability(cfg, mode, db_to_linear(grid_db)),
            (th.theta, th.vartheta),
            (row.diversity_nu, row.diversity_fu),
            (0.15, 0.1),
        ):
            implied = 1.0 if not th.feasible else 0.0 if threshold == 0.0 else None
            if implied is None and np.all((pout > 0.0) & (pout < 1.0)):
                slope = estimate_slope(np.column_stack((grid_db / 10.0, _elementwise(math.log10, pout))))
                ok &= abs(slope + order) <= tol
                cells.append(f"{slope:.3f}")
            elif implied is None:
                ok = False
                cells.append("no slope: outage 0 or 1")
            else:
                exact = bool(np.all(pout == implied))
                ok &= exact
                reason = "infeasible" if implied else "threshold 0"
                cells.append(f"outage {'=' if exact else '!='} {implied:g} [{reason}]")
        shown.append(f"({cells[0]}, {cells[1]})")
    return CheckResult(
        name="diversity orders",
        passed=ok,
        detail=f"(near, far) slopes per mode: {'; '.join(shown)}",
    )


def check_high_snr_slopes(cfg: SystemConfig) -> CheckResult:
    """Rate gains over a 4x power step at 34->40 dB match the slope table;
    the far user's, whose rate saturates, need only stay below 0.05 above it."""
    powers = db_to_linear([34.0, 40.0])
    slopes = {}
    for tag, mode in _MODES:
        ecr_n, ecr_f = ergodic_rates(cfg, mode, powers)
        slopes[tag] = tuple(float(hi - lo) / 2.0 for lo, hi in (ecr_n, ecr_f, ecr_n + ecr_f))
    ok = all(
        abs(near - row.slope_nu) <= 0.05
        and far - row.slope_fu < 0.05
        and abs(total - row.slope_sum) <= 0.05
        for (near, far, total), row in zip(slopes.values(), reference_table(cfg, SPLIT_KAPPA))
    )
    shown = "; ".join(
        f"{tag}: ({s[0]:.3f}, {s[1]:.3f}, {s[2]:.3f})" for tag, s in slopes.items()
    )
    return CheckResult(
        name="high-snr rate slopes",
        passed=ok,
        detail=f"(near, far, sum) slopes: {shown}",
    )


def check_sensing_identities(cfg: SystemConfig, seed: int) -> CheckResult:
    """Eigenvalue sums equal dense log-dets; stacked and reduced MI agree."""
    rng = np.random.default_rng(seed)
    worst_spectral = 0.0
    for _ in range(20):
        m = int(rng.integers(2, max(cfg.num_rx_antennas, 2) + 1))
        lam = rng.uniform(0.0, 5.0, size=m)
        if rng.random() < 0.25:
            lam[0] = 0.0
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, _ = np.linalg.qr(g)
        r = (q * lam) @ q.conj().T
        c = db_to_linear(rng.uniform(0.0, 40.0)) * cfg.frame_length / cfg.sigma2_s
        direct = log2_det_i_plus_scaled(c, lam)
        _, logdet = np.linalg.slogdet(np.eye(m) + c * r)
        dense = logdet / math.log(2.0)
        worst_spectral = max(worst_spectral, abs(direct - dense) / max(abs(dense), 1e-30))
    worst_stacked = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        big_l = int(rng.integers(2, 9))
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        corr = CorrelationMatrix(entries=g @ g.conj().T)
        streams = orthogonal_streams(int(rng.integers(0, 2**32)), big_l)
        x = dual_function_signal(db_to_linear(rng.uniform(0.0, 20.0)), cfg.alpha_n, cfg.alpha_f, streams)
        brute = sensing_mi_bruteforce(x, corr, cfg.sigma2_s)
        reduced = sensing_mi_reduced(x, corr, cfg.sigma2_s)
        worst_stacked = max(worst_stacked, abs(brute - reduced) / max(abs(reduced), 1e-30))
    return CheckResult(
        name="sensing rate identities",
        passed=worst_spectral <= 1e-9 and worst_stacked <= 1e-8,
        detail=f"spectral rel err = {worst_spectral:.2e}; stacked rel err = {worst_stacked:.2e}",
    )


def check_sensing_slopes(cfg: SystemConfig) -> CheckResult:
    """Asymptote power-step slopes equal the slope table's; 40 dB gap < 1e-3."""
    p, p40 = db_to_linear(34.0), db_to_linear(40.0)
    slopes, gaps = [], []
    for _, mode in _MODES:
        low, high, top = (sensing_rate_asymptotic(cfg, mode, x) for x in (p, 4.0 * p, p40))
        slopes.append((high - low) / 2.0)
        gaps.append(abs(sensing_rate(cfg, mode, p40) - top))
    rows = reference_table(cfg, SPLIT_KAPPA)
    ok = all(abs(s - row.slope_sensing) <= 1e-12 and g < 1e-3 for s, g, row in zip(slopes, gaps, rows))
    return CheckResult(
        name="sensing rate slopes",
        passed=ok,
        detail="slopes = ({:.6f}, {:.6f}); 40 dB gaps = ({:.2e}, {:.2e})".format(*slopes, *gaps),
    )


def check_region_containment(cfg: SystemConfig) -> CheckResult:
    """Split region sits inside the integrated rectangle; boundary cases bind."""
    p = db_to_linear(5.0)
    corner = isac_corner(cfg, p)
    report = containment_check(corner, fdsac_frontier(cfg, p, REGION_GRID_N))
    gap_c = abs(sum_rate(cfg, fdsac(1.0, 1.0), p) - corner.rate_c)
    gap_s = abs(sensing_rate(cfg, fdsac(0.0, 0.0), p) - corner.rate_s)
    ok = report.holds and gap_c <= 1e-9 and gap_s <= 1e-9
    return CheckResult(
        name="rate region containment",
        passed=ok,
        detail=(
            f"max violation = {report.max_violation:.3e}; "
            f"equality gaps = ({gap_c:.1e}, {gap_s:.1e}) on {REGION_GRID_N}x{REGION_GRID_N} grid"
        ),
    )


def check_split_inequality(seed: int) -> CheckResult:
    """kappa*log2(1 + y1/(kappa+y2)) never exceeds log2(1 + (y1/mu)/(1+y2/mu))."""
    rng = np.random.default_rng(seed)
    n = 10_000
    y1 = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    y2 = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    y2[rng.random(size=n) < 0.1] = 0.0
    kappa = 1.0 - rng.random(size=n)
    mu = 1.0 - rng.random(size=n)
    lhs = kappa * np.log2(1.0 + y1 / (kappa + y2))
    rhs = np.log2(1.0 + (y1 / mu) / (1.0 + y2 / mu))
    excess = lhs - rhs
    violations = int(np.count_nonzero(excess > 1e-12))
    return CheckResult(
        name="split inequality",
        passed=violations == 0,
        detail=f"{violations} violations beyond 1e-12 in {n} tuples; max excess = {np.max(excess):.2e}",
    )


def check_special_functions(seed: int) -> CheckResult:
    """Ei satisfies its derivative identity and small-argument expansion."""
    x = np.random.default_rng(seed).uniform(-10.0, -0.1, size=20)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (exp_int_ei(x + h) - exp_int_ei(x - h)) / (2.0 * h)
    exact = _elementwise(math.exp, x) / x
    worst = float(np.max(np.abs(fd - exact) / np.abs(exact)))
    x_small = 1e-6
    tail = abs(exp_int_ei(-x_small) - (EULER_GAMMA + math.log(x_small)))
    return CheckResult(
        name="special function checks",
        passed=worst <= 1e-6 and tail < 1e-5,
        detail=f"max derivative rel err = {worst:.2e}; small-argument gap = {tail:.2e}",
    )


def check_determinism(cfg: SystemConfig, seed: int) -> CheckResult:
    """Identical seeds give byte-identical files, independent of worker count."""
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "system.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(cli.dump_config(cfg))
        base = [
            "outage",
            "--config", cfg_path,
            "--snr-db-min", "0",
            "--snr-db-max", "10",
            "--snr-db-step", "5",
            "--trials", "20000",
            "--seed", str(seed),
        ]
        runs = [base + ["--workers", workers] for workers in ("1", "1", "2")]
        runs += [["region", "--config", cfg_path, "--p-db", "5", "--grid-n", "11"]] * 2
        outs = [os.path.join(tmp, f"out{i}.csv") for i in range(len(runs))]
        # Outputs are read only once every run has exited 0.
        ran = all(cli.main(args + ["--output", out]) == 0 for args, out in zip(runs, outs))
        blobs = [Path(out).read_bytes() for out in outs] if ran else []
    ok = ran and blobs[0] == blobs[1] == blobs[2] and blobs[3] == blobs[4]
    detail = "outage (workers 1/1/2) and region reruns byte-identical" if ok else "byte mismatch"
    return CheckResult(
        name="deterministic outputs",
        passed=ok,
        detail=detail if ran else "a run exited with an error",
    )


def run_all(cfg: SystemConfig, trials: int, seed: int) -> list[CheckResult]:
    """Run every acceptance check and collect the verdicts."""
    return [
        check_outage_closed_form(cfg, trials, seed),
        check_ecr_closed_form(cfg, trials, seed),
        check_diversity_orders(cfg),
        check_high_snr_slopes(cfg),
        check_sensing_identities(cfg, seed),
        check_sensing_slopes(cfg),
        check_region_containment(cfg),
        check_split_inequality(seed),
        check_special_functions(seed),
        check_determinism(cfg, seed),
    ]
