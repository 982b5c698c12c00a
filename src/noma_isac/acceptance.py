"""End-to-end acceptance checks tying the closed forms, the Monte Carlo
oracles, and the region computation together.

Each check returns a CheckResult whose detail string is deterministic for a
given seed, so a selftest report can be diffed byte for byte.  The full-scale
gate runs these at 1e6 trials; the CLI selftest uses 1e5.
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
    sensing_rate,
    sensing_rate_asymptotic,
    sum_rate,
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

DEFAULT_SEED = 20240801
SNR_GRID_DB = tuple(range(0, 45, 5))
SPLIT_KAPPA = 0.5
SPLIT_MU = 0.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _modes():
    return (("isac", ISAC), ("fdsac", fdsac(SPLIT_KAPPA, SPLIT_MU)))


def _estimate_fields(estimates, field: str) -> np.ndarray:
    # One field of per-power (near, far) estimates, as a (2, powers) array.
    return np.array([[getattr(e, field) for e in pair] for pair in estimates]).T


def check_outage_closed_form(cfg: SystemConfig, trials: int, seed: int) -> CheckResult:
    """Closed-form outage against the event-level estimator, 3-sigma bands.

    The band uses the binomial standard error implied by the closed-form
    probability, which stays valid when the empirical count is tiny.
    """
    worst = 0.0
    checks = 0
    powers = db_to_linear(SNR_GRID_DB)
    for _, mode in _modes():
        value = np.array(outage_probability(cfg, mode, powers))
        emp = _estimate_fields(estimate_outage(cfg, mode, powers.tolist(), trials, seed), "value")
        se = np.sqrt(value * (1.0 - value) / trials)
        with np.errstate(divide="raise", invalid="raise"):  # a certain outage has se = 0
            worst = max(worst, float(np.max(np.abs(value - emp) / se)))
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
    for _, mode in _modes():
        value = np.array(ergodic_rates(cfg, mode, powers))
        estimates = estimate_ecr(cfg, mode, powers.tolist(), trials, seed)
        tol = np.maximum(3.0 * _estimate_fields(estimates, "std_error"), 1e-2)
        worst = max(worst, float(np.max(np.abs(value - _estimate_fields(estimates, "value")) - tol)))
        checks += value.size
    return CheckResult(
        name="ergodic rate closed form vs monte carlo",
        passed=worst <= 0.0,
        detail=f"worst band excess = {worst:.2e} over {checks} points",
    )


def check_diversity_orders(cfg: SystemConfig) -> CheckResult:
    """Log-log outage slopes over 30-40 dB match diversity orders 2 and 1."""
    grid_db = 30.0 + np.arange(11.0)
    results = []
    for _, mode in _modes():
        pn, pf = outage_probability(cfg, mode, db_to_linear(grid_db))
        results.append(tuple(
            estimate_slope(np.column_stack((grid_db / 10.0, _elementwise(math.log10, pout))))
            for pout in (pn, pf)
        ))
    ok = all(
        -2.15 <= slope_n <= -1.85 and -1.1 <= slope_f <= -0.9
        for slope_n, slope_f in results
    )
    shown = "; ".join(f"({sn:.3f}, {sf:.3f})" for sn, sf in results)
    return CheckResult(
        name="diversity orders",
        passed=ok,
        detail=f"(near, far) slopes per mode: {shown}",
    )


def check_high_snr_slopes(cfg: SystemConfig) -> CheckResult:
    """Rate gains over a 4x power step at 34->40 dB match the slope table."""
    powers = db_to_linear([34.0, 40.0])
    slopes = {}
    for tag, mode in _modes():
        ecr_n, ecr_f = ergodic_rates(cfg, mode, powers)
        slopes[tag] = tuple(float(hi - lo) / 2.0 for lo, hi in (ecr_n, ecr_f, ecr_n + ecr_f))
    ok = (
        0.95 <= slopes["isac"][0] <= 1.05
        and 0.45 <= slopes["fdsac"][0] <= 0.55
        and slopes["isac"][1] < 0.05
        and slopes["fdsac"][1] < 0.05
        and abs(slopes["isac"][2] - 1.0) <= 0.05
        and abs(slopes["fdsac"][2] - SPLIT_KAPPA) <= 0.05
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
        m = int(rng.integers(2, cfg.num_rx_antennas + 1))
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
    """Asymptote power-step slopes equal r/L and (1-kappa)*r/L; 40 dB gap < 1e-3."""
    r = cfg.sensing_rank
    big_l = cfg.frame_length
    p = db_to_linear(34.0)
    split = fdsac(SPLIT_KAPPA, SPLIT_MU)
    slope_i = (sensing_rate_asymptotic(cfg, ISAC, 4.0 * p) - sensing_rate_asymptotic(cfg, ISAC, p)) / 2.0
    slope_f = (sensing_rate_asymptotic(cfg, split, 4.0 * p) - sensing_rate_asymptotic(cfg, split, p)) / 2.0
    p40 = db_to_linear(40.0)
    gap_i = abs(sensing_rate(cfg, ISAC, p40) - sensing_rate_asymptotic(cfg, ISAC, p40))
    gap_f = abs(sensing_rate(cfg, split, p40) - sensing_rate_asymptotic(cfg, split, p40))
    ok = (
        abs(slope_i - r / big_l) <= 1e-12
        and abs(slope_f - (1.0 - SPLIT_KAPPA) * r / big_l) <= 1e-12
        and gap_i < 1e-3
        and gap_f < 1e-3
    )
    return CheckResult(
        name="sensing rate slopes",
        passed=ok,
        detail=f"slopes = ({slope_i:.6f}, {slope_f:.6f}); 40 dB gaps = ({gap_i:.2e}, {gap_f:.2e})",
    )


def check_region_containment(cfg: SystemConfig, grid_n: int) -> CheckResult:
    """Split region sits inside the integrated rectangle; boundary cases bind."""
    p = db_to_linear(5.0)
    corner = isac_corner(cfg, p)
    report = containment_check(corner, fdsac_frontier(cfg, p, grid_n))
    gap_c = abs(sum_rate(cfg, fdsac(1.0, 1.0), p) - corner.rate_c)
    gap_s = abs(sensing_rate(cfg, fdsac(0.0, 0.0), p) - corner.rate_s)
    ok = report.holds and gap_c <= 1e-9 and gap_s <= 1e-9
    return CheckResult(
        name="rate region containment",
        passed=ok,
        detail=(
            f"max violation = {report.max_violation:.3e}; "
            f"equality gaps = ({gap_c:.1e}, {gap_s:.1e}) on {grid_n}x{grid_n} grid"
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in rng.uniform(-10.0, -0.1, size=20):
        h = 1e-6 * max(1.0, abs(x))
        fd = (exp_int_ei(x + h) - exp_int_ei(x - h)) / (2.0 * h)
        exact = math.exp(x) / x
        worst = max(worst, abs(fd - exact) / abs(exact))
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
        outs = [os.path.join(tmp, f"out{i}.csv") for i in range(3)]
        base = [
            "outage",
            "--config", cfg_path,
            "--snr-db-min", "0",
            "--snr-db-max", "10",
            "--snr-db-step", "5",
            "--trials", "20000",
            "--seed", str(seed),
        ]
        rc0 = cli.main(base + ["--output", outs[0], "--workers", "1"])
        rc1 = cli.main(base + ["--output", outs[1], "--workers", "1"])
        rc2 = cli.main(base + ["--output", outs[2], "--workers", "2"])
        blobs = [Path(path).read_bytes() for path in outs]
        regions = []
        for i in range(2):
            out = os.path.join(tmp, f"region{i}.csv")
            cli.main([
                "region", "--config", cfg_path, "--p-db", "5", "--grid-n", "11",
                "--output", out,
            ])
            regions.append(Path(out).read_bytes())
    ok = (
        rc0 == rc1 == rc2 == 0
        and blobs[0] == blobs[1] == blobs[2]
        and regions[0] == regions[1]
    )
    return CheckResult(
        name="deterministic outputs",
        passed=ok,
        detail="outage (workers 1/1/2) and region reruns byte-identical" if ok else "byte mismatch",
    )


def run_all(
    cfg: SystemConfig,
    trials: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    grid_n: int = 101,
) -> list[CheckResult]:
    """Run every acceptance check and collect the verdicts."""
    return [
        check_outage_closed_form(cfg, trials, seed),
        check_ecr_closed_form(cfg, trials, seed),
        check_diversity_orders(cfg),
        check_high_snr_slopes(cfg),
        check_sensing_identities(cfg, seed),
        check_sensing_slopes(cfg),
        check_region_containment(cfg, grid_n),
        check_split_inequality(seed),
        check_special_functions(seed),
        check_determinism(cfg, seed),
    ]
