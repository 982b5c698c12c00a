"""Rate regions, Pareto structure, containment, and the scalar kernels
behind the containment argument."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_isac.acceptance import check_region_containment
from noma_isac.analytic import sensing_rate, sum_rate
from noma_isac.config import ISAC, baseline_config, db_to_linear, fdsac
from noma_isac.montecarlo import estimate_ecr
from noma_isac.region import (
    RatePoint,
    _pareto_subset,
    containment_check,
    fdsac_frontier,
    isac_corner,
)

CFG = baseline_config()
P5 = db_to_linear(5.0)


def test_corner_with_zero_spectrum_keeps_sum_rate():
    dead = dataclasses.replace(CFG, sensing_eigenvalues=(0.0,) * 8)
    corner = isac_corner(dead, P5)
    assert corner.rate_s == 0.0
    assert corner.rate_c == isac_corner(CFG, P5).rate_c


def test_corner_values_cross_checked_by_monte_carlo():
    corner = isac_corner(CFG, P5)
    assert corner.rate_s == sensing_rate(CFG, ISAC, P5)
    [(est_n, est_f)] = estimate_ecr(CFG, ISAC, [P5], trials=400_000, seed=606)
    tol = 3.0 * (est_n.std_error + est_f.std_error) + 1e-3
    assert corner.rate_c == pytest.approx(est_n.value + est_f.value, abs=tol)
    with pytest.raises(ValueError):
        isac_corner(CFG, 0.0)


def _containment(cfg, p, grid_n):
    return containment_check(isac_corner(cfg, p), fdsac_frontier(cfg, p, grid_n))


def test_frontier_grid_includes_exact_endpoints():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    kappas = set(frontier.kappa.tolist())
    mus = set(frontier.mu.tolist())
    assert 0.0 in kappas and 1.0 in kappas
    assert 0.0 in mus and 1.0 in mus
    for values in (frontier.kappa, frontier.mu, frontier.rate_s, frontier.rate_c):
        assert values.shape == (121,)
    with pytest.raises(ValueError):
        fdsac_frontier(CFG, P5, grid_n=1)


def test_full_communication_split_recovers_corner_sum_rate():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    corner = isac_corner(CFG, P5)
    full = np.flatnonzero((frontier.kappa == 1.0) & (frontier.mu == 1.0))
    assert len(full) == 1
    assert frontier.rate_c[full[0]] == pytest.approx(corner.rate_c, abs=1e-9)
    assert frontier.rate_s[full[0]] == 0.0


def test_full_sensing_split_recovers_corner_sensing_rate():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    corner = isac_corner(CFG, P5)
    zero = np.flatnonzero((frontier.kappa == 0.0) & (frontier.mu == 0.0))
    assert len(zero) == 1
    assert frontier.rate_s[zero[0]] == pytest.approx(corner.rate_s, abs=1e-9)
    assert frontier.rate_c[zero[0]] == 0.0


def test_pareto_subset_is_undominated():
    frontier = fdsac_frontier(CFG, P5, grid_n=21)
    pareto = frontier.pareto.tolist()
    assert 0 < len(pareto) <= len(frontier.rate_s)
    for a in pareto:
        for b in pareto:
            if a == b:
                continue
            dominates = (
                frontier.rate_s[b] >= frontier.rate_s[a]
                and frontier.rate_c[b] >= frontier.rate_c[a]
                and (frontier.rate_s[b] > frontier.rate_s[a] or frontier.rate_c[b] > frontier.rate_c[a])
            )
            assert not dominates


def test_pareto_points_come_from_the_grid():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    pareto = frontier.pareto.tolist()
    assert len(set(pareto)) == len(pareto)
    assert all(0 <= i < len(frontier.kappa) for i in pareto)


def _brute_force_pareto(rate_s, rate_c):
    # First grid index of each distinct undominated rate pair, highest rate_s first.
    first = {}
    for i, key in enumerate(zip(rate_s, rate_c)):
        first.setdefault(key, i)
    kept = [
        (s, c)
        for s, c in first
        if not any(t >= s and d >= c and (t > s or d > c) for t, d in first)
    ]
    return [first[key] for key in sorted(kept, key=lambda key: -key[0])]


_RATES = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 3.0), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_RATES, _RATES, st.lists(st.integers(0, 39), max_size=10))
def test_pareto_subset_equals_brute_force(rate_s, rate_c, copies):
    n = min(len(rate_s), len(rate_c))
    rate_s, rate_c = rate_s[:n], rate_c[:n]
    # Exact duplicates of earlier points, at later grid positions.
    for j in copies:
        if n:
            rate_s.append(rate_s[j % n])
            rate_c.append(rate_c[j % n])
    got = _pareto_subset(np.array(rate_s, dtype=float), np.array(rate_c, dtype=float))
    assert got.tolist() == _brute_force_pareto(rate_s, rate_c)


def test_grid_rates_never_exceed_corner():
    corner = isac_corner(CFG, P5)
    frontier = fdsac_frontier(CFG, P5, grid_n=21)
    assert np.all(frontier.rate_c <= corner.rate_c + 1e-9)
    assert np.all(frontier.rate_s <= corner.rate_s + 1e-9)


def test_frontier_values_pinned_at_grid_21():
    # Recorded from the point-by-point scalar frontier this kernel replaced;
    # the array kernel must reproduce them bit for bit.
    frontier = fdsac_frontier(CFG, P5, grid_n=21)
    rates = np.stack([frontier.rate_s, frontier.rate_c]).astype("<f8")
    assert hashlib.sha256(rates.tobytes()).hexdigest() == (
        "6f5ec6602c24c786f650bcfe4cf2fddd2acab18b5541998f8fac17e43c1ec204"
    )
    pinned = {
        0: (0.0, 0.0, 2.008179768999698, 0.0),
        1: (0.0, 0.05, 1.988588241357166, 0.0),
        22: (0.05, 0.05, 1.9077707805497126, 0.05007233664302644),
        220: (0.5, 0.5, 1.004089884499849, 0.5007233664302644),
        439: (1.0, 0.9500000000000001, 0.0, 0.96411281049178),
        440: (1.0, 1.0, 0.0, 1.0014467328605288),
    }
    for i, point in pinned.items():
        got = (frontier.kappa[i], frontier.mu[i], frontier.rate_s[i], frontier.rate_c[i])
        assert got == point
    assert len(frontier.pareto) == 64
    assert frontier.pareto[:3].tolist() == [0, 22, 23]


def test_containment_at_reference_power():
    report = _containment(CFG, P5, grid_n=101)
    assert report.holds
    # The (1, 1) split reproduces the corner's sum rate exactly.
    assert report.max_violation == 0.0


def test_containment_across_powers():
    for snr_db in (0.0, 10.0, 20.0):
        report = _containment(CFG, db_to_linear(snr_db), grid_n=51)
        assert report.holds


def test_containment_degenerate_spectrum():
    dead = dataclasses.replace(CFG, sensing_eigenvalues=(0.0,) * 8)
    report = _containment(dead, P5, grid_n=21)
    assert report.holds


def test_containment_flags_a_corner_inside_the_region():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    report = containment_check(RatePoint(rate_s=0.5, rate_c=0.25), frontier)
    assert not report.holds
    assert report.max_violation == max(frontier.rate_s.max() - 0.5, frontier.rate_c.max() - 0.25)


def test_boundary_equalities_bind():
    corner = isac_corner(CFG, P5)
    assert sum_rate(CFG, fdsac(1.0, 1.0), P5) == pytest.approx(corner.rate_c, abs=1e-9)
    assert sensing_rate(CFG, fdsac(0.0, 0.0), P5) == pytest.approx(corner.rate_s, abs=1e-9)


def test_boundary_equalities_are_exact():
    # Acceptance criterion 7 reports these gaps; they must stay exactly zero.
    corner = isac_corner(CFG, P5)
    assert sum_rate(CFG, fdsac(1.0, 1.0), P5) - corner.rate_c == 0.0
    assert sensing_rate(CFG, fdsac(0.0, 0.0), P5) - corner.rate_s == 0.0
    detail = check_region_containment(CFG).detail
    assert "equality gaps = (0.0e+00, 0.0e+00)" in detail


# ------------------------------------------------------------ scalar kernels

def bandwidth_scaled_rate(x: float, a: float, b: float) -> float:
    """Rate through a fractional band: x * ln(1 + a/(x + b)), nats.

    Strictly increasing on x in [0, 1] for a > 0, b >= 0, which is what makes
    shrinking a sub-band never pay off.
    """
    if not a > 0.0:
        raise ValueError("a must be positive")
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    return x * math.log1p(a / (x + b))


def log_plus_ratio(x: float, c: float) -> float:
    """Monotone helper ln(x + c) + c/(x + c), nondecreasing on x >= 0 for c >= 0.

    The derivative of bandwidth_scaled_rate in its fraction argument equals
    log_plus_ratio(a + b, x) - log_plus_ratio(b, x).
    """
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x + c == 0.0:
        raise ValueError("x + c must be positive")
    return math.log(x + c) + c / (x + c)


def test_bandwidth_scaled_rate_at_zero():
    assert bandwidth_scaled_rate(0.0, 2.0, 0.5) == 0.0


def test_bandwidth_scaled_rate_domain():
    with pytest.raises(ValueError):
        bandwidth_scaled_rate(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        bandwidth_scaled_rate(0.5, 1.0, -0.1)
    with pytest.raises(ValueError):
        bandwidth_scaled_rate(1.5, 1.0, 0.0)


def test_bandwidth_scaled_rate_monotone_on_unit_interval():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        a = float(10.0 ** rng.uniform(-2.0, 2.0))
        b = float(rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 2.0)]))
        x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if x1 == x2:
            continue
        assert bandwidth_scaled_rate(x1, a, b) < bandwidth_scaled_rate(x2, a, b)


def test_bandwidth_scaled_rate_derivative_identity():
    rng = np.random.default_rng(72)
    h = 1e-7
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-1.0, 1.5))
        b = float(10.0 ** rng.uniform(-1.0, 1.5))
        x = float(rng.uniform(0.05, 0.95))
        fd = (bandwidth_scaled_rate(x + h, a, b) - bandwidth_scaled_rate(x - h, a, b)) / (2.0 * h)
        exact = log_plus_ratio(a + b, x) - log_plus_ratio(b, x)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_log_plus_ratio_nondecreasing():
    rng = np.random.default_rng(73)
    for c in (0.0, 0.3, 2.0, 50.0):
        xs = np.sort(rng.uniform(0.0, 20.0, size=200))
        if c == 0.0:
            xs = xs[xs > 0.0]
        vals = [log_plus_ratio(float(x), c) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_split_inequality_random_tuples():
    rng = np.random.default_rng(74)
    n = 10_000
    y1 = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    y2 = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    y2[rng.random(size=n) < 0.1] = 0.0
    kappa = 1.0 - rng.random(size=n)
    mu = 1.0 - rng.random(size=n)
    lhs = kappa * np.log2(1.0 + y1 / (kappa + y2))
    rhs = np.log2(1.0 + (y1 / mu) / (1.0 + y2 / mu))
    assert np.count_nonzero(lhs - rhs > 1e-12) == 0
