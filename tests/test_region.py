"""Rate regions, Pareto structure, containment, and the scalar kernels
behind the containment argument."""

import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_isac import region
from noma_isac.acceptance import check_region_containment
from noma_isac.analytic import sensing_rate, split_ergodic_rates, split_sensing_rate, sum_rate
from noma_isac.config import ISAC, baseline_config, db_to_linear, fdsac
from noma_isac.montecarlo import estimate_ecr
from noma_isac.region import (
    FrontierSweep,
    RatePoint,
    _pareto_subset,
    _Survivors,
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
    (est_n, est_f), (se_n, se_f) = estimate_ecr(CFG, ISAC, P5, trials=400_000, seed=606)
    tol = 3.0 * (se_n + se_f) + 1e-3
    assert corner.rate_c == pytest.approx(est_n + est_f, abs=tol)
    with pytest.raises(ValueError):
        isac_corner(CFG, 0.0)


def _containment(cfg, p, grid_n):
    return containment_check(isac_corner(cfg, p), fdsac_frontier(cfg, p, grid_n))


def _splits(frontier):
    # The (kappa, mu) columns of the frontier's grid, kappa varying slowest.
    n = frontier.fractions.size
    return np.repeat(frontier.fractions, n), np.tile(frontier.fractions, n)


def test_frontier_grid_includes_exact_endpoints():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    kappa, mu = _splits(frontier)
    kappas, mus = set(kappa.tolist()), set(mu.tolist())
    assert 0.0 in kappas and 1.0 in kappas
    assert 0.0 in mus and 1.0 in mus
    for values in (kappa, mu, frontier.rate_s, frontier.rate_c):
        assert values.shape == (121,)
    with pytest.raises(ValueError):
        fdsac_frontier(CFG, P5, grid_n=1)


def test_full_communication_split_recovers_corner_sum_rate():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    corner = isac_corner(CFG, P5)
    kappa, mu = _splits(frontier)
    full = np.flatnonzero((kappa == 1.0) & (mu == 1.0))
    assert len(full) == 1
    assert frontier.rate_c[full[0]] == pytest.approx(corner.rate_c, abs=1e-9)
    assert frontier.rate_s[full[0]] == 0.0


def test_full_sensing_split_recovers_corner_sensing_rate():
    frontier = fdsac_frontier(CFG, P5, grid_n=11)
    corner = isac_corner(CFG, P5)
    kappa, mu = _splits(frontier)
    zero = np.flatnonzero((kappa == 0.0) & (mu == 0.0))
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
    assert all(0 <= i < len(frontier.rate_s) for i in pareto)


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
@example([], [], [])
@example([0.5], [0.0], [])
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



def _split_at(sizes, n):
    # Block bounds of n points, the sizes taken in turn, down to one point.
    bounds = [0]
    for size in itertools.cycle(sizes):
        if bounds[-1] >= n:
            return bounds
        bounds.append(min(n, bounds[-1] + size))


_BLOCK_RATES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 3.0), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(
    _BLOCK_RATES, _BLOCK_RATES, st.lists(st.integers(0, 39), max_size=10),
    st.lists(st.integers(1, 9), min_size=1, max_size=8),
)
@example([0.5, 0.5], [1.0, 1.0], [], [1])  # one point per block, a duplicate in the next
@example([0.0, -0.0, 1.0], [1.0, 1.0, 0.0], [0, 1], [2])  # signed zeros tie across blocks
def test_pareto_survivors_of_blocks_equal_the_whole_sweep(rate_s, rate_c, copies, sizes):
    # Points split into blocks of random sizes, with ties and exact
    # duplicates of earlier points at later positions, often in later blocks.
    n = min(len(rate_s), len(rate_c))
    rate_s, rate_c = rate_s[:n], rate_c[:n]
    for j in copies:
        rate_s.append(rate_s[j % n])
        rate_c.append(rate_c[j % n])
    rate_s, rate_c = np.array(rate_s), np.array(rate_c)
    whole = _pareto_subset(rate_s, rate_c)
    bounds = _split_at(sizes, rate_s.size)
    # The union of each block's survivors, swept again in index order.
    blocks = list(zip(bounds, bounds[1:]))
    union = np.concatenate([a + _pareto_subset(rate_s[a:b], rate_c[a:b]) for a, b in blocks])
    union.sort()
    assert union[_pareto_subset(rate_s[union], rate_c[union])].tolist() == whole.tolist()
    # The blocks added one at a time, as FrontierSweep adds them.
    survivors = _Survivors()
    for a, b in blocks:
        survivors.add(a, rate_s[a:b], rate_c[a:b])
    index, kept_s, kept_c = survivors.merged()
    assert index.tolist() == whole.tolist()
    assert kept_s.tobytes() == rate_s[whole].tobytes() and kept_c.tobytes() == rate_c[whole].tobytes()


def _full_sweep(rate_s, rate_c):
    # The Pareto sweep over every point, as _pareto_subset ran it before it
    # swept only its candidates.
    order = np.lexsort((-rate_c, -rate_s))
    swept = rate_c[order]
    best_before = np.maximum.accumulate(np.concatenate(([-math.inf], swept[:-1])))
    return order[swept > best_before]


@functools.cache
def _pareto_cases():
    frontier = fdsac_frontier(CFG, P5, 401)
    rng = np.random.default_rng(20)
    n = 5000
    levels = rng.integers(0, 40, n) / 4.0
    stairs = np.repeat(np.arange(50.0), 30)
    return {
        "baseline frontier at grid 401": (frontier.rate_s, frontier.rate_c),
        "the same, shuffled": tuple(v[rng.permutation(v.size)] for v in (frontier.rate_s, frontier.rate_c)),
        "every rate_s equal": (np.full(n, 1.5), levels),
        "every point the same": (np.full(n, 1.5), np.full(n, 0.25)),
        # Each rate_c recurs behind larger rate_s, and each point recurs.
        "repeated rate_c behind a larger rate_s": (stairs, np.floor((60.0 - stairs) / 7.0)),
        "few levels in both": (levels, rng.permutation(levels)),
        "signed zeros": (rng.choice([0.0, -0.0, 1.0], n), rng.choice([0.0, -0.0, 1.0], n)),
    }


@pytest.mark.parametrize("case", list(_pareto_cases()))
def test_pareto_subset_equals_the_full_sweep(case):
    rate_s, rate_c = _pareto_cases()[case]
    got = _pareto_subset(rate_s, rate_c)
    assert got.dtype == np.intp
    assert got.tolist() == _full_sweep(rate_s, rate_c).tolist()


def test_grid_rates_never_exceed_corner():
    corner = isac_corner(CFG, P5)
    frontier = fdsac_frontier(CFG, P5, grid_n=21)
    assert np.all(frontier.rate_c <= corner.rate_c + 1e-9)
    assert np.all(frontier.rate_s <= corner.rate_s + 1e-9)


def test_frontier_traced_peak_per_grid_point():
    # Full-grid arrays are only the two collected rates; the psi brackets are
    # held per distinct kappa*sigma2_c/mu (about 24 bytes a ratio, some 0.65
    # of the points), and the rest, the Pareto survivors included, per block
    # of kappa rows: 41 bytes a point at grid 401.  The full grid's Pareto
    # sweep, its order, swept copy and running maximum, takes it to 48.
    grid_n = 401
    fdsac_frontier(CFG, P5, 5)
    tracemalloc.start()
    try:
        fdsac_frontier(CFG, P5, grid_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid_n**2 <= 5.5 * 8


@pytest.mark.parametrize("snr_db", [-60.0, 5.0, 40.0])
def test_sweep_containment_is_the_largest_excess_of_every_point(snr_db):
    # Rounding is monotone, so the excess of the largest rates is the largest
    # excess, bit for bit; the sweep keeps the largest rates of its blocks.
    p = db_to_linear(snr_db)
    corner, frontier = isac_corner(CFG, p), fdsac_frontier(CFG, p, 21)
    excess_s, excess_c = frontier.rate_s - corner.rate_s, frontier.rate_c - corner.rate_c
    worst = max(float(np.max(excess_s)), float(np.max(excess_c)))
    sweep = FrontierSweep(CFG, p, 21)
    for _ in sweep:
        pass
    assert containment_check(corner, frontier).max_violation == worst
    assert containment_check(corner, sweep) == containment_check(corner, frontier)


def test_sweep_gives_no_verdict_until_every_block_was_yielded(monkeypatch):
    # Grid 11 in blocks of two kappa rows: six blocks.
    monkeypatch.setattr(region, "_TILE", 22)
    corner, whole = isac_corner(CFG, P5), fdsac_frontier(CFG, P5, 11)
    fresh, half = FrontierSweep(CFG, P5, 11), FrontierSweep(CFG, P5, 11)
    blocks = iter(half)
    for _ in range(3):
        next(blocks)
    for sweep in (fresh, half):
        with pytest.raises(RuntimeError, match="every block"):
            containment_check(corner, sweep)
        with pytest.raises(RuntimeError, match="every block"):
            sweep.pareto()
    for _ in blocks:
        pass
    assert half.largest_rates == whole.largest_rates
    assert containment_check(corner, half) == containment_check(corner, whole)
    assert half.pareto()[0].tolist() == whole.pareto.tolist()


@pytest.mark.parametrize("tile", [7, 1000, region._TILE])
@pytest.mark.parametrize("snr_db", [-60.0, 5.0, 40.0])
@pytest.mark.parametrize("grid_n", [2, 3, 67, 101])
def test_frontier_blocks_equal_the_elementwise_rates(monkeypatch, tile, snr_db, grid_n):
    # The tile sets the row blocks: one row at tile 7 (2 + 1 rows at grid
    # 3); 14 and 9 rows at tile 1000, which grids 67 and 101 do not fill
    # evenly; 81 + 20 rows at the default tile and grid 101.  Each point's
    # rates equal, bit for bit, the split rates evaluated elementwise on the
    # full grid, and each kappa*sigma2_c/mu finds its own psi brackets in the
    # distinct-ratio table.
    monkeypatch.setattr(region, "_TILE", tile)
    p = db_to_linear(snr_db)
    frontier = fdsac_frontier(CFG, p, grid_n)
    fractions = np.linspace(0.0, 1.0, grid_n)
    kappa, mu = np.repeat(fractions, grid_n), np.tile(fractions, grid_n)
    ecr_n, ecr_f = split_ergodic_rates(CFG, kappa, mu, np.full(kappa.shape, p))
    assert frontier.rate_s.tobytes() == split_sensing_rate(CFG, kappa, mu, p).tobytes()
    assert frontier.rate_c.tobytes() == (ecr_n + ecr_f).tobytes()
    assert frontier.fractions.tobytes() == fractions.tobytes()
    assert frontier.pareto.tolist() == _pareto_subset(frontier.rate_s, frontier.rate_c).tolist()


def test_frontier_checks_the_grid_then_the_power_then_underflow():
    # sigma2_c = 5e-324 makes kappa*sigma2_c/mu round to 0 at kappa = 0.5.
    tiny = dataclasses.replace(CFG, sigma2_c=5e-324)
    with pytest.raises(ValueError, match="grid_n must be at least 2"):
        fdsac_frontier(tiny, math.inf, 1)
    with pytest.raises(ValueError, match="p must be positive and finite"):
        fdsac_frontier(tiny, math.inf, 3)
    with pytest.raises(FloatingPointError, match="underflow to 0"):
        fdsac_frontier(tiny, P5, 3)


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
    kappa, mu = _splits(frontier)
    for i, point in pinned.items():
        got = (kappa[i], mu[i], frontier.rate_s[i], frontier.rate_c[i])
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
