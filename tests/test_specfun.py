"""Special-function kernels against independent quadrature and dense linear algebra."""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from noma_isac import region, specfun
from noma_isac.config import baseline_config, db_to_linear
from noma_isac.specfun import EULER_GAMMA, exp_int_ei, log2_det_i_plus_scaled, psi_term

# Frozen values of Ei(-x) = -int_x^inf e^-t/t dt from adaptive quadrature of
# the defining integral, written as -e^-x * int_0^inf e^-s/(x+s) ds so quad
# can control the relative error (epsrel=1e-12).
EI_QUAD_TABLE = {
    0.05: -2.4678984885099746,
    0.1: -1.8229239584193904,
    0.5: -0.55977359477616095,
    1.0: -0.21938393439552031,
    2.0: -0.048900510708061118,
    5.0: -0.0011482955912753257,
    10.0: -4.1569689296853246e-06,
    30.0: -3.0215520106888120e-15,
}


def quad_ei(x: float) -> float:
    val, _ = integrate.quad(
        lambda s: math.exp(-s) / (x + s), 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return -math.exp(-x) * val


def test_ei_matches_frozen_quadrature_table():
    for x, expected in EI_QUAD_TABLE.items():
        assert exp_int_ei(-x) == pytest.approx(expected, rel=1e-12)


def test_ei_matches_live_quadrature_at_random_points():
    rng = np.random.default_rng(5)
    for x in 10.0 ** rng.uniform(-2.0, 1.2, size=25):
        assert exp_int_ei(-x) == pytest.approx(quad_ei(x), rel=1e-11)


def test_ei_rejects_nonnegative_arguments():
    for bad in (0.0, -0.0, 1.0, 0.5):
        with pytest.raises(ValueError):
            exp_int_ei(bad)


def test_ei_vanishes_towards_minus_infinity():
    values = [exp_int_ei(x) for x in (-20.0, -50.0, -100.0, -500.0)]
    assert all(v < 0.0 for v in values)
    assert all(abs(b) < abs(a) for a, b in zip(values, values[1:]))
    assert abs(values[-1]) < 1e-200


def test_ei_strictly_negative_and_decreasing_towards_zero():
    # d/dx Ei(x) = e^x/x < 0 on the negative axis, so moving x towards 0
    # drives the value down towards -inf.
    xs = np.sort(np.random.default_rng(11).uniform(-10.0, -1e-3, size=100))
    vals = [exp_int_ei(x) for x in xs]
    assert all(v < 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ei_small_argument_expansion():
    for x in (1e-6, 1e-8, 1e-10):
        assert abs(exp_int_ei(-x) - (EULER_GAMMA + math.log(x))) < 1e-5


def test_ei_derivative_identity():
    rng = np.random.default_rng(123)
    for x in rng.uniform(-10.0, -0.1, size=20):
        h = 1e-6 * max(1.0, abs(x))
        fd = (exp_int_ei(x + h) - exp_int_ei(x - h)) / (2.0 * h)
        exact = math.exp(x) / x
        assert fd == pytest.approx(exact, rel=1e-6)


def test_ei_branches_agree_at_crossover():
    # Both evaluation branches must agree where the implementation switches.
    from noma_isac.specfun import _e1_scaled_cf, _ei_neg_series

    for z in (4.0, 4.5, 5.0):
        series = _ei_neg_series(np.array([z]))[0]
        cf = -math.exp(-z) * _e1_scaled_cf(np.array([z]))[0]
        assert series == pytest.approx(cf, rel=1e-12)


def test_psi_term_pinned_at_series_cutoff_neighbours():
    # Recorded from the scalar per-call kernel this array kernel replaced, at
    # the last series point, the cutoff itself and the first continued-fraction point.
    z = np.array([np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, np.inf)])
    pinned = [-0.17042217628456174, -0.17042217628477485, -0.17042217628473239]
    assert psi_term(z, 1.0).tolist() == pinned
    assert [psi_term(float(v), 1.0) for v in z] == pinned
    assert [exp_int_ei(-float(v)) for v in z] == [
        -0.0011482955912741784,
        -0.0011482955912756132,
        -0.001148295591275326,
    ]


def test_ei_array_matches_scalar_calls():
    # Every branch, the cutoffs 5 and 1e6 and their float neighbours, in
    # one array call against one call per element, bit for bit.
    cutoffs = np.array([specfun._SERIES_CUTOFF, specfun._ASYMPTOTIC_CUTOFF])
    z = np.concatenate(
        [
            10.0 ** np.random.default_rng(9).uniform(-8.0, 20.0, size=4994),
            cutoffs,
            np.nextafter(cutoffs, 0.0),
            np.nextafter(cutoffs, np.inf),
        ]
    )
    got = exp_int_ei(-z.reshape(2, -1))
    assert got.shape == (2, z.size // 2)
    scalar = [exp_int_ei(-v) for v in z.tolist()]
    assert all(type(v) is float for v in scalar)
    assert got.ravel().view(np.int64).tolist() == np.array(scalar).view(np.int64).tolist()
    with pytest.raises(ValueError):
        exp_int_ei(np.array([-1.0, 0.0, -2.0]))


def test_psi_term_array_matches_scalar_calls():
    rng = np.random.default_rng(8)
    chi = 10.0 ** rng.uniform(-6.0, 6.0, size=(40, 3))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
    got = psi_term(chi, scale)
    assert got.shape == (40, 3)
    assert got.tolist() == [[psi_term(float(c), float(s)) for c, s in zip(row, scale)] for row in chi]


def test_psi_term_pinned_on_both_sides_of_the_asymptotic_cutoff():
    # 7.5 and 1e3, on the continued fraction, recorded from the scalar
    # per-call kernel; the three ratios on the asymptotic branch are the
    # correctly rounded values from mpmath, which the expansion gives there.
    pinned = {
        7.5: -0.11902504720841102,
        1e3: -0.0009990019940238808,
        1e10: -9.999999999e-11,
        1e15: -9.99999999999999e-16,
        9.9e15: -1.01010101010101e-16,
    }
    assert psi_term(np.array(list(pinned)), 1.0).tolist() == list(pinned.values())


def test_psi_term_asymptotic_branch_continues_the_fraction():
    from noma_isac.specfun import _ASYMPTOTIC_CUTOFF, _e1_scaled_cf

    z = np.array([_ASYMPTOTIC_CUTOFF, np.nextafter(_ASYMPTOTIC_CUTOFF, np.inf)])
    assert psi_term(z, 1.0) == pytest.approx(-_e1_scaled_cf(z), rel=1e-15)
    below = np.nextafter(_ASYMPTOTIC_CUTOFF, 0.0)
    assert psi_term(_ASYMPTOTIC_CUTOFF, 1.0) == pytest.approx(psi_term(below, 1.0), rel=1e-15)


def test_ei_above_the_series_is_within_stated_ulps_of_mpmath():
    # Against mpmath at 50 digits, in units in the last place of the
    # correctly rounded value, on a dense log grid over (5, 1e16] with the
    # cutoffs and their float neighbours.  Bounds fixed before the first run:
    # the expansion rounds its inner 1 - t by at most 2**-54 relative and its
    # last division by half an ulp, and omits 6/z**3 relative, so it stays
    # within 1.06 ulp; the fraction's largest error that scans of up to
    # 300,000 log-uniform z found on (5, 1e6) is below 22.6 ulp; unscaled
    # Ei(-z) adds libm's exp(-z) and one product, each within an ulp.
    mpmath = pytest.importorskip("mpmath")
    cuts = [specfun._SERIES_CUTOFF, specfun._ASYMPTOTIC_CUTOFF]
    steps = (float, lambda v: np.nextafter(v, 0.0), lambda v: np.nextafter(v, math.inf))
    edges = [f(c) for c in cuts for f in steps]
    z = np.unique(np.concatenate([np.geomspace(5.0, 1e16, 6001), edges]))
    z = z[z > specfun._SERIES_CUTOFF]
    big = z >= specfun._ASYMPTOTIC_CUTOFF
    scaled, unscaled = specfun._ei_neg(z, scaled=True), specfun._ei_neg(z, scaled=False)
    errors = {"expansion": [], "fraction": [], "unscaled": []}
    with mpmath.workdps(50):
        for v, s, u, on_big in zip(z.tolist(), scaled.tolist(), unscaled.tolist(), big):
            e1 = mpmath.e1(v)
            exact = -e1 * mpmath.exp(v)
            errors["expansion" if on_big else "fraction"].append(
                float(abs(s - exact)) / math.ulp(float(exact))
            )
            if v <= 700.0:
                errors["unscaled"].append(float(abs(u + e1)) / math.ulp(float(e1)))
    assert len(errors["expansion"]) > 2000 and len(errors["unscaled"]) > 500
    assert max(errors["expansion"]) <= 1.06
    assert max(errors["fraction"]) <= 22.6
    assert max(errors["unscaled"]) <= 24.6


def test_psi_term_large_ratio_limit():
    # e^z * E1(z) ~ 1/z, so -z * psi -> 1 where the continued fraction stalls.
    for z in (1e16, 1e21, 1e100, 1e300):
        assert abs(-z * psi_term(z, 1.0) - 1.0) <= 2e-16
    assert psi_term(1e21, 1.0) == pytest.approx(-1e-21, rel=1e-15)
    assert psi_term(1.0, 1e-300) == pytest.approx(-1e-300, rel=1e-15)


def test_psi_term_reference_value():
    # Ei(-1)*e from the quadrature table.
    expected = EI_QUAD_TABLE[1.0] * math.e
    assert psi_term(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert psi_term(1.0, 1.0) == pytest.approx(-0.5963473623231940, rel=1e-12)


def test_psi_term_decays_for_large_ratio():
    v = psi_term(1e6, 1.0)
    assert -2e-6 < v < 0.0
    # Huge ratios must not overflow the exponential factor.
    v = psi_term(1e6, 1e-3)
    assert -2e-9 < v < 0.0


def test_psi_term_small_ratio_limit():
    z = 1e-8
    assert psi_term(z, 1.0) == pytest.approx(EULER_GAMMA + math.log(z), abs=1e-6)


@pytest.mark.parametrize("chi,scale", [(5e-323, 2e3), (1e-300, 1e10), (2.2e-308, 1.0)])
def test_psi_term_below_the_normal_range(chi, scale):
    # chi/scale is subnormal or 0.  Ei(-z) * e^z is gamma + ln z there, to
    # rounding, and ln z is ln chi - ln scale.
    expected = EULER_GAMMA + (math.log(chi) - math.log(scale))
    assert psi_term(chi, scale) == expected
    on_arrays = psi_term(np.array([chi, 1.0]), np.array([scale, 2.0]))
    assert on_arrays.tolist() == [expected, psi_term(1.0, 2.0)]


def test_psi_term_is_continuous_at_the_normal_range():
    tiny = sys.float_info.min
    assert psi_term(np.nextafter(tiny, 1.0), 1.0) == pytest.approx(EULER_GAMMA + math.log(tiny), rel=1e-15)


def test_psi_term_always_negative():
    rng = np.random.default_rng(42)
    for chi, scale in 10.0 ** rng.uniform(-3.0, 3.0, size=(50, 2)):
        assert psi_term(chi, scale) < 0.0


def test_psi_term_domain_errors():
    with pytest.raises(ValueError):
        psi_term(0.0, 1.0)
    with pytest.raises(ValueError):
        psi_term(1.0, 0.0)
    with pytest.raises(ValueError):
        psi_term(-1.0, 1.0)


def test_log2_det_trivial_values():
    assert log2_det_i_plus_scaled(0.0, [3.0, 1.0, 0.5]) == 0.0
    assert log2_det_i_plus_scaled(1.0, [1.0, 1.0]) == pytest.approx(2.0, rel=1e-15)
    assert log2_det_i_plus_scaled(2.0, []) == 0.0
    assert log2_det_i_plus_scaled(math.inf, [1.0, 2.0]) == math.inf


def test_log2_det_domain_errors():
    with pytest.raises(ValueError):
        log2_det_i_plus_scaled(-1.0, [1.0])
    with pytest.raises(ValueError):
        log2_det_i_plus_scaled(1.0, [1.0, -0.5])


def test_log2_det_permutation_invariant():
    rng = np.random.default_rng(9)
    lam = rng.uniform(0.0, 5.0, size=8)
    base = log2_det_i_plus_scaled(3.7, lam)
    for _ in range(10):
        assert log2_det_i_plus_scaled(3.7, rng.permutation(lam)) == base


def test_log2_det_matches_dense_hermitian_oracle():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        lam = rng.uniform(0.0, 5.0, size=m)
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, _ = np.linalg.qr(g)
        r = (q * lam) @ q.conj().T
        c = float(10.0 ** rng.uniform(-1.0, 3.0))
        _, logdet = np.linalg.slogdet(np.eye(m) + c * r)
        dense = logdet / math.log(2.0)
        assert log2_det_i_plus_scaled(c, lam) == pytest.approx(dense, rel=1e-9)


def _fsum_oracle(c, lam):
    # The exactly rounded sum of each row's natural-log terms, row by row.
    lam = np.sort(np.asarray(lam, dtype=float))
    return [math.fsum(np.log1p(row * lam)) / math.log(2.0) for row in np.asarray(c).tolist()]


# Ties, zeros and subnormals come from the pool; the products c*lambda stay finite.
_EIGENVALUES = st.sampled_from([0.0, 5e-324, 1e-310, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e6)
_SCALES = st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) | st.floats(0.0, 1e12)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(_SCALES, min_size=1, max_size=16), st.lists(_EIGENVALUES, max_size=10))
def test_log2_det_rows_equal_fsum(c, lam):
    assert log2_det_i_plus_scaled(np.array(c), lam).tolist() == _fsum_oracle(c, lam)
    assert log2_det_i_plus_scaled(c[0], lam) == _fsum_oracle(c[:1], lam)[0]


def test_log2_det_midpoint_row_is_rounded_exactly():
    # Terms 2**-200, 2**-53 and 1: their double-double sum is the midpoint
    # 1 + 2**-53, and the 2**-200 left in the error bound makes it round up.
    lam = [math.e - 1.0, 2.0**-53, 2.0**-200]
    expected = (1.0 + 2.0**-52) / math.log(2.0)
    assert _fsum_oracle([1.0], lam) == [expected]
    assert log2_det_i_plus_scaled(1.0, lam) == expected


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_row_sums_by_fsum_and_by_cascade_agree_around_the_cutoff(offset):
    # Around 64 rows, where tiles once left the cascade for a per-row
    # math.fsum, the cascade gives math.fsum's bits on every row, including
    # zero sums, their sign, and non-finite rows.
    rows = 64 + offset
    rng = np.random.default_rng(rows)
    terms = np.log1p(10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 8)))
    special = [
        [0.0] * 8, [-0.0] * 8, [1.5, -1.5] * 4, [-0.0, 0.0] * 4, [2.0**-1074, -(2.0**-1074)] * 4,
        [math.inf] + [1.0] * 7, [-math.inf] * 8, [math.nan] + [1.0] * 7, [1e308, -1e308] * 4,
    ]
    terms[: len(special)] = special
    expected = np.array([math.fsum(row) for row in terms.tolist()])
    assert specfun._exact_row_sums(terms).tobytes() == expected.tobytes()


def test_log2_det_rows_equal_fsum_on_the_baseline_region_grid():
    # Every sensing row of the region at 5 dB and grid 401; about one row in
    # ten has its terms' double-double sum exactly half-way between floats.
    cfg = baseline_config()
    fractions = np.linspace(0.0, 1.0, 401)
    kappa, mu = np.repeat(fractions, 401), np.tile(fractions, 401)
    on = kappa != 1.0
    c = (1.0 - mu[on]) * db_to_linear(5.0) * cfg.frame_length / ((1.0 - kappa[on]) * cfg.sigma2_s)
    expected = _fsum_oracle(c, cfg.sensing_eigenvalues)
    assert log2_det_i_plus_scaled(c, cfg.sensing_eigenvalues).tolist() == expected
    # A plain left-to-right sum misses some of them.
    terms = np.log1p(c.reshape(-1, 1) * np.sort(cfg.sensing_eigenvalues))
    plain = functools.reduce(np.add, terms.T) / math.log(2.0)
    assert np.count_nonzero(plain != np.array(expected)) > 1000


@pytest.mark.parametrize("tile", [7, 30, 36])
def test_log2_det_rows_equal_fsum_in_row_tiles(tile):
    # 110 rows as a 10 x 11 array in one call, and in tiles of 7, of 30, and
    # of 36 with the last of 2, as a caller that blocks its rows passes them;
    # and 3 * 8192 + 5 rows drawn from them and from a wider range, shuffled,
    # in one call.
    rng = np.random.default_rng(3)
    c = 10.0 ** rng.uniform(-6.0, 9.0, size=(10, 11))
    lam = [5.0, 3.0, 3.5, 2.5, 1e-300, 0.0]
    expected = _fsum_oracle(c.ravel(), lam)
    assert log2_det_i_plus_scaled(c, lam).ravel().tolist() == expected
    rows = c.ravel()
    tiles = [log2_det_i_plus_scaled(rows[i:i + tile], lam) for i in range(0, rows.size, tile)]
    assert np.concatenate(tiles).tolist() == expected
    wide = 10.0 ** rng.uniform(-12.0, 12.0, size=3 * 8192 + 5 - c.size)
    long = rng.permutation(np.concatenate([rows, wide]))
    assert log2_det_i_plus_scaled(long, lam).tolist() == _fsum_oracle(long, lam)


def _compacting_series(z):
    # The Ei(-z) series loop that compacts the live elements after every term.
    out = np.empty_like(z)
    idx = np.arange(z.size)
    total = EULER_GAMMA + specfun._elementwise(math.log, z)
    c = np.ones_like(z)
    for k in range(1, specfun._MAX_ITER):
        c = c * (-z / k)
        term = c / k
        total = total + term
        done = np.abs(term) <= 1e-17 * np.abs(total)
        out[idx[done]] = total[done]
        live = ~done
        idx, z, c, total = idx[live], z[live], c[live], total[live]
        if not idx.size:
            return out
    raise ArithmeticError(f"Ei series did not converge at z={z[0]!r}")


def _compacting_fraction(z):
    # The continued-fraction loop, compacting likewise.
    out = np.empty_like(z)
    idx = np.arange(z.size)
    b = z + 1.0
    c = np.full_like(z, 1.0 / 1e-300)
    d = 1.0 / b
    h = d
    for i in range(1, specfun._MAX_ITER):
        a = -float(i) * float(i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[idx[done]] = h[done]
        live = ~done
        idx, z, b, c, d, h = idx[live], z[live], b[live], c[live], d[live], h[live]
        if not idx.size:
            return out
    raise ArithmeticError(f"E1 continued fraction did not converge at z={z[0]!r}")


def _kernel_arguments():
    # Both cutoffs and their neighbours, a dense log grid, log-spaced z down
    # to the smallest normal (where the series' c underflows) and a dense
    # uniform grid on (0, 5] (where the series stops near k = z), sorted as
    # psi_term passes them, and the same grid shuffled.
    cuts = [specfun._SERIES_CUTOFF, specfun._ASYMPTOTIC_CUTOFF]
    steps = (float, lambda v: np.nextafter(v, 0.0), lambda v: np.nextafter(v, math.inf))
    edges = [f(c) for c in cuts for f in steps]
    grid = np.unique(np.concatenate([
        edges,
        np.logspace(-12.0, 17.0, 4001),
        np.linspace(0.5, 9.0, 1001),
        np.geomspace(sys.float_info.min, 1e-12, 1001),
        np.linspace(0.0, 5.0, 5001)[1:],
    ]))
    low = grid <= specfun._SERIES_CUTOFF
    mid = ~low & (grid < specfun._ASYMPTOTIC_CUTOFF)
    shuffled = np.random.default_rng(4).permutation(grid)
    return grid, [(grid[low], _compacting_series), (grid[mid], _compacting_fraction)], shuffled


@pytest.mark.parametrize("tile", [7, region._TILE])
def test_tiled_ei_equals_the_compacting_kernel(tile):
    # Each branch's arguments sorted, reversed and shuffled, and 3 * 8192 + 5
    # of them drawn with repeats in random order, in one call and in tiles of
    # 7 and of region's tile, as a caller that blocks its ratios passes them.
    grid, branches, shuffled = _kernel_arguments()
    rng = np.random.default_rng(5)
    for (z, old), new in zip(branches, (specfun._ei_neg_series, specfun._e1_scaled_cf)):
        for order in (z, z[::-1], rng.permutation(z), rng.choice(z, 3 * 8192 + 5)):
            expected = old(order).tobytes()
            assert new(order).tobytes() == expected
            tiles = [new(order[i:i + tile]) for i in range(0, order.size, tile)]
            assert np.concatenate(tiles).tobytes() == expected
    # The order of the ratios changes no bits.
    for scaled in (True, False):
        whole = specfun._ei_neg(grid, scaled)[np.searchsorted(grid, shuffled)]
        assert specfun._ei_neg(shuffled, scaled).tobytes() == whole.tobytes()


@pytest.mark.parametrize("branch", [0, 1], ids=["series", "fraction"])
@pytest.mark.parametrize("max_iter", [4, 12])
def test_unconverged_ei_names_the_first_element(monkeypatch, branch, max_iter):
    # Where an element has not converged after _MAX_ITER - 1 steps, the
    # kernel and its compacting form raise and name the first such element.
    monkeypatch.setattr(specfun, "_MAX_ITER", max_iter)
    z, old = _kernel_arguments()[1][branch]
    new = (specfun._ei_neg_series, specfun._e1_scaled_cf)[branch]
    with pytest.raises(ArithmeticError) as expected:
        old(z)
    with pytest.raises(ArithmeticError, match="did not converge") as raised:
        new(z)
    assert str(raised.value) == str(expected.value)


#: Ratios where the continued fraction's update factor sticks at 1 - 2**-53
#: and never rounds to 1; region --p-db -100 --grid-n 401 meets the second,
#: ecr from -160 to -100 dB in steps of 0.01 dB the fifth.  All lie above
#: _ASYMPTOTIC_CUTOFF, so the fraction never sees them.
_STALLED = [
    132635296487.60532, 273446327683.6158, 509744481149.20807, 922794379097.4957,
    7229199075650.937, 459644486579275.6, 3677011876713244.0,
]


def test_psi_term_is_within_an_ulp_where_the_fraction_stalls():
    mpmath = pytest.importorskip("mpmath")
    z = np.array(_STALLED)
    for v in _STALLED:
        with pytest.raises(ArithmeticError, match="did not converge"):
            _compacting_fraction(np.array([v]))
    got = psi_term(z, 1.0).tolist()
    with mpmath.workdps(40):
        for v, value in zip(_STALLED, got):
            exact = -mpmath.exp(v) * mpmath.e1(v)
            assert abs(value - exact) <= math.ulp(float(exact))
    # Continued-fraction elements keep their bits next to them, in one call.
    _, branches, _ = _kernel_arguments()
    mid, old = branches[1]
    at = mid.size // 2
    mixed = specfun._ei_neg(np.concatenate([mid[:at], z, mid[at:]]), scaled=True)
    assert np.delete(mixed, np.arange(at, at + z.size)).tobytes() == (-old(mid)).tobytes()
    assert mixed[at : at + z.size].tolist() == got


def test_stalled_ratios_leave_a_call_equal_to_per_element_calls():
    # The fraction steps on with the live elements only once at most half
    # are live, so a call of 1000 ratios in (5, 1e6), slow and fast ones
    # mixed, gives each ratio the bits of its own call; and psi_term does
    # so over ratios up to 1e15 with the stalled ones among them.
    rng = np.random.default_rng(6)
    z = rng.permutation(np.concatenate([np.geomspace(5.5, 1e15, 1000), _STALLED]))
    assert psi_term(z, 1.0).tolist() == [psi_term(v, 1.0) for v in z.tolist()]
    mid = rng.permutation(np.geomspace(5.5, 9.9e5, 1000))
    assert specfun._e1_scaled_cf(mid).tolist() == [
        specfun._e1_scaled_cf(np.array([v]))[0] for v in mid.tolist()
    ]


def test_psi_term_repeated_ratios_match_scalar_calls():
    chi = np.array([[1.0, 2.0, 1.0], [3.0, 2.0, 1.0], [1e-8, 1e20, 1e-8]])
    scale = np.array([1.0, 2.0, 1.0])
    assert psi_term(chi, scale).tolist() == [
        [psi_term(float(x), float(s)) for x, s in zip(row, scale)] for row in chi
    ]


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.57721566490153286, rel=1e-15)
