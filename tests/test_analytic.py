"""Closed forms and asymptotics against Monte Carlo estimates, dense linear
algebra, and the slope/diversity reference behaviour."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noma_isac.analytic import (
    _noise_ratio,
    _ratio_chis,
    ergodic_rates,
    ergodic_rates_asymptotic,
    outage_asymptotic,
    outage_probability,
    reference_table,
    sensing_rate,
    sensing_rate_asymptotic,
    sum_rate,
    thresholds,
)
from noma_isac.config import ISAC, baseline_config, comm_factors, db_to_linear, fdsac
from noma_isac.montecarlo import estimate_ecr, estimate_outage, estimate_slope
from noma_isac.region import fdsac_frontier, isac_corner
from noma_isac.specfun import EULER_GAMMA

CFG = baseline_config()
HALF_SPLIT = fdsac(0.5, 0.5)


# ---------------------------------------------------------------- thresholds

def test_thresholds_baseline_values():
    th = thresholds(CFG, ISAC)
    gbar = 2.0**0.8 - 1.0
    assert th.gamma_bar_n == pytest.approx(gbar, rel=1e-15)
    assert th.gamma_bar_f == pytest.approx(gbar, rel=1e-15)
    assert gbar == pytest.approx(0.741101, abs=1e-6)
    assert th.feasible
    assert th.vartheta == pytest.approx(gbar / (0.8 - 0.2 * gbar), rel=1e-15)
    assert th.vartheta == pytest.approx(1.13704, abs=1e-5)
    assert th.theta == pytest.approx(max(gbar / 0.2, th.vartheta), rel=1e-15)


def test_thresholds_zero_rate():
    cfg = dataclasses.replace(CFG, target_rate_n=0.0, target_rate_f=0.0)
    th = thresholds(cfg, ISAC)
    assert th.gamma_bar_n == 0.0 and th.gamma_bar_f == 0.0
    assert th.feasible and th.vartheta == 0.0 and th.theta == 0.0


def test_thresholds_bandwidth_squeeze():
    th = thresholds(CFG, HALF_SPLIT)
    assert th.gamma_bar_f == pytest.approx(2.0**1.6 - 1.0, rel=1e-15)
    assert th.theta >= th.vartheta > 0.0


def test_thresholds_zero_bandwidth_errors():
    # Zero bandwidth: a positive rate needs an infinite SINR, a zero rate
    # none; either way nothing is decoded, so the mode is infeasible.
    th = thresholds(CFG, fdsac(0.0, 0.5))
    assert th.gamma_bar_n == math.inf and th.gamma_bar_f == math.inf
    assert not th.feasible and th.vartheta == math.inf and th.theta == math.inf
    cfg = dataclasses.replace(CFG, target_rate_n=0.0, target_rate_f=0.0)
    th = thresholds(cfg, fdsac(0.0, 0.5))
    assert th.gamma_bar_n == 0.0 and th.gamma_bar_f == 0.0
    assert not th.feasible
    # Zero power keeps the thresholds but is infeasible too.
    th = thresholds(cfg, fdsac(0.5, 0.0))
    assert th.gamma_bar_n == 0.0 and th.gamma_bar_f == 0.0
    assert not th.feasible and th.theta == math.inf


def test_thresholds_overflow_to_infinity():
    # 2**(2/0.001) overflows a float: the threshold is +inf, not an error.
    cfg = dataclasses.replace(CFG, target_rate_f=2.0)
    th = thresholds(cfg, fdsac(0.001, 0.5))
    assert th.gamma_bar_f == math.inf and not th.feasible
    assert th.gamma_bar_n == 2.0 ** (0.8 / 0.001) - 1.0
    assert outage_probability(cfg, fdsac(0.001, 0.5), 1e6) == (1.0, 1.0)


def test_chi_set_values():
    chi1, chi2, chi3 = _ratio_chis(CFG, _noise_ratio(CFG, *comm_factors(ISAC)))
    assert chi1 == pytest.approx(1.0 / 0.9, rel=1e-15)
    assert chi2 == pytest.approx(1.0 / 0.2, rel=1e-15)
    assert chi3 == pytest.approx(1.1 / 0.18, rel=1e-15)
    half = _ratio_chis(CFG, _noise_ratio(CFG, *comm_factors(HALF_SPLIT)))
    assert half[0] == pytest.approx(chi1, rel=1e-15)


# ------------------------------------------------------------------- outage

def test_outage_infeasible_allocation_is_certain():
    cfg = dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55, target_rate_f=2.0)
    th = thresholds(cfg, ISAC)
    assert not th.feasible
    assert outage_probability(cfg, ISAC, db_to_linear(30.0)) == (1.0, 1.0)
    assert outage_asymptotic(cfg, ISAC, db_to_linear(30.0)) == (1.0, 1.0)


def test_outage_vanishes_at_high_power():
    pn, pf = outage_probability(CFG, ISAC, 1e12)
    assert 0.0 <= pn < 1e-17
    assert 0.0 <= pf < 1e-8


def test_outage_closed_form_matches_monte_carlo_at_30db():
    p = db_to_linear(30.0)
    for mode in (ISAC, HALF_SPLIT):
        exact = outage_probability(CFG, mode, p)
        emp, _ = estimate_outage(CFG, mode, p, trials=10_000_000, seed=101)
        for value, est in zip(exact, emp.tolist()):
            se = math.sqrt(value * (1.0 - value) / 10_000_000)
            assert abs(value - est) <= 3.0 * se


def test_outage_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        outage_probability(CFG, ISAC, 0.0)
    with pytest.raises(ValueError):
        outage_asymptotic(CFG, ISAC, -1.0)


@pytest.mark.parametrize("p", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: outage_probability(CFG, HALF_SPLIT, p),
        lambda p: outage_asymptotic(CFG, HALF_SPLIT, p),
        lambda p: ergodic_rates(CFG, HALF_SPLIT, p),
        lambda p: ergodic_rates_asymptotic(CFG, HALF_SPLIT, p),
        lambda p: sensing_rate(CFG, HALF_SPLIT, p),
        lambda p: sensing_rate_asymptotic(CFG, HALF_SPLIT, p),
        lambda p: isac_corner(CFG, p),
        lambda p: fdsac_frontier(CFG, p, 3),
        lambda p: estimate_outage(CFG, HALF_SPLIT, p, trials=10, seed=1),
        lambda p: estimate_ecr(CFG, HALF_SPLIT, p, trials=10, seed=1),
    ],
    ids=[
        "outage_probability",
        "outage_asymptotic",
        "ergodic_rates",
        "ergodic_rates_asymptotic",
        "sensing_rate",
        "sensing_rate_asymptotic",
        "isac_corner",
        "fdsac_frontier",
        "estimate_outage",
        "estimate_ecr",
    ],
)
def test_power_must_be_finite(call, p):
    with pytest.raises(ValueError, match="p must be positive and finite"):
        call(p)


def test_closed_forms_follow_the_shape_of_the_powers():
    powers = db_to_linear(np.array([[0.0, 10.0, 20.0], [25.0, 30.0, 40.0]]))
    for mode in (ISAC, HALF_SPLIT):
        for pair in (outage_probability, outage_asymptotic, ergodic_rates, ergodic_rates_asymptotic):
            for column in pair(CFG, mode, powers):
                assert column.shape == powers.shape
        for single in (sensing_rate, sensing_rate_asymptotic, sum_rate):
            assert single(CFG, mode, powers).shape == powers.shape
            assert isinstance(single(CFG, mode, 10.0), float)


def test_one_bad_power_in_a_grid_is_rejected():
    with pytest.raises(ValueError, match="p must be positive and finite"):
        ergodic_rates(CFG, ISAC, np.array([1.0, 10.0, math.inf]))
    with pytest.raises(ValueError, match="p must be positive and finite"):
        outage_probability(CFG, HALF_SPLIT, [1.0, 0.0])


def test_outage_asymptote_overflows_beyond_1541_db():
    assert math.isfinite(outage_asymptotic(CFG, ISAC, db_to_linear(1540.0))[0])
    with pytest.raises(OverflowError):
        outage_asymptotic(CFG, ISAC, db_to_linear([1540.0, 1545.0]))


def test_outage_asymptote_scaling_is_exact():
    for mode in (ISAC, HALF_SPLIT):
        for p in (10.0, 250.0, 4096.0):
            an1, af1 = outage_asymptotic(CFG, mode, p)
            an2, af2 = outage_asymptotic(CFG, mode, 2.0 * p)
            assert an1 / an2 == 4.0
            assert af1 / af2 == 2.0


def test_outage_asymptote_tracks_exact_at_40db():
    p = db_to_linear(40.0)
    exact = outage_probability(CFG, ISAC, p)
    asym = outage_asymptotic(CFG, ISAC, p)
    assert asym[0] / exact[0] == pytest.approx(1.0, abs=0.02)
    assert asym[1] / exact[1] == pytest.approx(1.0, abs=0.02)


def test_fdsac_asymptote_is_a_formula_substitution():
    # chi_b = kappa*sigma2_c/(mu*rho_b): the same for the integrated mode and
    # the even split, with rho3 = 0.18/1.1.
    chi1, chi2, chi3 = 1.0 / 0.9, 1.0 / 0.2, 1.1 / 0.18
    p = 500.0
    for mode in (ISAC, HALF_SPLIT):
        th = thresholds(CFG, mode)
        an, af = outage_asymptotic(CFG, mode, p)
        assert an == pytest.approx(chi1 * chi2 * th.theta**2 / p**2, rel=1e-15)
        assert af == pytest.approx(chi3 * th.vartheta / p, rel=1e-15)


def test_outage_strictly_decreasing_in_power():
    for mode in (ISAC, HALF_SPLIT):
        values = [outage_probability(CFG, mode, db_to_linear(s)) for s in np.arange(0.0, 41.0, 2.0)]
        for (n1, f1), (n2, f2) in zip(values, values[1:]):
            assert n2 < n1
            assert f2 < f1


# ------------------------------------------------------------ ergodic rates

def test_ergodic_rates_vanish_at_low_power():
    ecr_n, ecr_f = ergodic_rates(CFG, ISAC, 1e-9)
    assert 0.0 < ecr_n < 1e-8
    assert 0.0 < ecr_f < 1e-8


def test_ergodic_rates_match_monte_carlo_at_20db():
    p = db_to_linear(20.0)
    for mode in (ISAC, HALF_SPLIT):
        exact = ergodic_rates(CFG, mode, p)
        emp, std_error = estimate_ecr(CFG, mode, p, trials=1_000_000, seed=202)
        for value, est, se in zip(exact, emp.tolist(), std_error.tolist()):
            assert abs(value - est) <= max(3.0 * se, 1e-2)


def test_far_user_rate_saturates_at_power_ratio():
    ceiling = -math.log2(CFG.alpha_n)
    assert ceiling == pytest.approx(math.log2(5.0), rel=1e-15)
    _, ecr_f = ergodic_rates(CFG, ISAC, db_to_linear(50.0))
    assert abs(ecr_f - ceiling) < 0.05


def test_far_user_rate_bounded_by_ceiling_everywhere():
    ceiling = -math.log2(CFG.alpha_n)
    for snr_db in np.arange(-10.0, 61.0, 2.0):
        _, ecr_f = ergodic_rates(CFG, ISAC, db_to_linear(snr_db))
        assert ecr_f <= ceiling
        kappa = 0.5
        _, ecr_f_split = ergodic_rates(CFG, HALF_SPLIT, db_to_linear(snr_db))
        assert ecr_f_split <= kappa * ceiling + 1e-12


def test_ergodic_rates_nondecreasing_in_power():
    grid = [db_to_linear(s) for s in np.arange(-10.0, 51.0, 1.0)]
    for mode in (ISAC, HALF_SPLIT):
        values = [ergodic_rates(CFG, mode, p) for p in grid]
        for (n1, f1), (n2, f2) in zip(values, values[1:]):
            assert n2 >= n1
            assert f2 >= f1


def test_ergodic_asymptote_power_step_slopes():
    for p in (100.0, 1024.0):
        isac_diff = (
            ergodic_rates_asymptotic(CFG, ISAC, 4.0 * p)[0]
            - ergodic_rates_asymptotic(CFG, ISAC, p)[0]
        )
        assert isac_diff == pytest.approx(2.0, abs=1e-12)
        split_diff = (
            ergodic_rates_asymptotic(CFG, HALF_SPLIT, 4.0 * p)[0]
            - ergodic_rates_asymptotic(CFG, HALF_SPLIT, p)[0]
        )
        assert split_diff == pytest.approx(1.0, abs=1e-12)
        # The far-user asymptote is flat in p.
        assert ergodic_rates_asymptotic(CFG, ISAC, 4.0 * p)[1] == ergodic_rates_asymptotic(CFG, ISAC, p)[1]


def test_ergodic_asymptote_tracks_exact_at_40db():
    p = db_to_linear(40.0)
    exact_n, _ = ergodic_rates(CFG, ISAC, p)
    asym_n, _ = ergodic_rates_asymptotic(CFG, ISAC, p)
    assert abs(exact_n - asym_n) < 0.02


@pytest.mark.parametrize(
    "fields", [{"sigma2_c": 5e-323}, {"sigma2_c": 5e-323, "rho1": 1e300}], ids=["subnormal", "zero"]
)
@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT])
def test_ergodic_asymptote_survives_an_underflowing_offset(fields, mode):
    # kappa * sigma2_c / (mu * alpha_n * (rho1 + rho2)) is subnormal or 0; its
    # log2 comes from its factors instead.
    cfg = dataclasses.replace(CFG, **fields)
    kappa, mu = comm_factors(mode)
    ratio = Fraction(kappa) * Fraction(cfg.sigma2_c) / (
        Fraction(mu) * Fraction(cfg.alpha_n) * Fraction(cfg.rho1 + cfg.rho2)
    )
    log2_offset = math.log2(ratio.numerator) - math.log2(ratio.denominator)
    p = db_to_linear(20.0)
    expected = kappa * (math.log2(p) - EULER_GAMMA / math.log(2.0) - log2_offset)
    assert ergodic_rates_asymptotic(cfg, mode, p)[0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("sigma2_c,kappa", [(5e-323, 1e-5), (1e-5, 1e-320)])
def test_ergodic_rates_raise_where_chi_underflows_to_zero(sigma2_c, kappa):
    # kappa * sigma2_c rounds to 0, where Ei(-chi/scale) is undefined.
    cfg = dataclasses.replace(CFG, sigma2_c=sigma2_c)
    with pytest.raises(FloatingPointError, match="underflow to 0"):
        ergodic_rates(cfg, fdsac(kappa, 0.5), 10.0)


def test_zero_resource_split_gives_zero_rates():
    assert ergodic_rates(CFG, fdsac(0.0, 0.5), 10.0) == (0.0, 0.0)
    assert ergodic_rates(CFG, fdsac(0.5, 0.0), 10.0) == (0.0, 0.0)
    assert outage_probability(CFG, fdsac(0.5, 0.0), 10.0) == (1.0, 1.0)
    assert ergodic_rates_asymptotic(CFG, fdsac(0.0, 0.5), 10.0) == (0.0, 0.0)


# ------------------------------------------------------------- sensing rate

def test_sensing_rate_zero_spectrum():
    cfg = dataclasses.replace(CFG, sensing_eigenvalues=(0.0,) * 8)
    assert sensing_rate(cfg, ISAC, 10.0) == 0.0
    assert sensing_rate_asymptotic(cfg, ISAC, 10.0) == 0.0


def test_sensing_rate_full_split_equals_integrated_exactly():
    for p in (0.5, 1.0, db_to_linear(25.0)):
        assert sensing_rate(CFG, fdsac(0.0, 0.0), p) == sensing_rate(CFG, ISAC, p)


def test_sensing_rate_against_dense_logdet_oracle():
    rng = np.random.default_rng(31)
    lam = np.asarray(CFG.sensing_eigenvalues)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(g)
    r = (q * lam) @ q.conj().T
    p = 1.0
    c = p * CFG.frame_length / CFG.sigma2_s
    _, logdet = np.linalg.slogdet(np.eye(8) + c * r)
    expected = logdet / math.log(2.0) / CFG.frame_length
    assert sensing_rate(CFG, ISAC, p) == pytest.approx(expected, rel=1e-9)


def test_sensing_rate_degenerate_splits():
    assert sensing_rate(CFG, fdsac(1.0, 1.0), 10.0) == 0.0
    assert sensing_rate(CFG, fdsac(1.0, 0.2), 10.0) == 0.0
    assert sensing_rate(CFG, fdsac(0.3, 1.0), 10.0) == 0.0
    assert sensing_rate_asymptotic(CFG, fdsac(0.3, 1.0), 10.0) == 0.0
    with pytest.raises(ValueError):
        sensing_rate(CFG, ISAC, 0.0)


def test_sensing_asymptote_power_step_slopes():
    p = db_to_linear(30.0)
    diff_isac = sensing_rate_asymptotic(CFG, ISAC, 4.0 * p) - sensing_rate_asymptotic(CFG, ISAC, p)
    assert diff_isac == pytest.approx(16.0 / 30.0, abs=1e-12)
    diff_split = sensing_rate_asymptotic(CFG, HALF_SPLIT, 4.0 * p) - sensing_rate_asymptotic(
        CFG, HALF_SPLIT, p
    )
    assert diff_split == pytest.approx(8.0 / 30.0, abs=1e-12)


def _exact_log2_snr(kappa, mu, v, frame_length, sigma2_s):
    # log2 of (1 - mu) * v * L / ((1 - kappa) * sigma2_s) from the exact
    # rational value: math.log2 takes integers of any size.
    ratio = Fraction(1.0 - mu) * Fraction(v) * frame_length / (Fraction(1.0 - kappa) * Fraction(sigma2_s))
    return math.log2(ratio.numerator) - math.log2(ratio.denominator)


@pytest.mark.parametrize(
    "eigenvalues,frame_length,sigma2_s,mode",
    [((5e-324, 9.97), 17, 5.54, HALF_SPLIT), ((1e-300, 9.97), 30, 1e300, ISAC)],
    ids=["subnormal-eigenvalue", "huge-noise"],
)
def test_sensing_asymptote_survives_an_underflowing_snr(eigenvalues, frame_length, sigma2_s, mode):
    # (1 - mu) * v * L / ((1 - kappa) * sigma2_s) underflows to 0 for the
    # first eigenvalue; its log2 comes from its factors instead.
    cfg = dataclasses.replace(
        CFG, sensing_eigenvalues=eigenvalues, frame_length=frame_length, sigma2_s=sigma2_s
    )
    kappa, mu = (0.0, 0.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)
    const = sum(_exact_log2_snr(kappa, mu, v, frame_length, sigma2_s) for v in eigenvalues)
    p = db_to_linear(20.0)
    expected = (1.0 - kappa) * (2 * math.log2(p) + const) / frame_length
    assert sensing_rate_asymptotic(cfg, mode, p) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT, fdsac(0.3, 0.9)])
def test_sensing_asymptote_keeps_its_bits_where_the_snr_is_normal(mode):
    kappa, mu = (0.0, 0.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)
    lam, big_l = sorted(CFG.sensing_eigenvalues), CFG.frame_length
    const = math.fsum(math.log2((1.0 - mu) * v * big_l / ((1.0 - kappa) * CFG.sigma2_s)) for v in lam)
    p = [1.0, db_to_linear(13.0), 1e9]
    slope = (1.0 - kappa) * len(lam) / big_l
    expected = [slope * math.log2(x) + (1.0 - kappa) * const / big_l for x in p]
    assert sensing_rate_asymptotic(CFG, mode, np.array(p)).tolist() == expected


def test_sensing_asymptote_tracks_exact_at_40db():
    p = db_to_linear(40.0)
    assert abs(sensing_rate(CFG, ISAC, p) - sensing_rate_asymptotic(CFG, ISAC, p)) < 1e-3


def test_sensing_rate_concave_nondecreasing_in_power():
    # Concavity in linear power, probed on a log-spaced grid: the divided
    # differences with respect to p must be positive and nonincreasing.
    powers = np.asarray([db_to_linear(s) for s in np.arange(0.0, 41.0, 2.0)])
    values = np.asarray([sensing_rate(CFG, ISAC, p) for p in powers])
    slopes = np.diff(values) / np.diff(powers)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(np.diff(slopes) <= 1e-12)


# -------------------------------------------------- mode equivalence + misc

def test_full_split_matches_integrated_communication():
    full = fdsac(1.0, 1.0)
    for snr_db in np.arange(0.0, 41.0, 5.0):
        p = db_to_linear(snr_db)
        for a, b in zip(outage_probability(CFG, ISAC, p), outage_probability(CFG, full, p)):
            assert b == pytest.approx(a, rel=1e-12)
        for a, b in zip(ergodic_rates(CFG, ISAC, p), ergodic_rates(CFG, full, p)):
            assert b == pytest.approx(a, rel=1e-12)
        for a, b in zip(
            ergodic_rates_asymptotic(CFG, ISAC, p), ergodic_rates_asymptotic(CFG, full, p)
        ):
            assert b == pytest.approx(a, rel=1e-12)
    # Sensing is the designed exception: a full communication split leaves no
    # sensing resources, while the integrated mode reuses the whole frame.
    p = db_to_linear(10.0)
    assert sensing_rate(CFG, full, p) == 0.0
    assert sensing_rate(CFG, ISAC, p) > 0.0


def test_diversity_orders_from_log_log_slopes():
    for mode in (ISAC, HALF_SPLIT):
        pts_n = []
        pts_f = []
        for snr_db in np.arange(30.0, 40.5, 1.0):
            p = db_to_linear(snr_db)
            pn, pf = outage_probability(CFG, mode, p)
            pts_n.append((snr_db / 10.0, math.log10(pn)))
            pts_f.append((snr_db / 10.0, math.log10(pf)))
        assert -2.15 <= estimate_slope(pts_n) <= -1.85
        assert -1.1 <= estimate_slope(pts_f) <= -0.9


def test_closed_forms_hold_away_from_the_baseline():
    from noma_isac.config import SystemConfig

    rng = np.random.default_rng(55)
    for _ in range(3):
        alpha_n = float(rng.uniform(0.05, 0.45))
        cfg = SystemConfig(
            rho1=float(10.0 ** rng.uniform(-1.0, 0.5)),
            rho2=float(10.0 ** rng.uniform(-1.0, 0.5)),
            alpha_n=alpha_n,
            alpha_f=1.0 - alpha_n,
            sigma2_c=float(rng.uniform(0.5, 2.0)),
            target_rate_n=float(rng.uniform(0.2, 1.5)),
            target_rate_f=float(rng.uniform(0.2, 1.5)),
            sensing_eigenvalues=tuple(rng.uniform(0.0, 4.0, size=6)),
        )
        mode = fdsac(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0)))
        p = db_to_linear(float(rng.uniform(5.0, 25.0)))
        exact_out = outage_probability(cfg, mode, p)
        emp_out, _ = estimate_outage(cfg, mode, p, trials=200_000, seed=808)
        for value, est in zip(exact_out, emp_out.tolist()):
            se = math.sqrt(max(value * (1.0 - value), 1e-12) / 200_000)
            assert abs(value - est) <= 3.5 * se
        exact_ecr = ergodic_rates(cfg, mode, p)
        emp_ecr, std_error = estimate_ecr(cfg, mode, p, trials=200_000, seed=808)
        for value, est, se in zip(exact_ecr, emp_ecr.tolist(), std_error.tolist()):
            assert abs(value - est) <= max(3.5 * se, 1e-2)


def test_sum_rate_adds_ergodic_rates():
    p = db_to_linear(10.0)
    ecr_n, ecr_f = ergodic_rates(CFG, ISAC, p)
    assert ecr_n > 0.0 and ecr_f > 0.0 and sensing_rate(CFG, ISAC, p) > 0.0
    assert sum_rate(CFG, ISAC, p) == ecr_n + ecr_f


def test_reference_table_entries():
    isac_row, fdsac_row = reference_table(CFG, kappa=0.5)
    assert isac_row.system == "isac"
    assert (isac_row.diversity_nu, isac_row.slope_nu) == (2.0, 1.0)
    assert (isac_row.diversity_fu, isac_row.slope_fu) == (1.0, 0.0)
    assert isac_row.slope_sum == 1.0
    assert isac_row.slope_sensing == pytest.approx(8.0 / 30.0, rel=1e-15)
    assert fdsac_row.system == "fdsac"
    assert (fdsac_row.diversity_fu, fdsac_row.slope_fu) == (1.0, 0.0)
    assert fdsac_row.slope_nu == 0.5 and fdsac_row.slope_sum == 0.5
    assert fdsac_row.slope_sensing == pytest.approx(0.5 * 8.0 / 30.0, rel=1e-15)


@pytest.mark.parametrize(
    "closed_form,floats_per_power",
    [(outage_probability, 4), (ergodic_rates, 19), (sensing_rate, 23)],
    ids=["outage_probability", "ergodic_rates", "sensing_rate"],
)
def test_closed_form_traced_peak_per_power(closed_form, floats_per_power):
    # The kernels hold whole-array temporaries, so a call's peak grows with
    # its own arrays.  At 100,000 powers over -100 to 100 dB the peaks are
    # 24, 118 and 147 bytes a power (the sensing row sums hold a powers x 8
    # terms matrix and seven row buffers); each bound is that plus 25%,
    # rounded up to a float64.
    p = db_to_linear(np.linspace(-100.0, 100.0, 100_000))
    closed_form(CFG, ISAC, p[:10])
    tracemalloc.start()
    try:
        closed_form(CFG, ISAC, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / p.size <= floats_per_power * 8
