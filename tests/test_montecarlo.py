"""Simulation oracles: SINR formulas, estimator statistics and determinism,
and the dense sensing mutual-information identity."""

import dataclasses
import math

import numpy as np
import pytest

import noma_isac.montecarlo as mc
from noma_isac.analytic import outage_probability, sensing_rate, thresholds
from noma_isac.channel import CorrelationMatrix, gain_samples
from noma_isac.config import ISAC, baseline_config, db_to_linear, fdsac
from noma_isac.montecarlo import (
    dual_function_signal,
    estimate_ecr,
    estimate_outage,
    estimate_slope,
    orthogonal_streams,
    sensing_mi_bruteforce,
    sensing_mi_reduced,
)

CFG = baseline_config()
HALF_SPLIT = fdsac(0.5, 0.5)


# -------------------------------------------------------------------- sinrs

def _trial_sinrs(kappa_t, mu_t, p, gain_n, gain_f):
    # The estimators' SINR kernel on a single draw: (sinr_sic, snr_n, sinr_f).
    arrays = mc._sinr_arrays(CFG, kappa_t, mu_t, p, np.array([gain_n]), np.array([gain_f]))
    return tuple(float(a[0]) for a in arrays)


def test_trial_sinrs_zero_draw():
    assert _trial_sinrs(1.0, 1.0, 10.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_trial_sinrs_interference_ceiling():
    sinr_sic, _, sinr_f = _trial_sinrs(1.0, 1.0, 10.0, 1e12, 1e12)
    ceiling = CFG.alpha_f / CFG.alpha_n
    assert ceiling == 4.0
    assert sinr_sic == pytest.approx(ceiling, rel=1e-10)
    assert sinr_sic < ceiling
    assert sinr_f < ceiling


def test_trial_sinrs_formula_point():
    sinr_sic, snr_n, sinr_f = _trial_sinrs(1.0, 1.0, 10.0, 1.0, 0.1)
    assert snr_n == pytest.approx(10.0 * 1.0 * 0.2 / CFG.sigma2_c, rel=1e-15)
    assert sinr_sic == pytest.approx(10.0 * 0.8 / (1.0 + 10.0 * 0.2), rel=1e-15)
    assert sinr_f == pytest.approx(10.0 * 0.1 * 0.8 / (1.0 + 10.0 * 0.1 * 0.2), rel=1e-15)


def test_trial_sinrs_split_mode_scaling():
    _, snr_n, _ = _trial_sinrs(0.5, 0.5, 10.0, 1.0, 0.1)
    noise = 0.5 * CFG.sigma2_c
    assert snr_n == pytest.approx(0.5 * 10.0 * 0.2 / noise, rel=1e-15)


def test_sinr_ceilings_hold_on_random_draws():
    gn, gf = gain_samples(CFG, seed=23, start=0, count=10_000)
    ceiling = CFG.alpha_f / CFG.alpha_n
    for kappa_t, mu_t in ((1.0, 1.0), (0.5, 0.5)):
        sinr_sic, _, sinr_f = mc._sinr_arrays(CFG, kappa_t, mu_t, 100.0, gn, gf)
        assert np.all((0.0 <= sinr_sic) & (sinr_sic < ceiling))
        assert np.all((0.0 <= sinr_f) & (sinr_f < ceiling))


# --------------------------------------------------------------- estimators

def test_estimate_outage_matches_closed_form():
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        p = db_to_linear(snr_db)
        for mode in (ISAC, HALF_SPLIT):
            exact = outage_probability(CFG, mode, p)
            est = estimate_outage(CFG, mode, p, trials=1_000_000, seed=404)
            for value, emp in zip(exact, est):
                se = math.sqrt(value * (1.0 - value) / emp.trials)
                assert abs(value - emp.value) <= 3.0 * se


def test_estimate_outage_infeasible_is_exactly_one():
    cfg = dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55, target_rate_f=2.0)
    assert not thresholds(cfg, ISAC).feasible
    for seed in (1, 2, 3):
        est_n, est_f = estimate_outage(cfg, ISAC, db_to_linear(20.0), trials=20_000, seed=seed)
        assert est_n.value == 1.0 and est_n.std_error == 0.0
        assert est_f.value == 1.0 and est_f.std_error == 0.0


def test_estimate_outage_zero_power_split_is_exactly_one():
    # No communication power: outage is certain even when both target rates
    # are zero, as in the closed form.
    cfg = dataclasses.replace(CFG, target_rate_n=0.0, target_rate_f=0.0)
    mode = fdsac(0.5, 0.0)
    est_n, est_f = estimate_outage(cfg, mode, db_to_linear(10.0), trials=5_000, seed=3)
    assert (est_n.value, est_f.value) == (1.0, 1.0)
    assert est_n.std_error == 0.0 and est_f.std_error == 0.0
    assert (est_n.value, est_f.value) == outage_probability(cfg, mode, db_to_linear(10.0))


def test_estimate_outage_overflowing_threshold_is_exactly_one():
    # 2**(2/0.001) overflows: the threshold is +inf and the estimator still
    # evaluates every decoding event against it.
    cfg = dataclasses.replace(CFG, target_rate_f=2.0)
    est_n, est_f = estimate_outage(cfg, fdsac(0.001, 0.5), 1e6, trials=5_000, seed=3)
    assert (est_n.value, est_f.value) == (1.0, 1.0)
    assert est_n.std_error == 0.0 and est_f.std_error == 0.0


def test_estimate_outage_binomial_stderr():
    est_n, est_f = estimate_outage(CFG, ISAC, db_to_linear(10.0), trials=50_000, seed=5)
    for est in (est_n, est_f):
        assert est.trials == 50_000
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1.0 - est.value) / est.trials), rel=1e-12
        )


def test_estimate_outage_deterministic_and_chunk_invariant(monkeypatch):
    p = db_to_linear(15.0)
    ref = estimate_outage(CFG, ISAC, p, trials=123_457, seed=77)
    again = estimate_outage(CFG, ISAC, p, trials=123_457, seed=77)
    assert ref == again
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    chunked = estimate_outage(CFG, ISAC, p, trials=123_457, seed=77)
    assert chunked == ref


def test_estimate_outage_single_threshold_reduction():
    # On the feasible branch the joint event is one threshold on the ordered
    # near gain: outage  <=>  gain_n < theta * kappa * sigma2_c / (mu * p).
    p = db_to_linear(12.0)
    for mode in (ISAC, HALF_SPLIT):
        th = thresholds(CFG, mode)
        kappa_t, mu_t = (1.0, 1.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)
        gn, gf = gain_samples(CFG, seed=31, start=0, count=50_000)
        cutoff = th.theta * kappa_t * CFG.sigma2_c / (mu_t * p)
        sic, snr_n, _ = mc._sinr_arrays(CFG, kappa_t, mu_t, p, gn, gf)
        joint_outage = ~((sic > th.gamma_bar_f) & (snr_n > th.gamma_bar_n))
        assert np.array_equal(joint_outage, gn < cutoff)


def test_estimate_ecr_matches_closed_form_and_ceiling():
    from noma_isac.analytic import ergodic_rates

    p = db_to_linear(20.0)
    est_n, est_f = estimate_ecr(CFG, ISAC, p, trials=500_000, seed=505)
    exact_n, exact_f = ergodic_rates(CFG, ISAC, p)
    assert abs(est_n.value - exact_n) <= max(3.0 * est_n.std_error, 1e-2)
    assert abs(est_f.value - exact_f) <= max(3.0 * est_f.std_error, 1e-2)
    assert est_f.value < math.log2(1.0 + CFG.alpha_f / CFG.alpha_n)


def test_estimate_ecr_vanishes_at_low_power():
    est_n, est_f = estimate_ecr(CFG, ISAC, 1e-9, trials=10_000, seed=6)
    assert 0.0 < est_n.value < 1e-7
    assert 0.0 < est_f.value < 1e-7


def test_estimate_ecr_deterministic(monkeypatch):
    p = db_to_linear(20.0)
    ref = estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88)
    assert estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88) == ref
    monkeypatch.setattr(mc, "_CHUNK", 9973)
    chunked = estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88)
    for a, b in zip(ref, chunked):
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.std_error == pytest.approx(a.std_error, rel=1e-9)


def test_estimators_with_degenerate_splits():
    est_n, est_f = estimate_outage(CFG, fdsac(0.0, 0.5), 10.0, trials=100, seed=1)
    assert est_n.value == 1.0 and est_f.value == 1.0
    est_n, est_f = estimate_ecr(CFG, fdsac(0.0, 0.5), 10.0, trials=100, seed=1)
    assert est_n.value == 0.0 and est_f.value == 0.0
    est_n, est_f = estimate_outage(CFG, fdsac(0.5, 0.0), 10.0, trials=100, seed=1)
    assert est_n.value == 1.0 and est_f.value == 1.0
    est_n, est_f = estimate_ecr(CFG, fdsac(0.5, 0.0), 10.0, trials=100, seed=1)
    assert est_n.value == 0.0 and est_f.value == 0.0


def test_estimator_argument_errors():
    with pytest.raises(ValueError):
        estimate_outage(CFG, ISAC, 10.0, trials=0, seed=1)
    with pytest.raises(ValueError):
        estimate_ecr(CFG, ISAC, 10.0, trials=0, seed=1)
    with pytest.raises(ValueError):
        estimate_outage(CFG, ISAC, 0.0, trials=10, seed=1)


# ----------------------------------------------------- sensing MI identity

def _random_psd(rng, m):
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return CorrelationMatrix(entries=g @ g.conj().T)


def test_bruteforce_zero_signal():
    corr = _random_psd(np.random.default_rng(1), 3)
    assert sensing_mi_bruteforce(np.zeros(4, dtype=complex), corr, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_bruteforce_dimension_bound():
    corr = _random_psd(np.random.default_rng(2), 8)
    with pytest.raises(ValueError):
        sensing_mi_bruteforce(np.zeros(64, dtype=complex), corr, 1.0)


def test_orthogonal_streams_are_exactly_orthogonal():
    for seed, length in ((1, 4), (2, 8), (3, 30)):
        s = orthogonal_streams(seed, length)
        gram = s @ s.conj().T
        assert np.allclose(gram, length * np.eye(2), atol=1e-12 * length)
        x = dual_function_signal(2.5, CFG.alpha_n, CFG.alpha_f, s)
        assert np.vdot(x, x).real == pytest.approx(2.5 * length, rel=1e-13)


def test_bruteforce_equals_reduced_form_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        length = int(rng.integers(2, 9))
        corr = _random_psd(rng, m)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        brute = sensing_mi_bruteforce(x, corr, 1.3)
        reduced = sensing_mi_reduced(x, corr, 1.3)
        assert brute == pytest.approx(reduced, rel=1e-8)


def test_bruteforce_recovers_spectral_sensing_rate():
    # Diagonal correlation with the baseline spectrum and a unit-power
    # orthogonal stream pair: the stacked MI is L times the sensing rate.
    p = 2.0
    length = CFG.frame_length
    corr = CorrelationMatrix(entries=np.diag(CFG.sensing_eigenvalues).astype(complex))
    x = dual_function_signal(p, CFG.alpha_n, CFG.alpha_f, orthogonal_streams(7, length))
    brute = sensing_mi_bruteforce(x, corr, CFG.sigma2_s)
    assert brute == pytest.approx(length * sensing_rate(CFG, ISAC, p), rel=1e-8)


def test_random_streams_deviation_is_reported_not_asserted(capsys):
    # With i.i.d. (non-orthogonalized) streams the nominal energy p*L is only
    # an O(1/sqrt(L)) approximation of x^H x; report the observed deviation.
    rng = np.random.default_rng(19)
    p, length = 1.5, 30
    s = (rng.normal(size=(2, length)) + 1j * rng.normal(size=(2, length))) / math.sqrt(2.0)
    x = dual_function_signal(p, CFG.alpha_n, CFG.alpha_f, s)
    corr = _random_psd(rng, 4)
    brute = sensing_mi_bruteforce(x, corr, CFG.sigma2_s)
    nominal = math.log2(np.linalg.det(np.eye(4) + p * length * corr.entries / CFG.sigma2_s).real)
    deviation = abs(brute - nominal) / nominal
    print(f"random-stream energy mismatch: relative MI deviation = {deviation:.3e}")
    assert math.isfinite(deviation)


# -------------------------------------------------------------------- slopes

def test_estimate_slope_exact_line():
    pts = [(x, 3.0 - 2.0 * x) for x in (0.0, 0.5, 1.0, 2.0)]
    assert estimate_slope(pts) == pytest.approx(-2.0, abs=1e-12)


def test_estimate_slope_errors():
    with pytest.raises(ValueError):
        estimate_slope([(1.0, 2.0)])
    with pytest.raises(ValueError):
        estimate_slope([(1.0, 2.0), (1.0, 3.0)])


def test_estimate_slope_on_ecr_log2_axis():
    pts = []
    from noma_isac.analytic import ergodic_rates

    for snr_db in np.arange(30.0, 40.5, 2.0):
        p = db_to_linear(snr_db)
        pts.append((math.log2(p), ergodic_rates(CFG, ISAC, p)[0]))
    assert 0.95 <= estimate_slope(pts) <= 1.05
