"""Invariants of the closed forms and the Monte Carlo oracle over random
valid configurations, not only the baseline point."""

from statistics import NormalDist

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_isac.analytic import (
    ergodic_rates,
    ergodic_rates_asymptotic,
    outage_asymptotic,
    outage_probability,
    sensing_rate,
    sensing_rate_asymptotic,
    sum_rate,
    thresholds,
)
from noma_isac.config import ISAC, db_to_linear, fdsac, make_config
from noma_isac.montecarlo import estimate_ecr, estimate_outage
from noma_isac.region import containment_check, fdsac_frontier, isac_corner

_FAST = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def configs(draw):
    alpha_n = draw(st.floats(0.05, 0.45))
    antennas = draw(st.integers(1, 8))
    return make_config(
        rho1=draw(st.floats(0.05, 5.0)),
        rho2=draw(st.floats(0.05, 5.0)),
        alpha_n=alpha_n,
        alpha_f=1.0 - alpha_n,
        sigma2_c=draw(st.floats(0.1, 10.0)),
        sigma2_s=draw(st.floats(0.1, 10.0)),
        num_rx_antennas=antennas,
        frame_length=draw(st.integers(1, 40)),
        target_rate_n=draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 3.0)),
        target_rate_f=draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 3.0)),
        sensing_eigenvalues=draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=antennas)),
    )


_FRACTION = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_MODES = st.just(ISAC) | st.builds(fdsac, _FRACTION, _FRACTION)
_SNR_DB = st.floats(-20.0, 60.0)


@_FAST
@given(configs(), _MODES, _SNR_DB, st.floats(0.5, 20.0))
def test_outage_is_a_probability_nonincreasing_in_power(cfg, mode, snr_db, step_db):
    lo = outage_probability(cfg, mode, db_to_linear(snr_db))
    hi = outage_probability(cfg, mode, db_to_linear(snr_db + step_db))
    for p_lo, p_hi in zip(lo, hi):
        assert 0.0 <= p_hi <= p_lo <= 1.0


@_FAST
@given(configs(), _MODES, st.floats(-20.0, 40.0), st.floats(3.0, 20.0))
def test_ergodic_rates_nondecreasing_in_power(cfg, mode, snr_db, step_db):
    lo = ergodic_rates(cfg, mode, db_to_linear(snr_db))
    hi = ergodic_rates(cfg, mode, db_to_linear(snr_db + step_db))
    for r_lo, r_hi in zip(lo, hi):
        # The far-user rate saturates at -kappa*log2(alpha_n); near the
        # ceiling the closed form's differences of Ei terms move by rounding.
        assert 0.0 <= r_lo <= r_hi + 1e-12


@_FAST
@given(configs(), _SNR_DB)
def test_containment_holds_at_random_powers(cfg, snr_db):
    p = db_to_linear(snr_db)
    report = containment_check(isac_corner(cfg, p), fdsac_frontier(cfg, p, grid_n=11))
    assert report.holds


@_FAST
@given(configs(), _FRACTION, st.booleans(), _SNR_DB)
def test_no_communication_resources_means_certain_outage(cfg, fraction, no_bandwidth, snr_db):
    mode = fdsac(0.0, fraction) if no_bandwidth else fdsac(fraction, 0.0)
    p = db_to_linear(snr_db)
    assert not thresholds(cfg, mode).feasible
    assert outage_probability(cfg, mode, p) == (1.0, 1.0)
    assert outage_asymptotic(cfg, mode, p) == (1.0, 1.0)
    [(est_n, est_f)] = estimate_outage(cfg, mode, [p], trials=200, seed=7)
    assert (est_n.value, est_f.value) == (1.0, 1.0)
    assert est_n.std_error == est_f.std_error == 0.0


_CLOSED_FORMS = (
    outage_probability,
    outage_asymptotic,
    ergodic_rates,
    ergodic_rates_asymptotic,
    sensing_rate,
    sensing_rate_asymptotic,
    sum_rate,
)


@_FAST
@given(configs(), _MODES, st.lists(st.floats(-100.0, 300.0), min_size=1, max_size=12))
def test_power_grid_equals_per_power_calls(cfg, mode, grid_db):
    # One call over an array of powers gives, bit for bit, the floats that
    # one call per power gives.
    powers = db_to_linear(grid_db)
    for closed_form in _CLOSED_FORMS:
        on_grid = closed_form(cfg, mode, powers)
        per_power = [closed_form(cfg, mode, p) for p in powers.tolist()]
        if isinstance(on_grid, tuple):
            assert all(isinstance(v, float) for pair in per_power for v in pair)
            assert [column.tolist() for column in on_grid] == [list(c) for c in zip(*per_power)]
        else:
            assert all(isinstance(v, float) for v in per_power)
            assert on_grid.tolist() == per_power


@_FAST
@given(configs(), st.lists(_SNR_DB, min_size=1, max_size=8))
def test_integrated_sensing_is_the_empty_split(cfg, grid_db):
    powers = db_to_linear(grid_db)
    for closed_form in (sensing_rate, sensing_rate_asymptotic):
        assert np.array_equal(closed_form(cfg, ISAC, powers), closed_form(cfg, fdsac(0.0, 0.0), powers))


# Monte Carlo against the closed forms.  Each example draws one config, one
# mode and up to four powers and compares near and far user for outage and
# ergodic rate: at most _COMPARISONS tests over the 25 examples, each held
# to the two-sided Bonferroni |z| bound for a family-wise error of 1e-6
# (about 6.0).  Outage is compared only where the expected outage and
# non-outage counts are both at least 10, so the normal approximation holds;
# ergodic rates use the band max(z * SE, 1e-2) of acceptance criterion 2,
# with z in place of its 3.  Fractions below 0.05 are left out: a vanishing
# sub-band carries no rate to compare.
_MC_TRIALS = 200_000
_COMPARISONS = 25 * 4 * 2 * 2
_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * _COMPARISONS))
_MC_FRACTION = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 1.0)
_MC_MODES = st.just(ISAC) | st.builds(fdsac, _MC_FRACTION, _MC_FRACTION)
_MC_GRID_DB = st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=4)


@_FAST
@given(configs(), _MC_MODES, _MC_GRID_DB, st.integers(0, 2**32))
def test_monte_carlo_agrees_with_the_closed_forms(cfg, mode, grid_db, seed):
    powers = db_to_linear(grid_db)
    outages = estimate_outage(cfg, mode, powers.tolist(), _MC_TRIALS, seed)
    rates = estimate_ecr(cfg, mode, powers.tolist(), _MC_TRIALS, seed)
    closed_outages = zip(*outage_probability(cfg, mode, powers))
    closed_rates = zip(*ergodic_rates(cfg, mode, powers))
    for closed, estimates in zip(closed_outages, outages):
        for value, est in zip(closed, estimates):
            if min(value, 1.0 - value) * _MC_TRIALS >= 10.0:
                se = (value * (1.0 - value) / _MC_TRIALS) ** 0.5
                assert abs(est.value - value) <= _Z_BOUND * se
    for closed, estimates in zip(closed_rates, rates):
        for value, est in zip(closed, estimates):
            assert abs(est.value - value) <= max(_Z_BOUND * est.std_error, 1e-2)
