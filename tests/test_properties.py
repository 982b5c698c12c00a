"""Invariants of the closed forms and the Monte Carlo oracle over random
valid configurations, not only the baseline point."""

from hypothesis import given, settings
from hypothesis import strategies as st

from noma_isac.analytic import ergodic_rates, outage_probability, thresholds
from noma_isac.config import ISAC, db_to_linear, fdsac, make_config
from noma_isac.montecarlo import estimate_outage
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
    est_n, est_f = estimate_outage(cfg, mode, p, trials=200, seed=7)
    assert (est_n.value, est_f.value) == (1.0, 1.0)
    assert est_n.std_error == est_f.std_error == 0.0
