"""Invariants of the closed forms and the Monte Carlo oracle over random
valid configurations, not only the baseline point."""

import contextlib
import dataclasses
import io
import os
import re
import tempfile
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_isac.analytic import (
    ergodic_rates,
    ergodic_rates_asymptotic,
    outage_asymptotic,
    outage_probability,
    sensing_rate,
    sensing_rate_asymptotic,
    split_ergodic_rates,
    split_sensing_rate,
    sum_rate,
    thresholds,
)
import noma_isac.montecarlo as mc
from noma_isac.cli import dump_config, load_config_file, main
from noma_isac.config import ISAC, SystemConfig, baseline_config, db_to_linear, fdsac
from noma_isac.montecarlo import estimate_ecr, estimate_outage
from noma_isac.region import containment_check, fdsac_frontier, isac_corner
from test_montecarlo import _per_trial_outages, _reference_sinrs

_FAST = settings(derandomize=True, max_examples=25, deadline=None, database=None)
_BASELINE = baseline_config()


#: Valid but extreme noise powers and gain parameters: subnormal, tiny
#: normal, and huge.
_EXTREMES = st.sampled_from([5e-323, 5e-308, 1e-300, 1e300])


@st.composite
def configs(draw, extreme=False):
    # With extreme, sigma2_c, sigma2_s, rho1 and rho2 may take _EXTREMES, and
    # one receive antenna is drawn often.
    def scalar(lo, hi):
        return draw(_EXTREMES | st.floats(lo, hi) if extreme else st.floats(lo, hi))

    alpha_n = draw(st.floats(0.05, 0.45))
    antennas = draw(st.just(1) | st.integers(1, 8) if extreme else st.integers(1, 8))
    return SystemConfig(
        rho1=scalar(0.05, 5.0),
        rho2=scalar(0.05, 5.0),
        alpha_n=alpha_n,
        alpha_f=1.0 - alpha_n,
        sigma2_c=scalar(0.1, 10.0),
        sigma2_s=scalar(0.1, 10.0),
        num_rx_antennas=antennas,
        frame_length=draw(st.integers(1, 40)),
        target_rate_n=draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 3.0)),
        target_rate_f=draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 3.0)),
        sensing_eigenvalues=draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=antennas)),
    )


@_FAST
@given(configs())
def test_dump_config_round_trips(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        assert load_config_file(path) == cfg


_FRACTION = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_MODES = st.just(ISAC) | st.builds(fdsac, _FRACTION, _FRACTION)
_SNR_DB = st.floats(-20.0, 60.0)


def _under_fault_rule(call, *args):
    # The call's result under the CLI's rule for float faults, where every
    # fault but underflow raises, or None where it raises FloatingPointError.
    with np.errstate(all="raise", under="ignore"):
        try:
            return call(*args)
        except FloatingPointError:
            return None


@_FAST
@given(configs(), _MODES, _SNR_DB, st.floats(0.5, 20.0))
@example(_BASELINE, fdsac(1.0, 5e-324), 0.0, 3.0)  # chi overflows at every power
def test_outage_is_a_probability_nonincreasing_in_power(cfg, mode, snr_db, step_db):
    lo = _under_fault_rule(outage_probability, cfg, mode, db_to_linear(snr_db))
    hi = _under_fault_rule(outage_probability, cfg, mode, db_to_linear(snr_db + step_db))
    assert (lo is None) == (hi is None)
    for p_lo, p_hi in zip(lo or (), hi or ()):
        assert 0.0 <= p_hi <= p_lo <= 1.0


@_FAST
@given(configs(), _MODES, st.floats(-20.0, 40.0), st.floats(3.0, 20.0))
@example(_BASELINE, fdsac(1.0, 5e-324), 0.0, 3.0)  # chi overflows at every power
def test_ergodic_rates_nondecreasing_in_power(cfg, mode, snr_db, step_db):
    lo = _under_fault_rule(ergodic_rates, cfg, mode, db_to_linear(snr_db))
    hi = _under_fault_rule(ergodic_rates, cfg, mode, db_to_linear(snr_db + step_db))
    assert (lo is None) == (hi is None)
    for r_lo, r_hi in zip(lo or (), hi or ()):
        # The far-user rate saturates at -kappa*log2(alpha_n); near the
        # ceiling the closed form's differences of Ei terms move by rounding.
        assert 0.0 <= r_lo <= r_hi + 1e-12


@_FAST
@given(configs(), _SNR_DB)
def test_containment_holds_at_random_powers(cfg, snr_db):
    p = db_to_linear(snr_db)
    corner = _under_fault_rule(isac_corner, cfg, p)
    frontier = _under_fault_rule(fdsac_frontier, cfg, p, 11)
    assert (corner is None) == (frontier is None)
    assert corner is None or containment_check(corner, frontier).holds


@_FAST
@given(configs(), st.integers(2, 15), _SNR_DB)
@example(_BASELINE, 15, 5.0)
def test_frontier_points_equal_one_point_calls(cfg, grid_n, snr_db):
    # The frontier evaluates each distinct kappa*sigma2_c/mu once and gathers
    # the rates back to the grid.  Each of its points equals, bit for bit, a
    # call at that (kappa, mu) alone with p as a one-element array, which
    # evaluates without deduplicating.  Every grid repeats ratios (kappa = mu,
    # and i/j = 2i/2j from grid_n = 5 on) and holds the kappa = 1 and mu = 1
    # edges.
    p = db_to_linear(snr_db)
    with np.errstate(all="raise", under="ignore"):
        frontier = fdsac_frontier(cfg, p, grid_n)
        kappa = np.repeat(frontier.fractions, grid_n)
        mu = np.tile(frontier.fractions, grid_n)
        splits = list(zip(kappa.tolist(), mu.tolist()))
        rate_s = [split_sensing_rate(cfg, kappa, mu, [p]) for kappa, mu in splits]
        rates = [split_ergodic_rates(cfg, kappa, mu, [p]) for kappa, mu in splits]
    assert kappa[-1] == mu[-1] == 1.0
    assert frontier.rate_s.tobytes() == np.concatenate(rate_s).tobytes()
    assert frontier.rate_c.tobytes() == np.concatenate([n + f for n, f in rates]).tobytes()


@_FAST
@given(configs(), _FRACTION, st.booleans(), _SNR_DB)
def test_no_communication_resources_means_certain_outage(cfg, fraction, no_bandwidth, snr_db):
    mode = fdsac(0.0, fraction) if no_bandwidth else fdsac(fraction, 0.0)
    p = db_to_linear(snr_db)
    assert not thresholds(cfg, mode).feasible
    assert outage_probability(cfg, mode, p) == (1.0, 1.0)
    assert outage_asymptotic(cfg, mode, p) == (1.0, 1.0)
    value, std_error = estimate_outage(cfg, mode, p, trials=200, seed=7)
    assert value.tolist() == [1.0, 1.0]
    assert std_error.tolist() == [0.0, 0.0]


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
@example(_BASELINE, fdsac(1.0, 5e-324), [0.0, 10.0])  # chi overflows at every power
def test_power_grid_equals_per_power_calls(cfg, mode, grid_db):
    # One call over an array of powers gives, bit for bit, the floats that
    # one call per power gives, and raises where one of those calls does.
    powers = db_to_linear(grid_db)
    for closed_form in _CLOSED_FORMS:
        on_grid = _under_fault_rule(closed_form, cfg, mode, powers)
        per_power = [_under_fault_rule(closed_form, cfg, mode, p) for p in powers.tolist()]
        assert (on_grid is None) == (None in per_power)
        if on_grid is None:
            continue
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
        integrated = _under_fault_rule(closed_form, cfg, ISAC, powers)
        split = _under_fault_rule(closed_form, cfg, fdsac(0.0, 0.0), powers)
        assert (integrated is None) == (split is None)
        assert integrated is None or np.array_equal(integrated, split)


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
    outages, _ = estimate_outage(cfg, mode, powers, _MC_TRIALS, seed)
    rates, rate_errors = estimate_ecr(cfg, mode, powers, _MC_TRIALS, seed)
    closed_outages = np.ravel(outage_probability(cfg, mode, powers)).tolist()
    for value, est in zip(closed_outages, outages.ravel().tolist()):
        if min(value, 1.0 - value) * _MC_TRIALS >= 10.0:
            se = (value * (1.0 - value) / _MC_TRIALS) ** 0.5
            assert abs(est - value) <= _Z_BOUND * se
    closed_rates = np.ravel(ergodic_rates(cfg, mode, powers)).tolist()
    for value, est, se in zip(closed_rates, rates.ravel().tolist(), rate_errors.ravel().tolist()):
        assert abs(est - value) <= max(_Z_BOUND * se, 1e-2)


# The carried cuts of estimate_outage against every trial's SINRs, in blocks
# of _BLOCK trials walked down to leaves of at most 128 (montecarlo._TILE
# patched to 1) whose trials between the cuts are evaluated 7 at a time.
_BLOCK = 1000
_DESIGN_DB = 10.0


def _designed_gains(case):
    # _BLOCK gains, one block, for the baseline config in ISAC at
    # _DESIGN_DB, laid out around the far and near users' transitions
    # t_f < t_n.  The first leaf holds the first 120, and seeds its cuts from
    # every isqrt(120) = 10th of them sorted; the later leaves follow.  A
    # case of 1, 2 or 3 is a single leaf of that many trials, all sampled.
    p = db_to_linear(_DESIGN_DB)
    th = thresholds(_BASELINE, ISAC)
    t_f, t_n = th.vartheta * _BASELINE.sigma2_c / p, th.theta * _BASELINE.sigma2_c / p
    if case in (1, 2, 3):
        # Both users' events fail, both hold, only the far user's holds.
        return (0.5 * t_f, 2.0 * t_n, float(np.sqrt(t_f * t_n)))[:case]
    rng = np.random.default_rng(5)
    first = {
        "holding": rng.uniform(2.0 * t_n, 4.0 * t_n, 120),  # every trial holds
        "failing": rng.uniform(0.0, 0.5 * t_f, 120),  # every trial fails
        "straddling": np.linspace(0.5 * t_f, 2.0 * t_n, 120),
        "beyond": rng.uniform(0.9 * t_f, 1.1 * t_n, 120),
        # Every sampled gain fails, and the 9 above the last of them hold.
        "sampled_failing": np.concatenate(
            [np.linspace(0.1 * t_f, 0.5 * t_f, 111), np.linspace(2.0 * t_n, 4.0 * t_n, 9)]
        ),
    }[case]
    second = []
    if case == "straddling":
        # Each cut the first leaf leaves to the second, and 8 ulp each way.
        sic, snr_n, sinr_f = _reference_sinrs(_BASELINE, ISAC, p, first, first)
        window = mc._formulas(_BASELINE, ISAC, p)[2]
        for ok in ((sic > th.gamma_bar_f) & (snr_n > th.gamma_bar_n), sinr_f >= th.gamma_bar_f):
            for g, sign in ((first[ok].min(), 1.0), (first[~ok].max(), -1.0)):
                cut = g * (1.0 + sign * window(float(g)))
                second.append(cut)
                for toward in (0.0, np.inf):
                    g = cut
                    for _ in range(8):
                        g = np.nextafter(g, toward)
                        second.append(g)
    if case == "beyond":
        # Below and above every gain of the first leaf; the largest is a new peak.
        second = [1e-3 * t_f, 1e3 * t_n, 2e-3 * t_f, 2e3 * t_n]
    rest = rng.uniform(0.0, 3.0 * t_n, _BLOCK - first.size - len(second))
    return tuple(np.concatenate([first, second, rest]).tolist())


@_FAST
@given(
    configs(),
    _MC_MODES,
    st.lists(st.floats(-20.0, 300.0), min_size=1, max_size=6),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32),
    st.none(),
)
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains("holding"))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains("failing"))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains("straddling"))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains("beyond"))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains("sampled_failing"))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains(1))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains(2))
@example(_BASELINE, ISAC, [_DESIGN_DB], 1, 0, _designed_gains(3))
def test_outage_counts_equal_per_trial_over_many_leaves(cfg, mode, grid_db, workers, seed, gains):
    powers = db_to_linear(np.array(grid_db)).tolist()
    trials = 2 * _BLOCK + 500 if gains is None else len(gains)
    with contextlib.ExitStack() as patches:
        for name, value in (("_CHUNK", _BLOCK), ("_TILE", 1)):
            patches.enter_context(mock.patch.object(mc, name, value))
        if gains is not None:
            drawn = np.array(gains)

            def draw(cfg, seed, start, count, **kwargs):
                # Both users see the same gains.
                return drawn[start : start + count].copy(), drawn[start : start + count].copy()

            patches.enter_context(mock.patch.object(mc, "gain_samples", draw))
        value, _ = estimate_outage(cfg, mode, powers, trials, seed, workers=workers)
        expected = _per_trial_outages(cfg, mode, powers, trials, seed)
    assert [tuple(pair) for pair in value.T.tolist()] == expected


# Every subcommand at toy sizes on extreme valid inputs: each exits 0, 1 or 2
# with no traceback and no numpy warning, and every error line names the
# inputs it is about.  The examples are the faults once reported without
# naming an input, or as a numpy warning, or not at all.
_EXTREME_FRACTION = st.sampled_from([1e-320, 1e-5, 0.5]) | _FRACTION
_EXTREME_DB = st.sampled_from([-3000.0, 0.0, 40.0, 1545.0, 3080.0]) | st.floats(-20.0, 60.0)
_OPTION = re.compile(r"(^| )--[a-z][a-z-]* ")


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(configs(extreme=True), _EXTREME_FRACTION, _EXTREME_FRACTION, _EXTREME_DB, _EXTREME_DB)
@example(dataclasses.replace(_BASELINE, sigma2_c=5e-308), 0.5, 0.5, 0.0, 40.0)
@example(_BASELINE, 0.5, 1e-320, 0.0, 40.0)
@example(_BASELINE, 0.5, 0.5, -3000.0, -3000.0)
@example(dataclasses.replace(_BASELINE, sigma2_c=5e-323), 1e-5, 0.5, 0.0, 40.0)
@example(dataclasses.replace(_BASELINE, sigma2_c=1e-5), 1e-320, 0.5, 0.0, 40.0)
@example(dataclasses.replace(_BASELINE, num_rx_antennas=1, sensing_eigenvalues=(5.0,)), 0.5, 0.5, 0, 40)
def test_every_command_fails_cleanly_on_extreme_inputs(cfg, kappa, mu, db_a, db_b):
    lo, hi = sorted((db_a, db_b))
    # Values are joined to their options, as a negative one such as -1e-309
    # would otherwise be parsed as an option.
    grid = [f"--snr-db-min={lo!r}", f"--snr-db-max={hi!r}", f"--snr-db-step={max(hi - lo, 1.0)!r}"]
    split = [f"--kappa={kappa!r}", f"--mu={mu!r}"]
    commands = [
        [command, "--mode", mode, "--trials", trials, *grid, *split]
        for command in ("outage", "ecr")
        for mode in ("isac", "fdsac")
        for trials in ("0", "100")
    ]
    commands += [["sensing", *grid, *split], ["region", f"--p-db={hi!r}", "--grid-n", "3"]]
    commands += [["selftest", "--trials", "100"]]
    state = np.geterr()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main([*argv, "--config", path])
            assert not caught, (argv, [str(w.message) for w in caught])
            assert np.geterr() == state
            assert rc in (0, 1, 2), argv
            assert rc != 1 or out.getvalue() == "", argv
            for line in err.getvalue().splitlines():
                assert line.startswith(("error: ", "warning: ")), (argv, line)
                assert not line.startswith("error: ") or _OPTION.search(line), (argv, line)
