"""Full-scale acceptance gate.

Each criterion runs at its stated tolerance (1e6 Monte Carlo trials, the
101x101 region grid) and prints one PASS/FAIL line, visible regardless of
pytest capture settings.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import noma_isac.acceptance as acceptance
from noma_isac.acceptance import (
    check_determinism,
    check_diversity_orders,
    check_ecr_closed_form,
    check_high_snr_slopes,
    check_outage_closed_form,
    check_region_containment,
    check_sensing_identities,
    check_sensing_slopes,
    check_special_functions,
    check_split_inequality,
)
from noma_isac.analytic import outage_probability
from noma_isac.config import ISAC, baseline_config, db_to_linear

TRIALS = 1_000_000
DEFAULT_SEED = 20240801
CFG = baseline_config()


def _report(capsys, number, result, extra=""):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number:2d}: {result.name} — {result.detail}{extra}")
    assert result.passed, f"criterion {number} failed: {result.detail}"


def test_criterion_01_outage_closed_form_vs_monte_carlo(capsys):
    start = time.perf_counter()
    result = check_outage_closed_form(CFG, TRIALS, DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    _report(capsys, 1, result, extra=f" ({elapsed:.1f} s)")
    assert elapsed < 60.0


def test_criterion_02_ecr_closed_form_vs_monte_carlo(capsys):
    result = check_ecr_closed_form(CFG, TRIALS, DEFAULT_SEED)
    _report(capsys, 2, result)


def test_criterion_03_diversity_orders(capsys):
    _report(capsys, 3, check_diversity_orders(CFG))


def test_criterion_04_high_snr_slopes(capsys):
    _report(capsys, 4, check_high_snr_slopes(CFG))


def test_criterion_05_sensing_rate_identities(capsys):
    _report(capsys, 5, check_sensing_identities(CFG, DEFAULT_SEED))


def test_criterion_06_sensing_slopes(capsys):
    _report(capsys, 6, check_sensing_slopes(CFG))


def test_criterion_07_region_containment(capsys):
    _report(capsys, 7, check_region_containment(CFG))


def test_criterion_08_split_inequality(capsys):
    _report(capsys, 8, check_split_inequality(DEFAULT_SEED))


def test_criterion_09_special_functions(capsys):
    _report(capsys, 9, check_special_functions(DEFAULT_SEED))


def test_criterion_10_deterministic_outputs(capsys):
    _report(capsys, 10, check_determinism(CFG, DEFAULT_SEED))


def test_certain_outage_points_get_a_verdict(monkeypatch):
    # With target_rate_n = 3 the closed-form P_N at 0 dB rounds to exactly 1,
    # so its standard error is 0: z is 0 where the estimate equals it and inf
    # where it does not.
    cfg = dataclasses.replace(CFG, target_rate_n=3.0)
    assert outage_probability(cfg, ISAC, 1.0)[0] == 1.0
    result = check_outage_closed_form(cfg, 20_000, 1)
    assert result.passed, result.detail

    estimate = acceptance.estimate_outage

    def one_trial_off(cfg, mode, powers, trials, seed):
        value, std_error = estimate(cfg, mode, powers, trials, seed)
        value[0, 0] -= 1.0 / trials
        return value, std_error

    monkeypatch.setattr(acceptance, "estimate_outage", one_trial_off)
    result = check_outage_closed_form(cfg, 20_000, 1)
    assert not result.passed and result.detail == "max |z| = inf over 36 points"


def test_diversity_check_takes_certain_outage_from_the_thresholds(monkeypatch):
    # target_rate_f = 0 makes the far user's P_F exactly 0; alpha_n = 0.45
    # makes the 0.5/0.5 split infeasible, so both fdsac outages are 1.
    result = check_diversity_orders(dataclasses.replace(CFG, target_rate_f=0.0))
    assert result.passed and result.detail.count("outage = 0 [threshold 0]") == 2, result.detail
    result = check_diversity_orders(dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55))
    assert result.passed, result.detail
    assert result.detail.endswith("(outage = 1 [infeasible], outage = 1 [infeasible])")

    # A 0 or 1 that the thresholds do not imply fails; so does a value that
    # differs from the one they imply.
    closed_form = acceptance.outage_probability
    monkeypatch.setattr(acceptance, "outage_probability", lambda c, m, p: (closed_form(c, m, p)[0], 0.0 * p))
    result = check_diversity_orders(CFG)
    assert not result.passed and result.detail.count("no slope: outage 0 or 1") == 2
    infeasible = dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55)
    monkeypatch.setattr(acceptance, "outage_probability", lambda c, m, p: (0.5 + 0.0 * p, 0.5 + 0.0 * p))
    result = check_diversity_orders(infeasible)
    assert not result.passed and "(outage != 1 [infeasible], outage != 1 [infeasible])" in result.detail


def test_selftest_checks_reach_no_least_squares_driver(monkeypatch):
    # The slope fits are closed forms.  np.polyfit calls lstsq through its
    # own import, so the gufunc behind it is refused as well as the function.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq reached")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg._umath_linalg, "lstsq", refuse)
    assert len(acceptance.run_all(CFG, 2000, 1)) == 10


def test_determinism_check_fails_when_a_run_fails(monkeypatch, capsys):
    # Every run rejects the config it is given: the check reads no output
    # file and reports the failure.
    from noma_isac import cli

    monkeypatch.setattr(cli, "dump_config", lambda cfg: "not a config\n")
    result = check_determinism(CFG, 1)
    assert not result.passed and result.detail == "a run exited with an error"
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("gap", [None, math.nan, 1e-3])
@pytest.mark.parametrize("tag", ["isac", "fdsac"])
def test_sensing_slopes_check_fails_on_either_mode(monkeypatch, tag, gap):
    # One mode's asymptote is moved.  With gap None it is 2e-9 up at 4x the
    # 34 dB power, a slope 1e-9 off the table's; else it is 0 at 40 dB, where
    # the closed form reads gap.  A nan gap in the fdsac mode fails too, which
    # a verdict on the largest gap would miss.
    mode = dict(acceptance._MODES)[tag]
    p4, p40 = 4.0 * db_to_linear(34.0), db_to_linear(40.0)
    asymptote, rate = acceptance.sensing_rate_asymptotic, acceptance.sensing_rate

    def moved_asymptote(cfg, m, p):
        if m == mode and gap is None and p == p4:
            return asymptote(cfg, m, p) + 2e-9
        return 0.0 if m == mode and gap is not None and p == p40 else asymptote(cfg, m, p)

    monkeypatch.setattr(acceptance, "sensing_rate_asymptotic", moved_asymptote)
    if gap is not None:
        monkeypatch.setattr(acceptance, "sensing_rate", lambda c, m, p: gap if m == mode else rate(c, m, p))
    result = check_sensing_slopes(CFG)
    assert not result.passed, result.detail


def test_sensing_identities_pass_on_one_receive_antenna():
    # The random test matrices have at least 2 rows, whatever the config's
    # antenna count.
    cfg = dataclasses.replace(CFG, num_rx_antennas=1, sensing_eigenvalues=(5.0,))
    result = check_sensing_identities(cfg, seed=1)
    assert result.passed, result.detail
