"""Full-scale acceptance gate.

Each criterion runs at its stated tolerance (1e6 Monte Carlo trials, the
101x101 region grid) and prints one PASS/FAIL line, visible regardless of
pytest capture settings.
"""

import time

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
from noma_isac.config import baseline_config

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
