"""Simulation oracles: SINR formulas, estimator statistics and determinism,
and the dense sensing mutual-information identity."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import noma_isac.montecarlo as mc
from noma_isac.analytic import outage_probability, sensing_rate, thresholds
from noma_isac.channel import CorrelationMatrix, gain_samples
from noma_isac.config import (
    ISAC,
    baseline_config,
    comm_factors,
    db_to_linear,
    fdsac,
    has_comm_resources,
)
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

def _reference_sinrs(cfg, mode, p, gain_n, gain_f):
    # The per-trial SINRs, written out here apart from the estimators, which
    # must count against them exactly: (SIC stage, near user's own SNR, far
    # user) for mode with communication resources.
    kappa_t, mu_t = comm_factors(mode)
    noise = kappa_t * cfg.sigma2_c
    sig_n = mu_t * p * gain_n
    sig_f = mu_t * p * gain_f
    sinr_sic = sig_n * cfg.alpha_f / (noise + sig_n * cfg.alpha_n)
    sinr_f = sig_f * cfg.alpha_f / (noise + sig_f * cfg.alpha_n)
    return sinr_sic, sig_n * cfg.alpha_n / noise, sinr_f


def _trial_sinrs(mode, p, gain_n, gain_f):
    # The reference on a single draw of the baseline config.
    arrays = _reference_sinrs(CFG, mode, p, np.array([gain_n]), np.array([gain_f]))
    return tuple(float(a[0]) for a in arrays)


def test_trial_sinrs_zero_draw():
    assert _trial_sinrs(ISAC, 10.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_trial_sinrs_interference_ceiling():
    sinr_sic, _, sinr_f = _trial_sinrs(ISAC, 10.0, 1e12, 1e12)
    ceiling = CFG.alpha_f / CFG.alpha_n
    assert ceiling == 4.0
    assert sinr_sic == pytest.approx(ceiling, rel=1e-10)
    assert sinr_sic < ceiling
    assert sinr_f < ceiling


def test_trial_sinrs_formula_point():
    sinr_sic, snr_n, sinr_f = _trial_sinrs(ISAC, 10.0, 1.0, 0.1)
    assert snr_n == pytest.approx(10.0 * 1.0 * 0.2 / CFG.sigma2_c, rel=1e-15)
    assert sinr_sic == pytest.approx(10.0 * 0.8 / (1.0 + 10.0 * 0.2), rel=1e-15)
    assert sinr_f == pytest.approx(10.0 * 0.1 * 0.8 / (1.0 + 10.0 * 0.1 * 0.2), rel=1e-15)


def test_trial_sinrs_split_mode_scaling():
    _, snr_n, _ = _trial_sinrs(HALF_SPLIT, 10.0, 1.0, 0.1)
    noise = 0.5 * CFG.sigma2_c
    assert snr_n == pytest.approx(0.5 * 10.0 * 0.2 / noise, rel=1e-15)


def test_sinr_ceilings_hold_on_random_draws():
    gn, gf = gain_samples(CFG, seed=23, start=0, count=10_000)
    ceiling = CFG.alpha_f / CFG.alpha_n
    for mode in (ISAC, HALF_SPLIT):
        sinr_sic, _, sinr_f = _reference_sinrs(CFG, mode, 100.0, gn, gf)
        assert np.all((0.0 <= sinr_sic) & (sinr_sic < ceiling))
        assert np.all((0.0 <= sinr_f) & (sinr_f < ceiling))


# --------------------------------------------------------------- estimators

def test_estimate_outage_matches_closed_form():
    powers = [db_to_linear(snr_db) for snr_db in (0.0, 10.0, 20.0, 30.0)]
    for mode in (ISAC, HALF_SPLIT):
        emp, _ = estimate_outage(CFG, mode, powers, trials=1_000_000, seed=404)
        for p, est in zip(powers, emp.T.tolist()):
            exact = outage_probability(CFG, mode, p)
            for value, e in zip(exact, est):
                se = math.sqrt(value * (1.0 - value) / 1_000_000)
                assert abs(value - e) <= 3.0 * se


def test_estimate_outage_infeasible_is_exactly_one():
    cfg = dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55, target_rate_f=2.0)
    assert not thresholds(cfg, ISAC).feasible
    for seed in (1, 2, 3):
        p = db_to_linear(20.0)
        value, std_error = estimate_outage(cfg, ISAC, p, trials=20_000, seed=seed)
        assert value.tolist() == [1.0, 1.0]
        assert std_error.tolist() == [0.0, 0.0]


def test_estimate_outage_zero_power_split_is_exactly_one():
    # No communication power: outage is certain even when both target rates
    # are zero, as in the closed form.
    cfg = dataclasses.replace(CFG, target_rate_n=0.0, target_rate_f=0.0)
    mode = fdsac(0.5, 0.0)
    value, std_error = estimate_outage(cfg, mode, db_to_linear(10.0), trials=5_000, seed=3)
    assert value.tolist() == [1.0, 1.0]
    assert std_error.tolist() == [0.0, 0.0]
    assert tuple(value.tolist()) == outage_probability(cfg, mode, db_to_linear(10.0))


def test_estimate_outage_overflowing_threshold_is_exactly_one():
    # 2**(2/0.001) overflows: the threshold is +inf and the estimator still
    # evaluates every decoding event against it.
    cfg = dataclasses.replace(CFG, target_rate_f=2.0)
    value, std_error = estimate_outage(cfg, fdsac(0.001, 0.5), 1e6, trials=5_000, seed=3)
    assert value.tolist() == [1.0, 1.0]
    assert std_error.tolist() == [0.0, 0.0]


def test_estimate_outage_binomial_stderr():
    value, std_error = estimate_outage(CFG, ISAC, db_to_linear(10.0), trials=50_000, seed=5)
    for v, se in zip(value.tolist(), std_error.tolist()):
        # A count of outages out of 50_000 trials.
        assert round(v * 50_000) / 50_000 == v
        assert se == math.sqrt(v * (1.0 - v) / 50_000)


def test_estimate_outage_deterministic_and_chunk_invariant(monkeypatch):
    p = db_to_linear(15.0)
    ref = estimate_outage(CFG, ISAC, [p], trials=123_457, seed=77)
    again = estimate_outage(CFG, ISAC, [p], trials=123_457, seed=77)
    assert np.array_equal(ref, again)
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    chunked = estimate_outage(CFG, ISAC, [p], trials=123_457, seed=77)
    assert np.array_equal(chunked, ref)


@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
@pytest.mark.parametrize(
    "mode", [ISAC, HALF_SPLIT, fdsac(0.5, 0.0)], ids=["isac", "split", "no_power"]
)
def test_grid_call_equals_per_power_calls(monkeypatch, estimator, mode):
    # 2500 trials in blocks of 1000: three blocks, the last one partial.  A
    # float power gives (near, far) columns of shape (2,), and a grid gives
    # them stacked along its own shape, bit for bit, on 1 or 2 workers.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    powers = [db_to_linear(snr_db) for snr_db in (0.0, 7.5, 15.0, 40.0)]
    for workers in (1, 2):
        grid = np.array(estimator(CFG, mode, powers, trials=2500, seed=19, workers=workers))
        singles = [estimator(CFG, mode, p, trials=2500, seed=19, workers=workers) for p in powers]
        assert all(column.shape == (2,) for single in singles for column in single)
        assert grid.tobytes() == np.stack(singles, axis=-1).tobytes()
        flipped = estimator(CFG, mode, powers[::-1], trials=2500, seed=19, workers=workers)
        assert np.flip(flipped, axis=-1).tobytes() == grid.tobytes()
        square = estimator(CFG, mode, np.reshape(powers, (2, 2)), 2500, 19, workers=workers)
        assert all(column.shape == (2, 2, 2) for column in square)
        assert np.array(square).tobytes() == grid.tobytes()


@pytest.mark.parametrize("workers", [2, 3, 50])
@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
@pytest.mark.parametrize(
    "mode", [ISAC, HALF_SPLIT, fdsac(0.5, 0.0)], ids=["isac", "split", "no_power"]
)
def test_threaded_call_equals_one_worker(monkeypatch, workers, estimator, mode):
    # Three blocks, each mapped over the powers on up to `workers` threads.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    powers = [db_to_linear(snr_db) for snr_db in (0.0, 7.5, 15.0, 40.0)]
    serial = estimator(CFG, mode, powers, trials=2500, seed=23)
    assert np.array_equal(estimator(CFG, mode, powers, trials=2500, seed=23, workers=workers), serial)


@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
def test_threaded_overflow_raises(monkeypatch, estimator):
    # At 3080 dB the received power overflows on a worker thread, whose
    # numpy error state is its own.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    with pytest.raises(FloatingPointError, match="overflow"):
        estimator(CFG, ISAC, [db_to_linear(3070.0), db_to_linear(3080.0)], 2500, 1, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
def test_zero_noise_power_raises_on_every_thread(estimator, workers):
    # kappa * sigma2_c underflows to 0, and the own SNR divides by it.
    cfg = dataclasses.replace(CFG, sigma2_c=1e-5)
    with pytest.raises(FloatingPointError, match="divide by zero"):
        estimator(cfg, fdsac(1e-320, 0.5), [1.0, 10.0], 1000, 1, workers=workers)


@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
def test_empty_grid_on_threads_is_empty(estimator):
    # With and without communication resources: (2, 0) columns.
    for mode in (ISAC, fdsac(0.5, 0.0)):
        value, std_error = estimator(CFG, mode, [], trials=100, seed=1, workers=2)
        assert value.shape == std_error.shape == (2, 0)


@pytest.mark.parametrize("estimator", [estimate_outage, estimate_ecr])
@pytest.mark.parametrize("mode,blocks", [(ISAC, 3), (HALF_SPLIT, 3), (fdsac(0.0, 0.5), 0)])
def test_each_block_is_drawn_once_per_call(monkeypatch, estimator, mode, blocks):
    # Blocks of 1000 trials, the last one partial, each walked down to
    # leaves of at most 300: the draws cover [0, 2500) once, in order, and
    # no leaf crosses a block boundary.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    monkeypatch.setattr(mc, "_TILE", 300)
    draws = []

    def counting(cfg, seed, start, count):
        draws.append((start, count))
        return gain_samples(cfg, seed, start, count)

    monkeypatch.setattr(mc, "gain_samples", counting)
    estimator(CFG, mode, [db_to_linear(snr_db) for snr_db in range(0, 45, 5)], trials=2500, seed=3)
    if not blocks:
        assert draws == []
        return
    ends = [start + count for start, count in draws]
    assert [start for start, _ in draws] == [0] + ends[:-1] and ends[-1] == 2500
    assert all(0 < count <= 300 and start // 1000 == (start + count - 1) // 1000 for start, count in draws)
    assert {0, 1000, 2000} <= {start for start, _ in draws}


_PRIME = 262147  # the least prime above 2**18


@pytest.mark.parametrize("bound", [1, 7, 128, 300, mc._TILE])
def test_pairwise_walk_is_numpys_summation_order(bound):
    # numpy's pairwise split, pinned: walking its tree down to leaves of at
    # most `bound` (or 128) elements and adding np.sum of each leaf equals
    # np.sum of the whole, bit for bit.  Squared Cauchy variates span many
    # binades, so any other order of additions rounds differently.
    rng = np.random.default_rng(bound)
    lengths = [*range(1, 301), 10**6, 1 << 20, 3 * (1 << 14) + 5, _PRIME]
    lengths += [n for b in (bound, mc._TILE, 1 << 18) for n in (b - 1, b, b + 1, 2 * b + 8) if n > 0]
    for n in lengths:
        a = rng.standard_cauchy(n) ** 2
        walked = mc._pairwise(n, bound, lambda start, count: np.sum(a[start : start + count]))
        assert walked.tobytes() == np.sum(a).tobytes(), n


def test_estimate_outage_single_threshold_reduction():
    # On the feasible branch the joint event is one threshold on the ordered
    # near gain: outage  <=>  gain_n < theta * kappa * sigma2_c / (mu * p).
    p = db_to_linear(12.0)
    for mode in (ISAC, HALF_SPLIT):
        th = thresholds(CFG, mode)
        kappa_t, mu_t = (1.0, 1.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)
        gn, gf = gain_samples(CFG, seed=31, start=0, count=50_000)
        cutoff = th.theta * kappa_t * CFG.sigma2_c / (mu_t * p)
        sic, snr_n, _ = _reference_sinrs(CFG, mode, p, gn, gf)
        joint_outage = ~((sic > th.gamma_bar_f) & (snr_n > th.gamma_bar_n))
        assert np.array_equal(joint_outage, gn < cutoff)


# ------------------------------------------- sorted-gain outage vs per trial

# The SIC stage's event is non-monotone in the gain within a few ulp of its
# boundary here when split (alpha_n = 0.3), so the exact window matters.
ROUNDING_CFG = dataclasses.replace(
    CFG, alpha_n=0.3, alpha_f=0.7, target_rate_n=0.3, target_rate_f=0.6
)
INFEASIBLE_CFG = dataclasses.replace(CFG, alpha_n=0.45, alpha_f=0.55, target_rate_f=2.0)
# gamma_bar_f one ulp below the far SINR's ceiling alpha_f / alpha_n: the
# SINR's elasticity at the boundary is about 1e-16.
CEILING_CFG = dataclasses.replace(CFG, target_rate_f=math.log2(5.0))
# gamma_bar_f above the ceiling: infeasible, but at high power the far
# user's SINR rounds up past the threshold on some trials.
ROUNDED_UP_CFG = dataclasses.replace(
    CFG, alpha_n=0.35, alpha_f=0.65, target_rate_f=math.log2(1.0 + 0.65 / 0.35)
)
ZERO_RATE_CFG = dataclasses.replace(CFG, target_rate_n=0.0, target_rate_f=0.0)
OVERFLOW_THRESHOLD_CFG = dataclasses.replace(CFG, target_rate_f=2.0)


def _tied_cfg(mode):
    # ROUNDING_CFG with target_rate_n solved so that the own SNR's cut
    # gamma_bar_n / alpha_n falls within a few ulp of the SIC stage's cut
    # vartheta: the near user's joint event turns inside the SIC event's
    # non-monotone band.
    kappa_t, _ = comm_factors(mode)
    vartheta = thresholds(ROUNDING_CFG, mode).vartheta
    rate_n = kappa_t * math.log2(1.0 + ROUNDING_CFG.alpha_n * vartheta)
    return dataclasses.replace(ROUNDING_CFG, target_rate_n=rate_n)


def _per_trial_outages(cfg, mode, powers, trials, seed):
    # The reference: every trial's SINRs against the thresholds, block by
    # block, as (near, far) outage fractions.
    th = thresholds(cfg, mode)
    fractions = []
    for p in powers:
        out_n = out_f = 0
        if has_comm_resources(*comm_factors(mode)):
            for start in range(0, trials, mc._CHUNK):
                gn, gf = mc.gain_samples(cfg, seed, start, min(mc._CHUNK, trials - start))
                sic, snr_n, sinr_f = _reference_sinrs(cfg, mode, p, gn, gf)
                ok_n = (sic > th.gamma_bar_f) & (snr_n > th.gamma_bar_n)
                out_n += gn.size - int(np.count_nonzero(ok_n))
                out_f += int(np.count_nonzero(sinr_f < th.gamma_bar_f))
        else:
            out_n = out_f = trials
        fractions.append((out_n / trials, out_f / trials))
    return fractions


def _estimated_fractions(cfg, mode, powers, trials, seed):
    value, _ = estimate_outage(cfg, mode, powers, trials, seed)
    return [tuple(pair) for pair in value.T.tolist()]


def _boundary_gains(cfg, mode, p):
    # Gains at and next to each decision boundary of the SIC stage, the near
    # user's own SNR and the far user: nextafter chains of 40 ulp each way,
    # and 400 gains spread over 200 ulp each way.
    kappa_t, mu_t = comm_factors(mode)
    th = thresholds(cfg, mode)
    scale = kappa_t * cfg.sigma2_c / (mu_t * p)
    rng = np.random.default_rng(0)
    gains = [np.zeros(1)]
    for cut in (th.vartheta * scale, th.gamma_bar_n / cfg.alpha_n * scale):
        chain = [cut]
        for toward in (0.0, math.inf):
            g = cut
            for _ in range(40):
                g = float(np.nextafter(g, toward))
                chain.append(g)
        gains += [np.array(chain), cut * (1.0 + rng.uniform(-200.0, 200.0, 400) * 2.0**-53)]
    return rng.permutation(np.concatenate(gains))


@pytest.mark.parametrize("case", ["baseline", "rounding", "tied"])
@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT], ids=["isac", "split"])
@pytest.mark.parametrize("chunk", [1 << 20, 300])
def test_outage_counts_equal_per_trial_at_boundary_gains(monkeypatch, case, mode, chunk):
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    cfg = {"baseline": CFG, "rounding": ROUNDING_CFG, "tied": _tied_cfg(mode)}[case]
    for snr_db in (0.0, 17.5, 40.0):
        p = db_to_linear(snr_db)
        gains = _boundary_gains(cfg, mode, p)

        def draw(cfg, seed, start, count):
            # gain_n and gain_f hold the same gains in different orders.
            return gains[start : start + count].copy(), gains[::-1][start : start + count].copy()

        monkeypatch.setattr(mc, "gain_samples", draw)
        expected = _per_trial_outages(cfg, mode, [p], gains.size, 1)
        assert _estimated_fractions(cfg, mode, [p], gains.size, 1) == expected
        assert 0.0 < expected[0][0] < 1.0 and 0.0 < expected[0][1] < 1.0


@pytest.mark.parametrize(
    "cfg,mode",
    [
        (CFG, ISAC),
        (CFG, HALF_SPLIT),
        (ROUNDING_CFG, ISAC),
        (INFEASIBLE_CFG, ISAC),
        (CEILING_CFG, ISAC),
        (ROUNDED_UP_CFG, ISAC),
        (ZERO_RATE_CFG, HALF_SPLIT),
        (OVERFLOW_THRESHOLD_CFG, fdsac(0.001, 0.5)),
        (CFG, fdsac(0.5, 0.0)),
    ],
    ids=["isac", "split", "rounding", "infeasible", "ceiling", "rounded_up", "zero_rate", "infinite_rate", "no_power"],
)
def test_outage_counts_equal_per_trial_in_small_blocks(monkeypatch, cfg, mode):
    # 2500 trials in blocks of 1000, from far below to far above every
    # boundary, up to received powers at the SINR's ceiling.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    powers = db_to_linear(np.arange(-20.0, 301.0, 10.0)).tolist()
    expected = _per_trial_outages(cfg, mode, powers, 2500, 11)
    assert _estimated_fractions(cfg, mode, powers, 2500, 11) == expected


@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT], ids=["isac", "split"])
def test_outage_counts_equal_per_trial_with_subnormal_operands(mode):
    # A subnormal noise power puts subnormal operands, whose rounding error is
    # not relative, into the SINRs at every boundary.
    cfg = dataclasses.replace(CFG, sigma2_c=5e-323)
    powers = (5e-323 * 10.0 ** np.arange(0.0, 6.0, 0.5)).tolist()
    expected = _per_trial_outages(cfg, mode, powers, 3000, 4)
    assert _estimated_fractions(cfg, mode, powers, 3000, 4) == expected


def test_boundary_cases_exercise_the_window():
    # The cases above would pass with a narrower window, or none, unless the
    # per-trial events really are non-monotone or flat in the gain there.
    p = db_to_linear(17.5)

    def events(cfg):
        # (SIC ok, own SNR ok) on the sorted boundary gains, split.
        th = thresholds(cfg, HALF_SPLIT)
        gains = np.sort(_boundary_gains(cfg, HALF_SPLIT, p))
        sic, snr_n, _ = _reference_sinrs(cfg, HALF_SPLIT, p, gains, gains)
        return sic > th.gamma_bar_f, snr_n > th.gamma_bar_n

    sic_ok, _ = events(ROUNDING_CFG)
    assert np.count_nonzero(np.diff(sic_ok)) > 1
    # With the cuts tied, the joint event itself is non-monotone.
    tied = _tied_cfg(HALF_SPLIT)
    th = thresholds(tied, HALF_SPLIT)
    assert abs(th.gamma_bar_n / tied.alpha_n - th.vartheta) <= 4.0 * math.ulp(th.vartheta)
    sic_ok, own_ok = events(tied)
    assert np.count_nonzero(np.diff(sic_ok & own_ok)) > 1
    assert not thresholds(ROUNDED_UP_CFG, ISAC).feasible
    [(_, far)] = _per_trial_outages(ROUNDED_UP_CFG, ISAC, [db_to_linear(300.0)], 2500, 11)
    assert 0.0 < far < 1.0
    [(_, far)] = _per_trial_outages(CEILING_CFG, ISAC, [db_to_linear(300.0)], 2500, 11)
    assert far == 0.0


@pytest.mark.parametrize("trials", [1_000_000, 2_500_000])
@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT], ids=["isac", "split"])
def test_outage_counts_equal_per_trial_at_full_size(trials, mode):
    powers = db_to_linear(np.array([0.0, 15.0, 30.0, 40.0])).tolist()
    expected = _per_trial_outages(CFG, mode, powers, trials, 2)
    assert _estimated_fractions(CFG, mode, powers, trials, 2) == expected


def test_first_leaf_bisects_its_gains(monkeypatch):
    # Each user's first leaf finds its cuts infinite at every power; it
    # bisects its gains for them instead of evaluating all 12,496.  The
    # counts stay the per-trial ones.
    evaluated = []
    held = mc._held

    def spy(holds, gains, cuts, window):
        counts = [0] * len(holds)

        def counting(k):
            def event(g):
                counts[k] += np.size(g)
                return holds[k](g)

            return event

        evaluated.append((gains.size, counts))
        return held([counting(k) for k in range(len(holds))], gains, cuts, window)

    monkeypatch.setattr(mc, "_held", spy)
    powers = db_to_linear(np.arange(0.0, 41.0, 5.0)).tolist()
    expected = _per_trial_outages(CFG, ISAC, powers, 100_000, 1)
    assert _estimated_fractions(CFG, ISAC, powers, 100_000, 1) == expected
    assert len(evaluated) == 2 * 8
    for size, counts in evaluated[:2]:  # the near and the far user's first leaf
        assert size == 12_496 and len(counts) == len(powers)
        assert max(counts) < 0.05 * size


@pytest.mark.parametrize("cfg", [CFG, ROUNDING_CFG], ids=["baseline", "rounding"])
def test_racing_threads_keep_outage_counts_exact(monkeypatch, cfg):
    # Eight threads on fewer cores, switching every microsecond, share the
    # cuts of 6 powers over leaves of at most 128 trials: whichever cut a
    # leaf reads and whichever update a race loses, the counts are the
    # per-trial ones.
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    monkeypatch.setattr(mc, "_TILE", 1)
    powers = db_to_linear(np.arange(0.0, 51.0, 10.0)).tolist()
    expected = _per_trial_outages(cfg, HALF_SPLIT, powers, 5000, 13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        value, _ = estimate_outage(cfg, HALF_SPLIT, powers, 5000, 13, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert [tuple(pair) for pair in value.T.tolist()] == expected


@pytest.mark.parametrize("sigma2_c", [1.0, 1e300])
@pytest.mark.parametrize("chunk", [1 << 20, 1000])
@pytest.mark.parametrize("mode", [ISAC, HALF_SPLIT], ids=["isac", "split"])
def test_estimate_outage_overflowing_power_raises(monkeypatch, sigma2_c, chunk, mode):
    # A received power that overflows on any trial raises.  With a noise
    # power of 1e300 every decision boundary lies far below the largest
    # gains, which alone overflow.
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    cfg = dataclasses.replace(CFG, sigma2_c=sigma2_c)
    with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
        estimate_outage(cfg, mode, [10.0**307.5], trials=100_000, seed=1)


def test_estimate_ecr_matches_closed_form_and_ceiling():
    from noma_isac.analytic import ergodic_rates

    p = db_to_linear(20.0)
    (est_n, est_f), (se_n, se_f) = estimate_ecr(CFG, ISAC, p, trials=500_000, seed=505)
    exact_n, exact_f = ergodic_rates(CFG, ISAC, p)
    assert abs(est_n - exact_n) <= max(3.0 * se_n, 1e-2)
    assert abs(est_f - exact_f) <= max(3.0 * se_f, 1e-2)
    assert est_f < math.log2(1.0 + CFG.alpha_f / CFG.alpha_n)


@pytest.mark.parametrize("mode", [ISAC, fdsac(0.3, 0.7)], ids=["isac", "split"])
def test_estimate_ecr_equals_per_trial_rates(monkeypatch, mode):
    # One trial per call, picked by the seed: each estimate is that trial's
    # rate, to the bit.  No factor is a power of two, so every operation of
    # the formulas rounds.
    cfg = dataclasses.replace(CFG, sigma2_c=0.7)
    kappa_t, _ = comm_factors(mode)
    powers = db_to_linear(np.array([-30.0, 3.0, 17.0, 40.0]))
    gn, gf = gain_samples(cfg, seed=7, start=0, count=300)
    _, snr_n, sinr_f = _reference_sinrs(cfg, mode, powers[:, None], gn, gf)
    rates = [kappa_t * np.log1p(sinr) / math.log(2.0) for sinr in (snr_n, sinr_f)]

    def draw(cfg, seed, start, count):
        return gn[seed : seed + 1], gf[seed : seed + 1]

    monkeypatch.setattr(mc, "gain_samples", draw)
    for i in range(gn.size):
        value, std_error = estimate_ecr(cfg, mode, powers, trials=1, seed=i)
        assert value.tolist() == [rates[0][:, i].tolist(), rates[1][:, i].tolist()]
        assert std_error.tolist() == [[0.0] * powers.size] * 2


def _whole_block_rates(cfg, mode, powers, trials, seed):
    # Each block's rates formed whole, summed and squared, the block sums
    # combined by fsum: the estimates the leaf walk must reproduce, as
    # (value, std_error) columns.
    kappa_t, _ = comm_factors(mode)
    value, std_error = np.empty((2, len(powers))), np.empty((2, len(powers)))
    for k, p in enumerate(powers):
        blocks = []
        for start in range(0, trials, mc._CHUNK):
            gn, gf = gain_samples(cfg, seed, start, min(mc._CHUNK, trials - start))
            _, snr_n, sinr_f = _reference_sinrs(cfg, mode, p, gn, gf)
            rates = [kappa_t * np.log1p(sinr) / math.log(2.0) for sinr in (snr_n, sinr_f)]
            blocks.append([float(np.sum(v)) for v in rates] + [float(np.sum(v * v)) for v in rates])
        sum_n, sum_f, sq_n, sq_f = (math.fsum(column) for column in zip(*blocks))
        for user, (total, sq_total) in enumerate(((sum_n, sq_n), (sum_f, sq_f))):
            mean = total / trials
            var = max(sq_total - trials * mean * mean, 0.0) / (trials - 1)
            value[user, k], std_error[user, k] = mean, math.sqrt(var / trials)
    return value, std_error


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tile,chunk", [(mc._TILE, 3 * mc._TILE + 5), (7, 1000)])
@pytest.mark.parametrize("mode", [ISAC, fdsac(0.3, 0.7)], ids=["isac", "split"])
def test_estimate_ecr_equals_whole_block_rates(monkeypatch, workers, tile, chunk, mode):
    # Blocks that are no multiple of the rate leaf bound, the last one
    # partial, so that the walk splits every block into uneven leaves.
    monkeypatch.setattr(mc, "_TILE", tile)
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    trials = 2 * chunk + 1234
    cfg = dataclasses.replace(CFG, sigma2_c=0.7)
    powers = db_to_linear(np.array([-30.0, 3.0, 17.0, 40.0])).tolist()
    estimates = estimate_ecr(cfg, mode, powers, trials, 29, workers=workers)
    assert np.array_equal(estimates, _whole_block_rates(cfg, mode, powers, trials, 29))


_BLOCK_BYTES = 8 << 20  # one float64 array of 2**20 trials
_TILE_BYTES = 8 * mc._TILE  # one float64 array of a leaf


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call,bound",
    [
        (lambda n: gain_samples(CFG, 1, 0, n), 2 * _BLOCK_BYTES + (2 << 20)),
        (lambda n: estimate_outage(CFG, ISAC, [1.0, 30.0, 1000.0], n, 1), 12 * _TILE_BYTES),
        (lambda n: estimate_ecr(CFG, ISAC, [1.0, 30.0, 1000.0], n, 1), 12 * _TILE_BYTES),
        (
            lambda n: estimate_ecr(CFG, ISAC, [1.0, 30.0, 1000.0], n, 1, workers=2),
            16 * _TILE_BYTES,
        ),
        (
            lambda n: estimate_outage(CFG, ISAC, [1.0, 30.0, 1000.0], 3 * n, 1, workers=2),
            12 * _TILE_BYTES,
        ),
        (lambda n: estimate_ecr(CFG, ISAC, [1.0, 30.0, 1000.0], 3 * n, 1), 12 * _TILE_BYTES),
    ],
    ids=["gain_samples", "outage", "ecr", "ecr_2_workers", "outage_3_blocks", "ecr_3_blocks"],
)
def test_monte_carlo_memory_is_the_block_and_one_buffer_per_worker(call, bound):
    # gain_samples returns two arrays of the trials asked for and holds at
    # most 2 MiB of tiles while it draws them.  The estimators hold the leaf
    # being drawn and one per task in flight, so their bounds are the same at
    # 2**20 and 3 * 2**20 trials: a leaf's draw (eight leaf arrays), plus per
    # task in flight its leaf's two gain arrays and its temporaries: a rate
    # task holds a rate buffer and up to three temporaries of the leaf.  The
    # first call, of more than one leaf, leaves out allocations made once per
    # process: numpy's and the thread pool's import.
    call(2 * mc._TILE)
    assert _traced_peak(lambda: call(1 << 20)) < bound


def test_estimate_ecr_vanishes_at_low_power():
    (est_n, est_f), _ = estimate_ecr(CFG, ISAC, 1e-9, trials=10_000, seed=6)
    assert 0.0 < est_n < 1e-7
    assert 0.0 < est_f < 1e-7


def test_estimate_ecr_deterministic(monkeypatch):
    p = db_to_linear(20.0)
    value, std_error = estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88)
    assert np.array_equal(estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88), (value, std_error))
    monkeypatch.setattr(mc, "_CHUNK", 9973)
    chunked_value, chunked_std_error = estimate_ecr(CFG, ISAC, p, trials=100_000, seed=88)
    assert chunked_value == pytest.approx(value, rel=1e-12)
    assert chunked_std_error == pytest.approx(std_error, rel=1e-9)


def test_estimators_with_degenerate_splits():
    for mode in (fdsac(0.0, 0.5), fdsac(0.5, 0.0)):
        value, _ = estimate_outage(CFG, mode, 10.0, trials=100, seed=1)
        assert value.tolist() == [1.0, 1.0]
        value, _ = estimate_ecr(CFG, mode, 10.0, trials=100, seed=1)
        assert value.tolist() == [0.0, 0.0]


def test_estimator_argument_errors():
    with pytest.raises(ValueError):
        estimate_outage(CFG, ISAC, [10.0], trials=0, seed=1)
    with pytest.raises(ValueError):
        estimate_ecr(CFG, ISAC, [10.0], trials=0, seed=1)
    with pytest.raises(ValueError):
        estimate_outage(CFG, ISAC, [0.0], trials=10, seed=1)
    for estimator in (estimate_outage, estimate_ecr):
        with pytest.raises(ValueError, match="workers"):
            estimator(CFG, ISAC, [10.0], trials=10, seed=1, workers=0)


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
