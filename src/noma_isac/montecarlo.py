"""Simulation-side oracles: per-trial SINRs, empirical outage/rate estimators,
the dense sensing mutual-information identity check, and slope fitting.

Estimates are pure functions of (cfg, mode, powers, trials, seed).  Trials
are processed in fixed-size blocks, and each block is walked as numpy's
pairwise-sum tree over its trials (see _pairwise) down to leaves of at most
_TILE trials.  Each leaf is drawn once on the calling thread, in trial order,
and shared by every power of the call; its evaluation at every power is one
task, and up to `workers` threads run such tasks.  Sibling results are added
up the tree in order and blocks are combined in block order, so the
estimate at one power depends neither on the other powers nor on scheduling
or worker count.  The rate kernel sums each leaf's per-trial rates with
np.sum, and adding them up the tree is np.sum's own order: the sums are the
same to the bit as the whole block's, without holding it.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from functools import partial
from typing import Sequence

import numpy as np

from .analytic import thresholds
from .channel import _TILE, CorrelationMatrix, gain_samples
from .config import Mode, SystemConfig, check_power, comm_factors, has_comm_resources

__all__ = [
    "dual_function_signal", "estimate_ecr", "estimate_outage", "estimate_slope",
    "orthogonal_streams", "sensing_mi_bruteforce", "sensing_mi_reduced",
]

_CHUNK = 1 << 20
_LN2 = math.log(2.0)
_U = 2.0**-53  # unit roundoff of float64

#: Largest dense identity-check problem, in total matrix dimension L*M.
BRUTE_FORCE_LIMIT = 256


def _formulas(cfg: SystemConfig, mode: Mode, p: float):
    # The per-trial formulas at power p, for a mode with communication
    # resources, of an array of gains (or one float gain): the near user's
    # SNR for its own message once SIC has removed the far user's; the SINR
    # of the far user's message with the near user's as interference, at the
    # SIC stage or at the far user; and the relative half-width of the window
    # around a transition of a far-message event (see estimate_outage).
    kappa_t, mu_t = comm_factors(mode)
    noise = kappa_t * cfg.sigma2_c

    def received(gain):
        return mu_t * p * gain

    def own_snr(gain):
        return received(gain) * cfg.alpha_n / noise

    def far_message_sinr(gain):
        sig = received(gain)
        return sig * cfg.alpha_f / (noise + sig * cfg.alpha_n)

    def window(gain: float) -> float:
        sig = received(gain)
        if 0.0 < min(noise, sig * cfg.alpha_n, sig * cfg.alpha_f) < sys.float_info.min:
            return math.inf
        e = noise / (noise + sig * cfg.alpha_n)
        return 8.0 * (4.0 * _U / e + 2.0 * _U) if e > 0.0 else math.inf

    return own_snr, far_message_sinr, window


def _pairwise(n: int, bound: int, leaf, start: int = 0):
    # numpy sums n floats pairwise (Higham 1993): a node of more than 128
    # elements splits into n2 = n // 2 - (n // 2) % 8 and n - n2, and its sum
    # is its halves' sums added; smaller nodes are summed whole.  This walks
    # that tree down to nodes of at most max(bound, 128) elements, calls
    # leaf(start, count) on each in order and adds sibling results with +,
    # so with np.sum of a slice as the leaf it gives np.sum of the whole.
    if n <= max(bound, 128):
        return leaf(start, n)
    half = n // 2 - (n // 2) % 8
    return _pairwise(half, bound, leaf, start) + _pairwise(n - half, bound, leaf, start + half)


def _in_order(pool, tasks, depth: int):
    # The results of the tasks, in order, with at most `depth` of them
    # submitted to the pool and not yet taken: once `depth` are, the oldest
    # is waited for before the next task is taken from the iterator.
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(task))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _walk(
    cfg: SystemConfig,
    mode: Mode,
    p: float | np.ndarray,
    trials: int,
    seed: int,
    workers: int,
    kernel,
    no_resources,
) -> list:
    # kernel(powers), for the powers of p flattened, returns the leaf
    # function: of a leaf's gains (gain_n, gain_f), an array indexed [power,
    # field].  A leaf's task is that function bound to its gains, drawn on
    # the calling thread in trial order.  At most `workers` tasks, no more
    # than there are leaves, run at a time, each on a thread of its own, so a
    # leaf is held from its draw until its task ends.  Each block gives its
    # leaves' results added up the tree.  Without powers or communication
    # resources, nothing is drawn: one block gives each power `no_resources`.
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    powers = check_power(p).ravel().tolist()
    if not (powers and has_comm_resources(*comm_factors(mode))):
        return [[no_resources] * len(powers)]

    # An overflowing received power, or a noise power rounded to 0, raises
    # FloatingPointError rather than passing on inf or nan.  As a decorator,
    # errstate sets numpy's error state, per thread, in the thread of each task.
    leaf_result = np.errstate(over="raise", divide="raise", invalid="raise")(kernel(powers))
    blocks = [(start, min(_CHUNK, trials - start)) for start in range(0, trials, _CHUNK)]
    # Lists add up by joining: the leaves (offset, count) of a block of n
    # trials in walk order, for the one or two sizes the blocks have.
    spans = {n: _pairwise(n, _TILE, lambda *leaf: [leaf]) for _, n in blocks}
    leaves = ((start + offset, count) for start, n in blocks for offset, count in spans[n])

    def task(leaf: tuple):
        return partial(leaf_result, *gain_samples(cfg, seed, *leaf))

    def added_up(results) -> list:
        return [_pairwise(n, _TILE, lambda *_: next(results), start) for start, n in blocks]

    threads = min(workers, sum(len(spans[n]) for _, n in blocks))
    if threads < 2:
        return added_up(task(leaf)() for leaf in leaves)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return added_up(_in_order(pool, map(task, leaves), threads))


def _held(holds, gains: np.ndarray, cuts: np.ndarray, window) -> np.ndarray:
    # Per power k, the number of the ascending `gains` at which the event
    # holds[k] holds: those above cuts[k, 1] hold and those below cuts[k, 0]
    # fail (see estimate_outage).  Cuts that are still infinite are first
    # set by bisecting the gains.  The event is evaluated at the rest, and
    # the smallest gain where it holds and the largest where it fails
    # tighten the cuts, by their windows window[k].  Threads share `cuts`
    # without a lock: each cut is one float, and an update that a race loses
    # leaves a looser cut, which is as valid, so no count depends on the race.
    for k in np.flatnonzero(np.isinf(cuts).all(axis=1)):
        _tighten(cuts[k], *_bisect(holds[k], gains), window[k])
    lo = np.searchsorted(gains, cuts[:, 0])
    hi = np.searchsorted(gains, cuts[:, 1], side="right")
    held = gains.size - hi
    for k in np.flatnonzero(lo < hi):
        between = gains[lo[k] : hi[k]]
        ok = holds[k](between)
        held[k] += np.count_nonzero(ok)
        failing = float(np.max(between, where=~ok, initial=-math.inf))
        holding = float(np.min(between, where=ok, initial=math.inf))
        _tighten(cuts[k], failing, holding, window[k])
    return held


def _bisect(holds, gains: np.ndarray) -> tuple[float, float]:
    # A gain of the ascending `gains` where the event fails and one where it
    # holds, adjacent unless they are the ends, or -inf and inf where there
    # is none.  Each is evaluated alone, after the leaf's largest near gain:
    # an overflow would have been raised there first.
    fails, holds_at = -1, gains.size
    while holds_at - fails > 1:
        mid = (fails + holds_at) // 2
        if holds(gains[mid]):
            holds_at = mid
        else:
            fails = mid
    return (
        float(gains[fails]) if fails >= 0 else -math.inf,
        float(gains[holds_at]) if holds_at < gains.size else math.inf,
    )


def _tighten(cut: np.ndarray, failing: float, holding: float, window) -> None:
    # The cuts (lo, hi) tightened by a gain where the event fails and one
    # where it holds, each by its window, where it has one below 1.
    if failing > -math.inf and (w := window(failing)) < 1.0:
        cut[0] = max(cut[0], failing * (1.0 - w))
    if holding < math.inf and (w := window(holding)) < 1.0:
        cut[1] = min(cut[1], holding * (1.0 + w))


def estimate_outage(
    cfg: SystemConfig, mode: Mode, p: float | np.ndarray, trials: int, seed: int, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical outage probabilities and their binomial standard errors,
    (value, std_error), each of shape (2,) + np.shape(p) with the near user
    in row 0, as outage_probability gives (near, far) for a power or a grid.

    A near-user trial is in outage unless both the SIC stage and its own
    message clear their thresholds; a far-user trial is in outage when its
    SINR falls below the far-user threshold.  Without a sub-band or power to
    decode with, every trial is an outage.  Every power sees the same trials,
    and up to `workers` threads evaluate whole leaves without changing a bit.

    The counts equal those of evaluating every trial's SINRs, but most
    trials are settled by comparing their gains with two cuts that each
    power and user carries from leaf to leaf: a task sorts its leaf's gains
    in place and finds every power's cuts in them by binary search.  The
    near user's joint event (SIC stage and own message both clear) depends
    only on gain_n and the far user's event only on gain_f.  Each is
    monotone in its gain up to rounding, with u = 2**-53, N the noise power
    and s = fl(c*g) the received power, c = mu_t*p:

    - The own SNR fl(fl(s*alpha_n)/N) is a chain of monotone roundings, so
      its event is exactly monotone.
    - The far-message SINR r = fl(fl(s*alpha_f)/fl(N + fl(s*alpha_n))), the
      SIC stage and the far user, has |ln r - ln f(c*g)| <= 4u to first order
      for f(s) = s*alpha_f/(N + s*alpha_n), whose elasticity in s is
      e = N/(N + s*alpha_n).  Comparing r with a threshold can differ from
      comparing f only in a band of half-width about 4u/e + 2u in ln g.
      With w = 8*(4u/e + 2u) at a gain, every gain beyond a factor 1 +- w
      of it moves ln f by at least 16u.

    So any drawn gain g_lo at which the user's event fails and any drawn
    gain g_hi at which it holds, adjacent or not, settle every trial outside
    g_lo*(1 - w) .. g_hi*(1 + w), each with its own w:

    - Above g_hi*(1 + w), the far-message event holds by the argument above,
      and so does the own SNR's, as it is exactly monotone.
    - Below g_lo*(1 - w), the far user's event fails by the same argument.
      The near user's fails too: at g_lo either the own SNR's event fails,
      and then it fails at every smaller gain, or the SIC stage's does, and
      the same argument settles it below.
    - Where w >= 1 (e tiny: the SINR flat against its ceiling, as with an
      infeasible allocation) or an operand is subnormal, a gain gives no
      cut on that side.

    The cuts start at -inf and +inf, and a leaf that finds them so first
    bisects its sorted gains for a failing and a holding one, evaluating
    each alone.  The trials of a leaf between the cuts are evaluated per
    trial, and the smallest holding and the largest failing gain among them
    tighten the cuts for later leaves.  Every cut ever set is valid, so a
    cut read while another leaf tightens it gives the same counts.  The
    evaluations use the per-trial formulas only, never the closed form's
    thresholds, so the estimate stays an independent check of them.  Each
    leaf is first evaluated at its largest near gain, at every power in
    order: a float fault recurs at every larger gain, and the far user's
    event, at the smaller gain of each pair, runs a prefix of the near
    user's operations, so an overflow on any trial of the leaf raises
    FloatingPointError there first, in the same operation.
    """
    th = thresholds(cfg, mode)

    def events(p: float):
        own_snr, far_message_sinr, window = _formulas(cfg, mode, p)

        def near_ok(g):
            return (far_message_sinr(g) > th.gamma_bar_f) & (own_snr(g) > th.gamma_bar_n)

        def far_ok(g):
            return far_message_sinr(g) >= th.gamma_bar_f

        return near_ok, far_ok, window

    def outages(powers: list):
        near, far, window = zip(*map(events, powers))
        # Per user and power, the cuts (lo, hi), which worker threads tighten.
        cuts = np.tile([-math.inf, math.inf], (2, len(powers), 1))

        def count(gain_n: np.ndarray, gain_f: np.ndarray) -> np.ndarray:
            gain_n.sort()
            gain_f.sort()
            for near_ok in near:
                near_ok(gain_n[-1:])
            return np.stack([
                g.size - _held(holds, g, user_cuts, window)
                for holds, g, user_cuts in zip((near, far), (gain_n, gain_f), cuts)
            ], axis=-1)

        return count

    # Counts are exact, so any partition of the trials gives the same ones.
    blocks = _walk(cfg, mode, p, trials, seed, workers, outages, (trials, trials))
    # Counted as floats, so that an all-trials count beyond int64 still divides.
    value = np.sum(blocks, axis=0, dtype=float).reshape(-1, 2).T / trials
    std_error = np.sqrt(value * (1.0 - value) / trials)
    shape = (2,) + np.shape(p)
    return value.reshape(shape), std_error.reshape(shape)


def estimate_ecr(
    cfg: SystemConfig, mode: Mode, p: float | np.ndarray, trials: int, seed: int, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ergodic rates and their standard errors, sample means of
    kappa_t*log2(1 + SINR) over the same trials; zero without resources.
    The shapes and `workers` are as for estimate_outage."""
    kappa_t, _ = comm_factors(mode)

    def leaf_sums(powers: list):
        # The SIC stage sets no rate: only the users' own SINRs are formed.
        sinrs = [_formulas(cfg, mode, p)[:2] for p in powers]

        def rate_sums(gain_n: np.ndarray, gain_f: np.ndarray) -> np.ndarray:
            v = np.empty(gain_n.size)
            rows = []
            for own_snr, far_message_sinr in sinrs:
                sums = []
                for sinr, gains in ((own_snr, gain_n), (far_message_sinr, gain_f)):
                    np.log1p(sinr(gains), out=v)
                    np.multiply(kappa_t, v, out=v)
                    np.divide(v, _LN2, out=v)
                    sums.append(float(np.sum(v)))
                    np.multiply(v, v, out=v)
                    sums.append(float(np.sum(v)))
                rows.append(sums)
            return np.array(rows)

        return rate_sums

    # Each (power, field) adds up its blocks in block order, exactly rounded.
    blocks = _walk(cfg, mode, p, trials, seed, workers, leaf_sums, (0.0,) * 4)
    sums = np.array([[math.fsum(field) for field in zip(*at_power)] for at_power in zip(*blocks)])
    total, sq_total = sums.reshape(-1, 2, 2).T
    value = total / trials
    if trials > 1:
        var = np.maximum(sq_total - trials * value * value, 0.0) / (trials - 1)
    else:
        var = np.zeros_like(value)
    std_error = np.sqrt(var / trials)
    shape = (2,) + np.shape(p)
    return value.reshape(shape), std_error.reshape(shape)


def sensing_mi_bruteforce(
    x_vector: Sequence[complex], corr: CorrelationMatrix, sigma2_s: float
) -> float:
    """Sensing mutual information in bits via the full LM x LM determinant.

    Stacks the echo model with X = I_M kron x and evaluates
    log2 det(I_LM + X R X^H / sigma2_s) directly; dimensioned for desk-scale
    identity checks only (L*M <= 256).
    """
    x = np.asarray(x_vector, dtype=complex).reshape(-1)
    big_l = x.size
    m = corr.size
    if big_l * m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"dense check limited to L*M <= {BRUTE_FORCE_LIMIT}")
    if not sigma2_s > 0.0:
        raise ValueError("sigma2_s must be positive")
    stacked = np.kron(np.eye(m), x[:, None])
    a = np.eye(big_l * m) + stacked @ corr.entries @ stacked.conj().T / sigma2_s
    return _log2_det(a)


def sensing_mi_reduced(
    x_vector: Sequence[complex], corr: CorrelationMatrix, sigma2_s: float
) -> float:
    """Sensing mutual information via the M x M reduction log2 det(I + x^H x R / sigma2_s)."""
    x = np.asarray(x_vector, dtype=complex).reshape(-1)
    if not sigma2_s > 0.0:
        raise ValueError("sigma2_s must be positive")
    energy = float(np.vdot(x, x).real)
    a = np.eye(corr.size) + energy * corr.entries / sigma2_s
    return _log2_det(a)


def _log2_det(a: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(a)
    if sign.real <= 0.0:
        raise ArithmeticError("determinant must be positive")
    return float(logdet) / _LN2


def orthogonal_streams(seed: int, length: int) -> np.ndarray:
    """Two data streams of `length` symbols with S S^H = length * I exactly.

    Rows are scaled orthonormal vectors, so downstream identity checks see
    no stream cross-correlation noise.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g = rng.normal(size=(length, 2)) + 1j * rng.normal(size=(length, 2))
    q, _ = np.linalg.qr(g)
    return math.sqrt(length) * q.conj().T


def dual_function_signal(p: float, alpha_n: float, alpha_f: float, streams: np.ndarray) -> np.ndarray:
    """Superimposed transmit vector sqrt(p)*(sqrt(alpha_n), sqrt(alpha_f)) @ S."""
    check_power(p)
    weights = np.asarray([math.sqrt(alpha_n), math.sqrt(alpha_f)])
    return math.sqrt(p) * weights @ streams


def estimate_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of y against x for a list of (x, y) points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("need at least two (x, y) points")
    x = pts[:, 0]
    y = pts[:, 1]
    if float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate abscissae")
    return float(np.polyfit(x, y, 1)[0])
