"""Simulation-side oracles: per-trial SINRs, empirical outage/rate estimators,
the dense sensing mutual-information identity check, and slope fitting.

Estimates are pure functions of (cfg, mode, powers, trials, seed).  Trials
are processed in fixed-size blocks, each drawn once and shared by every power
of the call; partial sums are combined in block order, so the estimate at one
power depends neither on the other powers nor on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import thresholds
from .channel import CorrelationMatrix, gain_samples
from .config import Mode, SystemConfig, check_power, comm_factors, has_comm_resources

__all__ = [
    "EstimateWithError", "dual_function_signal", "estimate_ecr", "estimate_outage",
    "estimate_slope", "orthogonal_streams", "sensing_mi_bruteforce", "sensing_mi_reduced",
]

_CHUNK = 1 << 20
_LN2 = math.log(2.0)

#: Largest dense identity-check problem, in total matrix dimension L*M.
BRUTE_FORCE_LIMIT = 256


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error and trial count."""

    value: float
    std_error: float
    trials: int


def _sinr_arrays(
    cfg: SystemConfig,
    kappa_t: float,
    mu_t: float,
    p: float,
    gain_n: np.ndarray,
    gain_f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Per-trial SINRs of the SIC stage, the near user's own message and the
    # far user, for kappa_t > 0.
    noise = kappa_t * cfg.sigma2_c
    sig_n = mu_t * p * gain_n
    sinr_sic = _far_message_sinr(cfg, noise, sig_n)
    return sinr_sic, sig_n * cfg.alpha_n / noise, _far_message_sinr(cfg, noise, mu_t * p * gain_f)


def _far_message_sinr(cfg: SystemConfig, noise: float, sig: np.ndarray) -> np.ndarray:
    # SINR of the far user's message at received power sig, with the near
    # user's message as interference: the SIC stage, or the far user itself.
    return sig * cfg.alpha_f / (noise + sig * cfg.alpha_n)


def _per_block(
    cfg: SystemConfig,
    mode: Mode,
    powers: Sequence[float],
    trials: int,
    seed: int,
    kernel,
    no_resources,
) -> list[list]:
    # kernel(p, gain_n, gain_f) for every power against each trial block,
    # indexed [power][block].  Each block is drawn once, and each kernel call
    # frees its per-power arrays before the next power's are made.  Without
    # communication resources nothing is drawn: each power gets the one
    # all-trials result `no_resources`.
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_power(powers)
    if not has_comm_resources(*comm_factors(mode)):
        return [[no_resources] for _ in powers]
    results: list[list] = [[] for _ in powers]
    for start in range(0, trials, _CHUNK):
        gain_n, gain_f = gain_samples(cfg, seed, start, min(_CHUNK, trials - start))
        # A received power that overflows raises FloatingPointError, rather
        # than passing on inf or nan.
        with np.errstate(over="raise", invalid="raise"):
            for per_block, p in zip(results, powers):
                per_block.append(kernel(p, gain_n, gain_f))
    return results


def estimate_outage(
    cfg: SystemConfig, mode: Mode, powers: Sequence[float], trials: int, seed: int
) -> list[tuple[EstimateWithError, EstimateWithError]]:
    """Empirical outage probabilities (near, far) at each of `powers`.

    A near-user trial is in outage unless both the SIC stage and its own
    message clear their thresholds; a far-user trial is in outage when its
    SINR falls below the far-user threshold.  Without a sub-band or power to
    decode with, every trial is an outage.  Every power sees the same trials.
    """
    kappa_t, mu_t = comm_factors(mode)
    th = thresholds(cfg, mode)

    def outages(p: float, gain_n: np.ndarray, gain_f: np.ndarray) -> tuple[int, int]:
        sic, snr_n, sinr_f = _sinr_arrays(cfg, kappa_t, mu_t, p, gain_n, gain_f)
        ok_n = (sic > th.gamma_bar_f) & (snr_n > th.gamma_bar_n)
        out_f = int(np.count_nonzero(sinr_f < th.gamma_bar_f))
        return gain_n.size - int(np.count_nonzero(ok_n)), out_f

    estimates = []
    for blocks in _per_block(cfg, mode, powers, trials, seed, outages, (trials, trials)):
        out_n, out_f = (sum(column) for column in zip(*blocks))
        estimates.append((_binomial_estimate(out_n, trials), _binomial_estimate(out_f, trials)))
    return estimates


def _binomial_estimate(successes: int, trials: int) -> EstimateWithError:
    phat = successes / trials
    return EstimateWithError(
        value=phat,
        std_error=math.sqrt(phat * (1.0 - phat) / trials),
        trials=trials,
    )


def estimate_ecr(
    cfg: SystemConfig, mode: Mode, powers: Sequence[float], trials: int, seed: int
) -> list[tuple[EstimateWithError, EstimateWithError]]:
    """Empirical ergodic rates (near, far) at each of `powers`, sample means
    of kappa_t*log2(1 + SINR) over the same trials; zero without resources."""
    kappa_t, mu_t = comm_factors(mode)
    noise = kappa_t * cfg.sigma2_c

    def rate_sums(p: float, gain_n: np.ndarray, gain_f: np.ndarray) -> tuple[float, ...]:
        # The SIC stage sets no rate: only the users' own SINRs are formed.
        val_n = kappa_t * np.log1p(mu_t * p * gain_n * cfg.alpha_n / noise) / _LN2
        val_f = kappa_t * np.log1p(_far_message_sinr(cfg, noise, mu_t * p * gain_f)) / _LN2
        sums = tuple(float(np.sum(v)) for v in (val_n, val_f))
        return sums + tuple(float(np.sum(v * v)) for v in (val_n, val_f))

    estimates = []
    for blocks in _per_block(cfg, mode, powers, trials, seed, rate_sums, (0.0,) * 4):
        sum_n, sum_f, sq_n, sq_f = (math.fsum(column) for column in zip(*blocks))
        estimates.append((_mean_estimate(sum_n, sq_n, trials), _mean_estimate(sum_f, sq_f, trials)))
    return estimates


def _mean_estimate(total: float, sq_total: float, trials: int) -> EstimateWithError:
    mean = total / trials
    if trials > 1:
        var = max(sq_total - trials * mean * mean, 0.0) / (trials - 1)
    else:
        var = 0.0
    return EstimateWithError(
        value=mean,
        std_error=math.sqrt(var / trials),
        trials=trials,
    )


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
    sign, logdet = np.linalg.slogdet(a)
    if sign.real <= 0.0:
        raise ArithmeticError("determinant must be positive")
    return float(logdet) / _LN2


def sensing_mi_reduced(
    x_vector: Sequence[complex], corr: CorrelationMatrix, sigma2_s: float
) -> float:
    """Sensing mutual information via the M x M reduction log2 det(I + x^H x R / sigma2_s)."""
    x = np.asarray(x_vector, dtype=complex).reshape(-1)
    if not sigma2_s > 0.0:
        raise ValueError("sigma2_s must be positive")
    energy = float(np.vdot(x, x).real)
    a = np.eye(corr.size) + energy * corr.entries / sigma2_s
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
