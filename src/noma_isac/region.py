"""Sensing-communication rate regions, Pareto frontier extraction, and the
region-containment check, together with the scalar monotonicity kernels the
containment argument rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ergodic_rates, sensing_rate, split_ergodic_rates, split_sensing_rate
from .config import ISAC, SystemConfig

#: Absolute slack allowed when comparing smooth rate expressions.
CONTAINMENT_EPS = 1e-9


@dataclass(frozen=True)
class RatePoint:
    """Achievable (sensing rate, sum communication rate) pair in bits/s/Hz."""

    rate_s: float
    rate_c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_s) and math.isfinite(self.rate_c)):
            raise ValueError("rates must be finite")
        if self.rate_s < 0.0 or self.rate_c < 0.0:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class RegionFrontier:
    """Rate pairs of a (kappa, mu) split grid and its Pareto-maximal subset.

    Grid point i has kappa[i], mu[i], rate_s[i] and rate_c[i], kappa varying
    slowest.  pareto indexes the Pareto-maximal points, highest rate_s first.
    """

    kappa: np.ndarray
    mu: np.ndarray
    rate_s: np.ndarray
    rate_c: np.ndarray
    pareto: np.ndarray


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of testing the split region against the integrated corner."""

    holds: bool
    max_violation: float


def isac_corner(cfg: SystemConfig, p: float) -> RatePoint:
    """Corner of the integrated-mode rectangle: full sensing and sum rate."""
    if not p > 0.0:
        raise ValueError("p must be positive")
    ecr_n, ecr_f = ergodic_rates(cfg, ISAC, p)
    return RatePoint(rate_s=sensing_rate(cfg, ISAC, p), rate_c=ecr_n + ecr_f)


def fdsac_frontier(cfg: SystemConfig, p: float, grid_n: int) -> RegionFrontier:
    """Evaluate the split region on a grid_n x grid_n (kappa, mu) grid.

    The grid includes the exact endpoints 0 and 1 on both axes so the
    boundary equality cases are hit exactly.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    fractions = np.linspace(0.0, 1.0, grid_n)
    kappa = np.repeat(fractions, grid_n)
    mu = np.tile(fractions, grid_n)
    ecr_n, ecr_f = split_ergodic_rates(cfg, kappa, mu, p)
    rate_s = split_sensing_rate(cfg, kappa, mu, p)
    rate_c = ecr_n + ecr_f
    return RegionFrontier(kappa, mu, rate_s, rate_c, _pareto_subset(rate_s, rate_c))


def _pareto_subset(rate_s: np.ndarray, rate_c: np.ndarray) -> np.ndarray:
    # Sweep in decreasing rate_s, ties by decreasing rate_c, then by index (a
    # stable sort); a point survives iff it strictly improves the best rate_c
    # seen so far, so exact duplicates collapse to their first grid point.
    order = np.lexsort((-rate_c, -rate_s))
    swept = rate_c[order]
    best_before = np.maximum.accumulate(np.concatenate(([-math.inf], swept[:-1])))
    return order[swept > best_before]


def containment_check(corner: RatePoint, frontier: RegionFrontier) -> ContainmentReport:
    """Check that every split grid point is dominated by the integrated corner.

    max_violation is the largest coordinate excess over the corner across
    the grid (negative when all points are strictly inside).
    """
    worst = max(
        float(np.max(frontier.rate_s - corner.rate_s)),
        float(np.max(frontier.rate_c - corner.rate_c)),
    )
    return ContainmentReport(holds=worst <= CONTAINMENT_EPS, max_violation=worst)


def bandwidth_scaled_rate(x: float, a: float, b: float) -> float:
    """Rate through a fractional band: x * ln(1 + a/(x + b)), nats.

    Strictly increasing on x in [0, 1] for a > 0, b >= 0, which is what makes
    shrinking a sub-band never pay off.
    """
    if not a > 0.0:
        raise ValueError("a must be positive")
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    return x * math.log1p(a / (x + b))


def log_plus_ratio(x: float, c: float) -> float:
    """Monotone helper ln(x + c) + c/(x + c), nondecreasing on x >= 0 for c >= 0.

    The derivative of bandwidth_scaled_rate in its fraction argument equals
    log_plus_ratio(a + b, x) - log_plus_ratio(b, x).
    """
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x + c == 0.0:
        raise ValueError("x + c must be positive")
    return math.log(x + c) + c / (x + c)
