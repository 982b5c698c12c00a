"""Sensing-communication rate regions, Pareto frontier extraction, and the
region-containment check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ergodic_rates, sensing_rate, split_ergodic_rates, split_sensing_rate
from .config import ISAC, SystemConfig

__all__ = [
    "ContainmentReport", "RatePoint", "RegionFrontier", "containment_check", "fdsac_frontier",
    "isac_corner",
]

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
    ecr_n, ecr_f = ergodic_rates(cfg, ISAC, p)
    return RatePoint(rate_s=sensing_rate(cfg, ISAC, p), rate_c=ecr_n + ecr_f)


def fdsac_frontier(cfg: SystemConfig, p: float, grid_n: int) -> RegionFrontier:
    """Evaluate the split region on a grid_n x grid_n (kappa, mu) grid.

    The grid includes the exact endpoints 0 and 1 on both axes so the
    boundary equality cases are hit exactly.
    """
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
