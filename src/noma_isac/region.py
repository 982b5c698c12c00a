"""Sensing-communication rate regions, Pareto frontier extraction, and the
region-containment check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _LN2, _noise_ratio, _psi_brackets, sensing_rate, split_sensing_rate, sum_rate
from .config import ISAC, SystemConfig, check_power

__all__ = [
    "ContainmentReport", "RatePoint", "RegionFrontier", "containment_check", "fdsac_frontier",
    "isac_corner",
]

#: Absolute slack allowed when comparing smooth rate expressions.
CONTAINMENT_EPS = 1e-9
#: Ratios per tile of the psi-bracket table, and about the points per block
#: of kappa rows, so that the frontier's closed-form temporaries do not grow
#: with the grid.
_TILE = 8192


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

    With n = fractions.size, grid point i splits at kappa = fractions[i // n]
    and mu = fractions[i % n], kappa varying slowest, and has rate_s[i] and
    rate_c[i].  pareto indexes the Pareto-maximal points, highest rate_s
    first.
    """

    fractions: np.ndarray
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
    return RatePoint(rate_s=sensing_rate(cfg, ISAC, p), rate_c=sum_rate(cfg, ISAC, p))


def fdsac_frontier(cfg: SystemConfig, p: float, grid_n: int) -> RegionFrontier:
    """Evaluate the split region on a grid_n x grid_n (kappa, mu) grid.

    The grid includes the exact endpoints 0 and 1 on both axes so the
    boundary equality cases are hit exactly.  The ergodic rates' psi
    brackets are evaluated once per distinct kappa*sigma2_c/mu, in tiles;
    blocks of kappa rows, about a tile of points each, then look their
    ratios up in that sorted table, an exact float match, so each point
    equals split_ergodic_rates at it.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    p = check_power(p)
    fractions = np.linspace(0.0, 1.0, grid_n)
    comm = fractions[1:]  # the fractions that give communications resources
    # Sorted in place: np.unique would copy the ratios and, without an
    # inverse, import numpy.ma (about 1.3 MB of RSS).
    ratio = _noise_ratio(cfg, comm[:, None], comm).ravel()
    ratio.sort()
    table = ratio[np.concatenate(([True], ratio[1:] != ratio[:-1]))]
    del ratio
    near, far = np.empty(table.size), np.empty(table.size)
    for start in range(0, table.size, _TILE):
        tile = slice(start, start + _TILE)
        near[tile], far[tile] = _psi_brackets(cfg, table[tile], p)
    rate_s, rate_c = np.empty((grid_n, grid_n)), np.zeros((grid_n, grid_n))
    rows = max(1, _TILE // grid_n)  # a block of about one tile of points
    for first in range(0, grid_n, rows):
        block = slice(first, first + rows)
        rate_s[block] = split_sensing_rate(cfg, fractions[block, None], fractions, p)
        on = slice(max(first, 1), first + rows)  # the block's rows with kappa > 0
        kappa = fractions[on, None]
        cells = np.searchsorted(table, _noise_ratio(cfg, kappa, comm))
        factor = kappa / _LN2
        rate_c[on, 1:] = factor * near[cells] + factor * far[cells]
    del table, near, far
    rate_s, rate_c = rate_s.ravel(), rate_c.ravel()
    return RegionFrontier(fractions, rate_s, rate_c, _pareto_subset(rate_s, rate_c))


def _pareto_subset(rate_s: np.ndarray, rate_c: np.ndarray) -> np.ndarray:
    # Sweep in decreasing rate_s, ties by decreasing rate_c, then by index (a
    # stable sort); a point survives iff it strictly improves the best rate_c
    # seen so far, so exact duplicates collapse to their first grid point.
    # Only candidates, in index order, are swept: points whose rate_c is at
    # least every rate_c before them by decreasing rate_s, ties in any order.
    # Each survivor is one, and any other point is beaten by a candidate ahead
    # of it in the sweep (maxima of vectors; Kung, Luccio & Preparata 1975).
    by_s = np.argsort(-rate_s)
    swept = rate_c[by_s]
    candidates = np.sort(by_s[swept >= np.maximum.accumulate(swept)])
    order = candidates[np.lexsort((-rate_c[candidates], -rate_s[candidates]))]
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
