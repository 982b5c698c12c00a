"""Sensing-communication rate regions, Pareto frontier extraction, and the
region-containment check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .analytic import _LN2, _noise_ratio, _psi_brackets, sensing_rate, split_sensing_rate, sum_rate
from .config import ISAC, SystemConfig, check_power

__all__ = [
    "ContainmentReport", "FrontierSweep", "RatePoint", "RegionFrontier", "containment_check",
    "fdsac_frontier", "isac_corner",
]

#: Absolute slack allowed when comparing smooth rate expressions.
CONTAINMENT_EPS = 1e-9
#: Ratios per tile of the psi-bracket table, and about the points per block
#: of kappa rows, so that the closed-form temporaries, a block's rates and
#: the CSV rows written from them do not grow with the grid.
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

    @property
    def largest_rates(self) -> tuple[float, float]:
        """The largest rate_s and rate_c over the grid."""
        return float(self.rate_s.max()), float(self.rate_c.max())


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of testing the split region against the integrated corner."""

    holds: bool
    max_violation: float


def isac_corner(cfg: SystemConfig, p: float) -> RatePoint:
    """Corner of the integrated-mode rectangle: full sensing and sum rate."""
    return RatePoint(rate_s=sensing_rate(cfg, ISAC, p), rate_c=sum_rate(cfg, ISAC, p))


class FrontierSweep:
    """The split region on a grid_n x grid_n (kappa, mu) grid, a block of
    kappa rows at a time.

    The grid includes the exact endpoints 0 and 1 on both axes so the
    boundary equality cases are hit exactly.  Construction evaluates the
    ergodic rates' psi brackets once per distinct kappa*sigma2_c/mu, in
    tiles, and raises the float fault of the first block whose sensing
    rates would raise one: the sensing SNR's operations are monotone in
    kappa and mu, so a block's faults are those of its rows at mu = 0 and
    mu = 1, tried block by block.  So iterating raises none.

    Iterating yields (row, rate_s, rate_c) per block of about a tile of
    points: its first kappa row and its points' rates, mu varying fastest.
    Each ratio looks its brackets up in the sorted table, an exact float
    match, so each point equals split_ergodic_rates and split_sensing_rate
    at it.  Each block's Pareto survivors and the largest rates are kept for
    pareto() and largest_rates, which raise RuntimeError until every block
    was yielded.
    """

    def __init__(self, cfg: SystemConfig, p: float, grid_n: int) -> None:
        if grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        self._cfg, self._p = cfg, check_power(p)
        self.fractions = fractions = np.linspace(0.0, 1.0, grid_n)
        comm = fractions[1:]  # the fractions that give communications resources
        # Sorted in place: np.unique would copy the ratios and, without an
        # inverse, import numpy.ma (about 1.3 MB of RSS).
        ratio = _noise_ratio(cfg, comm[:, None], comm).ravel()
        ratio.sort()
        self._table = ratio[np.concatenate(([True], ratio[1:] != ratio[:-1]))]
        del ratio
        self._near, self._far = np.empty(self._table.size), np.empty(self._table.size)
        for start in range(0, self._table.size, _TILE):
            tile = slice(start, start + _TILE)
            self._near[tile], self._far[tile] = _psi_brackets(cfg, self._table[tile], self._p)
        self._rows = rows = max(1, _TILE // grid_n)  # a block of about one tile of points
        for first in range(0, grid_n, rows):  # the first block's fault
            split_sensing_rate(cfg, fractions[first : first + rows, None], (0.0, 1.0), self._p)
        self._walked = None  # the largest rates and survivors of the last walk

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        cfg, p, fractions, rows = self._cfg, self._p, self.fractions, self._rows
        grid_n = fractions.size
        top, survivors = (-math.inf, -math.inf), _Survivors()
        for first in range(0, grid_n, rows):
            kappa = fractions[first : first + rows, None]
            rate_s = split_sensing_rate(cfg, kappa, fractions, p)
            rate_c = np.zeros(rate_s.shape)
            on = slice(1 if first == 0 else 0, None)  # the rows with kappa > 0
            kappa = kappa[on]
            cells = np.searchsorted(self._table, _noise_ratio(cfg, kappa, fractions[1:]))
            factor = kappa / _LN2
            rate_c[on, 1:] = factor * self._near[cells] + factor * self._far[cells]
            rate_s, rate_c = rate_s.ravel(), rate_c.ravel()
            top = np.maximum(top, (rate_s.max(), rate_c.max()))  # keeps a nan, as np.max does
            survivors.add(first * grid_n, rate_s, rate_c)
            yield first, rate_s, rate_c
        self._walked = tuple(top.tolist()), survivors

    def _result(self) -> tuple:
        if self._walked is None:
            raise RuntimeError("the sweep has not yielded every block")
        return self._walked

    @property
    def largest_rates(self) -> tuple[float, float]:
        """The largest rate_s and rate_c over the grid."""
        return self._result()[0]

    def pareto(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid indices, rate_s and rate_c of the Pareto-maximal points,
        highest rate_s first, as _pareto_subset of the whole grid gives them."""
        return self._result()[1].merged()


class _Survivors:
    # The Pareto points, as (index, rate_s, rate_c), of blocks of points
    # added in index order.  Each block keeps its _pareto_subset, and the
    # points kept are swept again, in the order added, once the later blocks'
    # outnumber the last sweep's.  A point that the sweep of the whole drops
    # is beaten, ahead of it in the sweep with a rate_c as large, by a point
    # that it keeps (the relation is transitive), which no sweep drops; so
    # the last sweep keeps exactly the whole's.  Positions break ties only
    # between equal points, which a sweep's survivors never hold two of.

    def __init__(self) -> None:
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, first: int, rate_s: np.ndarray, rate_c: np.ndarray) -> None:
        keep = _pareto_subset(rate_s, rate_c)
        self._runs.append((first + keep, rate_s[keep], rate_c[keep]))
        if sum(run[0].size for run in self._runs[1:]) > self._runs[0][0].size:
            self.merged()

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The points kept so far, swept again; highest rate_s first.
        index, rate_s, rate_c = (np.concatenate(v) for v in zip(*self._runs))
        order = _pareto_subset(rate_s, rate_c)
        self._runs = [(index[order], rate_s[order], rate_c[order])]
        return self._runs[0]


def fdsac_frontier(cfg: SystemConfig, p: float, grid_n: int) -> RegionFrontier:
    """Evaluate the split region on a grid_n x grid_n (kappa, mu) grid: the
    blocks of a FrontierSweep, collected."""
    sweep = FrontierSweep(cfg, p, grid_n)
    rate_s, rate_c = np.empty(grid_n * grid_n), np.empty(grid_n * grid_n)
    for row, block_s, block_c in sweep:
        at = slice(row * grid_n, row * grid_n + block_s.size)
        rate_s[at], rate_c[at] = block_s, block_c
    return RegionFrontier(sweep.fractions, rate_s, rate_c, sweep.pareto()[0])


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


def containment_check(corner: RatePoint, frontier: RegionFrontier | FrontierSweep) -> ContainmentReport:
    """Check that every split grid point is dominated by the integrated corner.

    max_violation is the largest coordinate excess over the corner across
    the grid (negative when all points are strictly inside).  Rounding is
    monotone, so that is the excess of the largest rates, which a sweep
    holds once its blocks were walked.
    """
    top_s, top_c = frontier.largest_rates
    worst = max(top_s - corner.rate_s, top_c - corner.rate_c)
    return ContainmentReport(holds=worst <= CONTAINMENT_EPS, max_violation=worst)
