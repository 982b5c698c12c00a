"""Output checks for the benchmark's CLI invocations.

At run time every output's SHA-256 must equal the digest recorded from the
seed commit (``digests.json``).  Before a digest is recorded
(``record_digests.py``), the output must pass a check that does not trust
the program:

- outage: each Monte Carlo column lies within 3 sigma of its closed-form
  column, sigma being the binomial standard error implied by the closed form;
- ecr: each Monte Carlo column lies within max(3 standard errors, 1e-2) of its
  closed-form column (the band the acceptance gate uses);
- region: the trailer says ``contained``; there are 1 + grid_n**2 + pareto
  rows; every grid point is dominated by the corner; and the Pareto rows equal
  a Pareto subset recomputed here from the grid rows.

The selftest prints no data file; its stdout, which is digested in place of
a file, must report ``result: 10/10``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
CONTAINMENT_EPS = 1e-9


def digest_key(argv: list[str]) -> str:
    """Canonical name of a command's output: argv without paths or --workers.

    Output bytes must not depend on the worker count, so both worker counts
    of one command share a digest.
    """
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in ("--config", "--output", "--workers"):
            skip = True
            continue
        out.append(arg)
    return " ".join(out)


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_rows(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    header: list[str] = []
    rows: list[list[str]] = []
    comments: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif i == 0:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, comments


def _columns(header: list[str], rows: list[list[str]]) -> dict[str, np.ndarray]:
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: table[:, i] for i, name in enumerate(header)}


def check_outage(path: Path, trials: int) -> str | None:
    header, rows, _ = _read_rows(path)
    if not rows:
        return "outage: no rows"
    col = _columns(header, rows)
    for user in ("n", "f"):
        exact = col[f"pout_{user}_analytic"]
        est = col[f"pout_{user}_mc"]
        sigma = np.sqrt(exact * (1.0 - exact) / trials)
        excess = np.abs(est - exact) - 3.0 * sigma
        if np.any(excess > 0.0):
            i = int(np.argmax(excess))
            return (
                f"outage: pout_{user}_mc = {est[i]:.12g} at {col['snr_db'][i]:g} dB is "
                f"outside 3 sigma of {exact[i]:.12g}"
            )
    return None


def check_ecr(path: Path) -> str | None:
    header, rows, _ = _read_rows(path)
    if not rows:
        return "ecr: no rows"
    col = _columns(header, rows)
    for user in ("n", "f"):
        exact = col[f"ecr_{user}_analytic"]
        est = col[f"ecr_{user}_mc"]
        band = np.maximum(3.0 * col[f"mc_stderr_{user}"], 1e-2)
        if np.any(np.abs(est - exact) > band):
            return f"ecr: ecr_{user}_mc outside max(3 SE, 1e-2) of the closed form"
    return None


def pareto_points(rate_s: np.ndarray, rate_c: np.ndarray) -> np.ndarray:
    """Pareto-maximal distinct (rate_s, rate_c) points, highest rate_s first."""
    pts = np.unique(np.stack([rate_s, rate_c], axis=1), axis=0)
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    pts = pts[order]
    best_before = np.maximum.accumulate(np.concatenate(([-math.inf], pts[:-1, 1])))
    return pts[pts[:, 1] > best_before]


def check_region(path: Path, grid_n: int) -> str | None:
    header, rows, comments = _read_rows(path)
    if header != ["kind", "kappa", "mu", "rate_s", "rate_c"]:
        return f"region: unexpected header {header!r}"
    if not comments or not comments[-1].startswith("# containment: contained,"):
        return "region: trailer does not say 'contained'"
    kinds = [row[0] for row in rows]
    if kinds[:1] != ["corner"] or kinds[1 : 1 + grid_n**2] != ["grid"] * grid_n**2:
        return "region: expected one corner row followed by grid_n**2 grid rows"
    pareto_rows = rows[1 + grid_n**2 :]
    if any(kind != "pareto" for kind in kinds[1 + grid_n**2 :]):
        return "region: unexpected rows after the grid"
    corner_s, corner_c = float(rows[0][3]), float(rows[0][4])
    grid = np.array([row[1:] for row in rows[1 : 1 + grid_n**2]], dtype=float)
    fractions = np.linspace(0.0, 1.0, grid_n)
    if not (
        np.allclose(grid[:, 0], np.repeat(fractions, grid_n), rtol=0.0, atol=1e-12)
        and np.allclose(grid[:, 1], np.tile(fractions, grid_n), rtol=0.0, atol=1e-12)
    ):
        return "region: grid rows are not the (kappa, mu) grid"
    worst = max(float(np.max(grid[:, 2] - corner_s)), float(np.max(grid[:, 3] - corner_c)))
    if worst > CONTAINMENT_EPS:
        return f"region: grid point exceeds the corner by {worst!r}"
    expected = pareto_points(grid[:, 2], grid[:, 3])
    got = np.array([row[3:] for row in pareto_rows], dtype=float).reshape(-1, 2)
    if len(rows) != 1 + grid_n**2 + len(expected):
        return f"region: {len(rows)} rows, expected 1 + {grid_n}**2 + {len(expected)}"
    if not np.array_equal(got, expected):
        return "region: Pareto rows differ from the recomputed Pareto subset"
    return None


def check_selftest(stdout: str) -> str | None:
    if "result: 10/10 checks passed" not in stdout.splitlines():
        return "selftest: output does not read 'result: 10/10 checks passed'"
    return None
