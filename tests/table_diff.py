"""List the float cells that differ between two tables of one command.

    PYTHONPATH=src python tests/table_diff.py OLD NEW --config CFG [--p-db P]
        [--mode {isac,fdsac}] [--kappa K] [--mu M] [--trials N] [--seed S]

OLD and NEW are `region` or `ecr` tables written by the same command line,
CSV or JSON.  Rows are matched by their label cells (kind, kappa and mu; or
snr_db), and each changed float cell is printed with its old and new value
and a verdict: `closer`, `farther` or `as far` from the cell's reference.
A summary counts the changed cells per column and verdict, and gives the
largest relative error of a column's changed cells, old and new.

A closed-form cell's reference is that of tests/test_reference.py in mpmath,
evaluated from the row's float inputs.  A Monte Carlo cell's is the exact
statistic of the same trials: the per-trial rates are formed from
gain_samples and the per-trial SINRs of tests/test_montecarlo.py in the
estimator's order of operations (log1p, then times kappa_t, then over ln 2),
so that only their summation differs.  `ecr_*_mc` is then the exact sample
mean, the rates' exact sum divided once; `mc_stderr_*` is the standard error
from the exact sums of the rates and of their squares, in mpmath.

A JSON table carries its power, mode, fractions, trials and seed in its
metadata; a CSV table takes them from --p-db, --mode, --kappa, --mu, --trials
and --seed (the CLI's defaults, but for --trials, which has none).  A CSV
cell is judged by its 12 printed digits, whose last one a move of an ulp
turns next to a rounding tie; JSON keeps every bit.  A CSV sweep is judged
at the snr_db its cells print, which is the grid's float only where the
grid point prints exactly (integer dB, for example).
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

from noma_isac import ISAC, comm_factors, db_to_linear, fdsac, gain_samples
from noma_isac.cli import load_config_file


def _test_module(name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _test_module("test_reference")
_reference_sinrs = _test_module("test_montecarlo")._reference_sinrs
mpmath = reference.mpmath

#: A column only each table has, and the reference of its row.
_COMMANDS = {
    "rate_s": ("region", reference.region_columns),
    "ecr_n_analytic": ("ecr", reference.ecr_columns),
}
_LABELS = ("kind", "kappa", "mu", "snr_db")


def read_table(path: str) -> tuple[list[dict], dict, list[str]]:
    """Rows as dicts of cells (str in CSV, JSON values in JSON), the JSON
    metadata (empty for CSV) and the verdict: the CSV '#' trailer lines or
    the JSON containment entry."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return doc["rows"], doc["metadata"], [json.dumps(doc["metadata"].get("containment"))]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if not line.startswith("#")]
    return rows, {}, [line for line in lines if line.startswith("#")]


def _exact_sum(values: np.ndarray):
    # The sum of the floats as an mpf, exact to the working precision:
    # math.fsum's correctly rounded sum, then that of what it leaves, until
    # nothing is left.
    total, parts = mpmath.mpf(0), values.tolist()
    while (part := math.fsum(parts)) != 0.0:
        total += part
        parts.append(-part)
    return total


def sample_columns(cfg, mode, p: float, gain_n: np.ndarray, gain_f: np.ndarray) -> dict:
    """Exact Monte Carlo cells of an `ecr` row at power p over the trials'
    gains: each user's sample mean of the per-trial rates and its standard
    error."""
    kappa_t, _ = comm_factors(mode)
    _, snr_n, sinr_f = _reference_sinrs(cfg, mode, p, gain_n, gain_f)
    n = gain_n.size
    columns = {}
    for user, sinr in (("n", snr_n), ("f", sinr_f)):
        rates = np.log1p(sinr) * kappa_t / math.log(2.0)
        # Veltkamp's split: hi and lo have 26 bits each, so the three
        # products, whose sum is each square, are exact unless they underflow.
        c = rates * 134217729.0
        hi = c - (c - rates)
        lo = rates - hi
        total = _exact_sum(rates)
        squares = _exact_sum(np.concatenate([hi * hi, 2.0 * hi * lo, lo * lo]))
        var = (squares - total * total / n) / (n - 1) if n > 1 else mpmath.mpf(0)
        columns[f"ecr_{user}_mc"] = total / n
        columns[f"mc_stderr_{user}"] = mpmath.sqrt(max(var, 0) / n)
    return columns


def _float(cell) -> float:
    return float(cell) if cell not in ("", None) else float("nan")


def _key(row: dict) -> tuple:
    return tuple(str(row[k]) for k in _LABELS if k in row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--config", required=True)
    parser.add_argument("--p-db", type=float, default=5.0)
    parser.add_argument("--mode", choices=("isac", "fdsac"), default="isac")
    parser.add_argument("--kappa", type=float, default=0.5)
    parser.add_argument("--mu", type=float, default=0.5)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cfg = load_config_file(args.config)
    (old, meta, old_trailer), (new, _, new_trailer) = read_table(args.old), read_table(args.new)
    command, columns_at = next(v for k, v in _COMMANDS.items() if k in new[0])
    mode, kappa, mu = meta.get("mode", args.mode), meta.get("kappa", args.kappa), meta.get("mu", args.mu)
    split = (1.0, 1.0) if mode == "isac" else (kappa, mu)
    p_region = db_to_linear(meta.get("p_db", args.p_db))
    # Region fractions as the grid's floats, whatever their cells print.
    grid_n = round(sum(r["kind"] == "grid" for r in new) ** 0.5) if command == "region" else 0
    fractions = {f"{v:.12g}": v for v in np.linspace(0.0, 1.0, grid_n).tolist()}
    trials, seed = meta.get("trials", args.trials), meta.get("seed", args.seed)
    sampled = ISAC if mode == "isac" else fdsac(kappa, mu)

    @functools.cache
    def trial_gains():
        if not trials:
            parser.error("--trials is needed to judge the Monte Carlo cells of a CSV table")
        return gain_samples(cfg, seed, 0, trials)

    @functools.cache
    def sample_at(snr_db: float) -> dict:
        return sample_columns(cfg, sampled, db_to_linear(snr_db), *trial_gains())

    def exact(row: dict, column: str):
        if column.endswith("_mc") or column.startswith("mc_"):
            return sample_at(_float(row["snr_db"]))[column]
        if command != "region":
            return columns_at(cfg, *split, db_to_linear(_float(row["snr_db"])))[column]
        if row["kind"] == "corner":  # the ISAC point: all to sensing, or all to communications
            at = 0.0 if column == "rate_s" else 1.0
            return columns_at(cfg, at, at, p_region)[column]
        point = [fractions[f"{_float(row[k]):.12g}"] for k in ("kappa", "mu")]
        return columns_at(cfg, *point, p_region)[column]

    old_rows = {_key(r): r for r in old}
    new_keys = {_key(r) for r in new}
    counts = collections.Counter()
    worst = collections.defaultdict(lambda: [0.0, 0.0])  # largest relative error, old and new
    with mpmath.workdps(50):
        for row in new:
            before = old_rows.get(_key(row))
            if before is None:
                print("added row", " ".join(_key(row)))
                continue
            for column, cell in row.items():
                if column in _LABELS or before[column] == cell:
                    continue
                a, b = _float(before[column]), _float(cell)
                ref = exact(row, column)
                d_old, d_new = abs(mpmath.mpf(a) - ref), abs(mpmath.mpf(b) - ref)
                verdict = "closer" if d_new < d_old else "farther" if d_new > d_old else "as far"
                if ref != 0:
                    errors = (float(d_old / abs(ref)), float(d_new / abs(ref)))
                    worst[column] = [max(w, e) for w, e in zip(worst[column], errors)]
                counts[column, verdict] += 1
                print(" ".join(_key(row)), column, repr(before[column]), "->", repr(cell), verdict)
    for key in old_rows.keys() - new_keys:
        print("removed row", " ".join(key))
    if old_trailer != new_trailer:
        print("verdict:", old_trailer, "->", new_trailer)
    print(f"# {command}: {sum(counts.values())} changed cells")
    for (column, verdict), n in sorted(counts.items()):
        print(f"# {column} {verdict}: {n}")
    for column, (w_old, w_new) in sorted(worst.items()):
        print(f"# {column} largest relative error of the changed cells: {w_old:.3g} -> {w_new:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
