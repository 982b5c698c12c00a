"""Command-line front end.

Loads key=value configuration files, runs analytic and Monte Carlo sweeps,
computes rate regions, and exposes the acceptance selftest.  Data goes to the
output file or stdout; warnings go to stderr only.

Exit codes: 0 success, 1 usage/config/numerical error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .analytic import (
    ergodic_rates,
    ergodic_rates_asymptotic,
    outage_asymptotic,
    outage_probability,
    sensing_rate,
    sensing_rate_asymptotic,
    thresholds,
)
from .channel import Target, TargetScene, scene_eigenvalues
from .config import (
    FLOAT_FIELDS,
    INT_FIELDS,
    ISAC,
    Mode,
    SystemConfig,
    check_power,
    comm_factors,
    db_to_linear,
    fdsac,
)
from .montecarlo import estimate_ecr, estimate_outage
from .region import containment_check, fdsac_frontier, isac_corner

def load_config_file(path: str) -> SystemConfig:
    """Parse a key=value config file into a validated SystemConfig.

    `sensing_eigenvalues` takes a comma-separated list; a target scene,
    given instead as repeated `target.strength` / `target.aoa` pairs,
    supplies the eigen-spectrum.  Raises ValueError naming the file on any
    parse or validation error, including a file that gives both.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc

    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    strengths: list[float] = []
    aoas: list[float] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not (equals and key):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key == "target.strength":
            strengths.append(_parse_float(path, lineno, key, value))
        elif key == "target.aoa":
            aoas.append(_parse_float(path, lineno, key, value))
        elif key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key], linenos[key] = value, lineno

    scene = None
    if strengths or aoas:
        if len(strengths) != len(aoas):
            raise ValueError(f"{path}: target.strength/target.aoa counts differ")
        try:
            scene = TargetScene(
                targets=tuple(Target(strength=s, aoa=a) for s, a in zip(strengths, aoas))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    known = set(FLOAT_FIELDS) | set(INT_FIELDS) | {"sensing_eigenvalues"}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(f"{path}: unknown keys {', '.join(unknown)}")

    fields: dict[str, object] = {}
    for key in FLOAT_FIELDS:
        if key not in values:
            raise ValueError(f"{path}: missing key {key!r}")
        fields[key] = _parse_float(path, linenos[key], key, values[key])
    for key in INT_FIELDS:
        if key not in values:
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            fields[key] = int(values[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{linenos[key]}: key {key!r} must be an integer") from exc

    if "sensing_eigenvalues" in values and scene is not None:
        raise ValueError(
            f"{path}: give either 'sensing_eigenvalues' or a target scene "
            "('target.strength'/'target.aoa'), not both"
        )
    if "sensing_eigenvalues" in values:
        # An empty value is the empty spectrum; an empty item is an error.
        items = values["sensing_eigenvalues"].split(",") if values["sensing_eigenvalues"] else []
        lineno = linenos["sensing_eigenvalues"]
        fields["sensing_eigenvalues"] = tuple(
            _parse_float(path, lineno, "sensing_eigenvalues", v.strip()) for v in items
        )
    elif scene is None:
        raise ValueError(f"{path}: missing key 'sensing_eigenvalues' (or a target scene)")

    try:
        # A scene's spectrum is computed once the antenna count is validated.
        cfg = SystemConfig(**fields)  # type: ignore[arg-type]
        if scene is not None:
            cfg = replace(cfg, sensing_eigenvalues=scene_eigenvalues(scene, cfg.num_rx_antennas))
        return cfg
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_float(path: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: key {key!r} must be a number, got {value!r}") from exc


def dump_config(cfg: SystemConfig) -> str:
    """Serialize a SystemConfig back to key=value text that load_config_file
    reads back to an equal config: every float is written by repr."""
    lines = [f"{key} = {getattr(cfg, key)!r}" for key in (*FLOAT_FIELDS, *INT_FIELDS)]
    lines.append("sensing_eigenvalues = " + ", ".join(map(repr, cfg.sensing_eigenvalues)))
    return "\n".join(lines) + "\n"


#: Rows of a table formatted per block: enough to amortise the numpy and
#: json.dumps calls, few enough that a block's buffers stay small.
_BLOCK_ROWS = 4096

#: 10**k for k in [0, 15], exact floats.
_POW10 = np.array([float(10**k) for k in range(16)])


@functools.cache
def _quad_table() -> np.ndarray:
    # Each of 0..9999 as four ASCII digits, little-endian in one uint32: as
    # they are, with the leading zeros padded, and with the trailing zeros
    # padded; the pad byte is 0xFF.  No UTF-8 text holds 0xFF, so a block of
    # CSV rows is laid out in fixed-width cells filled with pads, and the
    # pads deleted at once.  Built at the first CSV table, not at import.
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    lead, trail = digits == 0, digits == 0
    for j in range(1, 4):
        lead[j] &= lead[j - 1]
        trail[3 - j] &= trail[4 - j]
    pads = np.stack([np.zeros_like(lead), lead, trail], axis=1).reshape(4, -1)
    places = np.where(pads, 0xFF, np.tile(digits + ord("0"), 3)).astype("<u4")
    table = (places << np.array([[0], [8], [16], [24]], "<u4")).sum(axis=0, dtype="<u4")
    table.flags.writeable = False
    return table


#: Offsets into _quad_table() of the tables with leading and with trailing zeros
#: padded; either holds four pads at 0.
_LEAD, _TRAIL = 10000, 20000


def _g12_cells(v: np.ndarray) -> np.ndarray:
    """Cells of '%.12g' % v for a 1-D float array, as pad-filled uint8 rows.

    A cell in fixed notation, 0 or -0 is formatted in numpy.  With X the
    decimal exponent, |v| * 10**(11 - X) is formed exactly as hi + lo
    (Dekker's TwoProduct) and rounded half to even to the 12-digit integer
    N, or N = 0 at X = 0 for 0.  X is estimated by log10 and checked against
    hi.  The integer part of N / 10**(11 - X) fills 12 digit columns and
    its fraction, times 1e15, the 15 columns after the point, which
    therefore has a fixed column; the integer part's leading zeros and the
    fraction's trailing zeros are pads.  Every other cell (nan, +-inf,
    0 < |v| < 1e-4, exponential notation, a wrong estimate) is Python's
    '%.12g', the reference.
    """
    a = np.abs(v)
    candidate = (a >= 1e-4) & (a < 1e12)
    a = np.where(candidate, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), -4, 11).astype(np.intp)
    hi, lo = _two_product(a, _POW10[11 - x])
    # X is right where 1e11 <= hi + lo < 1e12.  Where hi is 1e11 or 1e12 but
    # hi + lo is not, |v| is within half an ulp of a power of ten, which it
    # rounds to under X as under the true exponent.
    fast = candidate & (hi >= 1e11) & (hi <= 1e12)
    n = np.floor(hi)
    f = hi - n
    # hi is a multiple of its ulp (< 1/2) and |lo| <= ulp/2, so only f == 0.5
    # needs lo, and only lo == 0 is a tie.
    half = 0.5 * n
    n += (f > 0.5) | ((f == 0.5) & ((lo > 0.0) | ((lo == 0.0) & (half != np.floor(half)))))
    # Rounding up to 1e12 adds a digit: 1e11 at exponent X + 1.
    carry = n == 1e12
    x += carry
    fast &= x <= 11
    n = np.where(fast & ~carry, n, 1e11)
    zero = v == 0.0
    n[zero] = 0.0
    fast |= zero
    x[~fast] = 0
    scale = _POW10[11 - x]
    whole = np.floor(n / scale)
    frac = (n - whole * scale) * _POW10[4 + x]
    # Columns: 4 pads, 12 integer digits, then the fraction's 16 digits, of
    # which the first, always 0, is the point's.  The integer part's groups
    # drop leading zeros up to its first nonzero one, the fraction's drop
    # trailing zeros from its last nonzero one.
    groups = [*_quad_split(whole, 3), *_quad_split(frac, 4)]
    index = np.empty((8, v.size), np.intp)
    index[0] = _LEAD
    for places, offset in ((range(1, 4), _LEAD), (range(7, 3, -1), _TRAIL)):
        seen = np.zeros(v.size, bool)
        for k in places:
            group = groups[k - 1].astype(np.intp)
            index[k] = np.where(seen, group, group + offset)
            seen |= group != 0
    cells = np.ascontiguousarray(_quad_table()[index.T]).view(np.uint8)
    cells[whole == 0, 15] = ord("0")
    cells[frac != 0, 16] = ord(".")
    negative = np.flatnonzero(np.signbit(v))
    cells[negative, 14 - np.maximum(x[negative], 0)] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        # '%.12g' of a float takes at most 19 bytes, within a cell's 32 columns.
        text = _text_cells(["%.12g" % cell for cell in v[slow].tolist()])
        cells[slow] = 0xFF
        cells[slow, : text.shape[1]] = text
    return cells


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hi + lo == a * b exactly, with hi = fl(a * b) (Dekker), for products
    # that neither overflow nor underflow.
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp's split of a into two 26-bit halves.
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _quad_split(value: np.ndarray, count: int) -> list[np.ndarray]:
    # The count 4-digit groups of integer-valued floats below 1e4**count
    # (at most 1e16), most significant first; every step is exact.
    groups = []
    for _ in range(count - 1):
        quotient = np.floor(value / 1e4)
        groups.append(value - quotient * 1e4)
        value = quotient
    return [value, *groups[::-1]]


def _text_cells(text: list[str]) -> np.ndarray:
    # Each str's UTF-8 bytes as a pad-filled uint8 row as wide as the widest.
    # A str ends where the next one's first character starts, at a byte that
    # is not 0b10xxxxxx.
    data = np.frombuffer("".join(text).encode("utf-8"), np.uint8)
    starts = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    sizes = np.diff(starts[np.cumsum(np.fromiter(map(len, text), np.intp, len(text)))], prepend=0)
    cells = np.full((len(text), sizes.max()), 0xFF, np.uint8)
    cells[np.arange(cells.shape[1]) < sizes[:, None]] = data
    return cells


def _repr_cells(v: np.ndarray) -> np.ndarray:
    # The json module's cells of a nonempty float array: repr, NaN or
    # +-Infinity, from the C encoder with "\0", which no cell holds, between them.
    return _text_cells(json.dumps(v.tolist(), separators=("\0", ":"))[1:-1].split("\0"))


def _write_table(
    output: str,
    fmt: str,
    columns: dict[str, Sequence | np.ndarray],
    metadata: dict,
    trailer: Optional[str] = None,
    labels: Optional[dict[str, Sequence]] = None,
) -> None:
    """Write equal-length named columns as a CSV or JSON table, in key order.

    A column holds floats or, where labels has its key, integer codes into
    that short sequence of str, float or None labels.  A CSV cell is written
    as '%.12g' % cell, a str as it is and None as empty.  The JSON document
    is the one json.dumps writes with indent=2 and sorted keys, each code
    replaced by its label.  Either is written a block of rows at a time.
    """
    labels = labels or {}
    if fmt == "csv":
        head = ",".join(columns) + "\n"
        fragments = ["", *[","] * (len(columns) - 1), "\n"]
        text = {
            key: ["" if v is None else v if isinstance(v, str) else "%.12g" % v for v in values]
            for key, values in labels.items()
        }
        blocks = _table_lines(columns, text, _g12_cells, fragments)
        end = "# " + trailer + "\n" if trailer else ""
    else:
        # Each row starts with ",", its separator from the row before; the first drops it.
        columns = dict(sorted(columns.items()))
        head = json.dumps({"metadata": metadata}, indent=2, sort_keys=True)[:-2] + ',\n  "rows": ['
        fragments = [",\n      " + json.dumps(key) + ": " for key in columns] + ["\n    }"]
        fragments[0] = ",\n    {" + fragments[0][1:]
        text = {key: [json.dumps(v) for v in values] for key, values in labels.items()}
        blocks = _table_lines(columns, text, _repr_cells, fragments)
        first = next(blocks, "")
        blocks = itertools.chain([first[1:]], blocks)
        end = "\n  ]\n}\n" if first else "]\n}\n"
    lines = itertools.chain([head], blocks, [end])
    if output == "-":
        sys.stdout.writelines(lines)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)


def _table_lines(
    columns: dict, label_text: dict[str, list[str]], float_cells: Callable, fragments: list[str]
) -> Iterator[str]:
    # A block's rows go into one uint8 array, fragments[j] before cell j and
    # the last after the last cell, and its pad bytes are deleted.  The block's
    # floats are formatted in one call; a label column gathers cells by code.
    coded = {key: _text_cells(text) for key, text in label_text.items()}
    numbers = [np.asarray(c, float) for key, c in columns.items() if key not in coded]
    marks = [np.frombuffer(f.encode("utf-8"), np.uint8) for f in fragments]
    rows = len(next(iter(columns.values()), ()))
    for first in range(0, rows, _BLOCK_ROWS):
        block = slice(first, first + _BLOCK_ROWS)
        values = [c[block] for c in numbers]
        floats = iter(np.split(float_cells(np.concatenate(values)), len(values)) if values else ())
        cells = [coded[k][c[block]] if k in coded else next(floats) for k, c in columns.items()]
        parts = [np.broadcast_to(mark, (len(cells[0]), mark.size)) for mark in marks]
        line = np.concatenate([*itertools.chain(*zip(parts, cells)), parts[-1]], axis=1)
        yield line.tobytes().translate(None, b"\xff").decode()


def _metadata(command: str, cfg: SystemConfig, **extra: object) -> dict:
    meta: dict[str, object] = {"command": command, "config": asdict(cfg)}
    meta.update(extra)
    return meta


def _linear_power(option: str, db: float) -> float:
    """Linear power of a dB option, which must be a positive finite float."""
    try:
        p = db_to_linear(db)
        check_power(p)
    except (OverflowError, ValueError):
        raise ValueError(f"{option} {db!r} dB is not a positive finite power") from None
    return p


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"--seed {seed} must lie in [0, 2**64)")


#: Most float64 elements one numpy array can hold.
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8


def _snr_grid(args: argparse.Namespace) -> list[float]:
    """dB power grid from --snr-db-min to --snr-db-max in steps of --snr-db-step."""
    _linear_power("--snr-db-min", args.snr_db_min)
    _linear_power("--snr-db-max", args.snr_db_max)
    if args.snr_db_min > args.snr_db_max:
        raise ValueError("--snr-db-min must not exceed --snr-db-max")
    if not 0.0 < args.snr_db_step < math.inf:
        raise ValueError("--snr-db-step must be positive and finite")
    span = (args.snr_db_max - args.snr_db_min) / args.snr_db_step
    if not span < _MAX_ELEMENTS:
        raise ValueError(f"--snr-db-step {args.snr_db_step!r} gives more points than an array holds")
    count = int(math.floor(span + 1e-9)) + 1
    return (args.snr_db_min + np.arange(count) * args.snr_db_step).tolist()


def _split_from_args(args: argparse.Namespace) -> Mode:
    """The fdsac mode of --kappa and --mu, each of which must lie in [0, 1]."""
    for option, value in (("--kappa", args.kappa), ("--mu", args.mu)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{option} {value!r} must lie in [0, 1]")
    return fdsac(args.kappa, args.mu)


_MC_COLUMNS = {
    "outage": ("pout_n_mc", "pout_f_mc", "mc_stderr_n", "mc_stderr_f"),
    "ecr": ("ecr_n_mc", "ecr_f_mc", "mc_stderr_n", "mc_stderr_f"),
}


def _closed_form_columns(command: str, cfg: SystemConfig, mode: Mode, powers: np.ndarray) -> dict:
    if command == "outage":
        names = ("pout_n_analytic", "pout_f_analytic", "pout_n_asym", "pout_f_asym")
        values = (*outage_probability(cfg, mode, powers), *outage_asymptotic(cfg, mode, powers))
        return dict(zip(names, values))
    ecr_n, ecr_f = ergodic_rates(cfg, mode, powers)
    asym = ergodic_rates_asymptotic(cfg, mode, powers)
    names = ("ecr_n_analytic", "ecr_f_analytic", "ecr_sum_analytic", "ecr_n_asym", "ecr_f_asym")
    return dict(zip(names, (ecr_n, ecr_f, ecr_n + ecr_f, *asym)))


def _sweep_command(args: argparse.Namespace) -> int:
    # outage or ecr, by the subcommand's name.
    command = args.command
    cfg = load_config_file(args.config)
    split = _split_from_args(args)
    mode = ISAC if args.mode == "isac" else split
    grid = _snr_grid(args)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers} must be at least 1")
    _check_seed(args.seed)
    kappa, mu = comm_factors(mode)
    powers = db_to_linear(grid)
    columns = {"snr_db": grid, **_closed_form_columns(command, cfg, mode, powers)}
    if args.trials > 0:
        estimator = estimate_outage if command == "outage" else estimate_ecr
        value, std_error = estimator(cfg, mode, powers, args.trials, args.seed, args.workers)
        columns.update(zip(_MC_COLUMNS[command], (*value, *std_error)))
    if command == "outage" and not thresholds(cfg, mode).feasible:
        print(
            "warning: infeasible power allocation (alpha_f <= gamma_bar_f * alpha_n "
            "or zero communication resources); outage probability is 1",
            file=sys.stderr,
        )
    meta = _metadata(
        command, cfg, mode=mode.tag, kappa=kappa, mu=mu, snr_db=grid, trials=args.trials, seed=args.seed
    )
    _write_table(args.output, args.format, columns, meta)
    return 0


def cmd_sensing(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    split = _split_from_args(args)
    grid = _snr_grid(args)
    powers = db_to_linear(grid)
    columns = {
        "snr_db": grid,
        "sr_isac": sensing_rate(cfg, ISAC, powers),
        "sr_isac_asym": sensing_rate_asymptotic(cfg, ISAC, powers),
        "sr_fdsac": sensing_rate(cfg, split, powers),
        "sr_fdsac_asym": sensing_rate_asymptotic(cfg, split, powers),
    }
    meta = _metadata("sensing", cfg, kappa=args.kappa, mu=args.mu, snr_db=grid)
    _write_table(args.output, args.format, columns, meta)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    p = _linear_power("--p-db", args.p_db)
    if args.grid_n < 2:
        raise ValueError(f"--grid-n {args.grid_n} must be at least 2")
    if args.grid_n**2 > _MAX_ELEMENTS:
        raise ValueError(f"--grid-n {args.grid_n} gives more points than an array holds")
    corner = isac_corner(cfg, p)
    frontier = fdsac_frontier(cfg, p, args.grid_n)
    report = containment_check(corner, frontier)
    verdict = "contained" if report.holds else "not contained"
    # The corner row, every grid point, then the Pareto points again.  The
    # grid's kappa varies slowest and mu fastest over the same grid_n
    # fractions, which label both split columns; code 0 is the corner's
    # empty cell.
    grid_n, grid_size, pareto = args.grid_n, frontier.rate_s.size, frontier.pareto
    fractions = (None, *frontier.fractions.tolist())
    steps = np.arange(grid_n + 1, dtype=np.min_scalar_type(grid_n))
    columns = {
        "kind": np.repeat(np.arange(3, dtype=np.uint8), [1, grid_size, pareto.size]),
        "kappa": np.concatenate((steps[:1], np.repeat(steps[1:], grid_n), steps[pareto // grid_n + 1])),
        "mu": np.concatenate((steps[:1], np.tile(steps[1:], grid_n), steps[pareto % grid_n + 1])),
        "rate_s": np.concatenate(([corner.rate_s], frontier.rate_s, frontier.rate_s[pareto])),
        "rate_c": np.concatenate(([corner.rate_c], frontier.rate_c, frontier.rate_c[pareto])),
    }
    del frontier  # so that no second copy of the rates is alive while rows are written
    labels = {"kind": ("corner", "grid", "pareto"), "kappa": fractions, "mu": fractions}
    meta = _metadata(
        "region",
        cfg,
        p_db=args.p_db,
        grid_n=args.grid_n,
        containment={"verdict": verdict, "max_violation": report.max_violation},
    )
    trailer = f"containment: {verdict}, max_violation = {report.max_violation:.12g}"
    _write_table(args.output, args.format, columns, meta, trailer, labels)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    cfg = load_config_file(args.config)
    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} must be at least 1")
    _check_seed(args.seed)
    results = run_all(cfg, args.trials, args.seed)
    width = max(len(res.name) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<{width}}  {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"result: {n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 2


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1; argparse defaults to 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db-min", type=float, default=0.0)
    parser.add_argument("--snr-db-max", type=float, default=40.0)
    parser.add_argument("--snr-db-step", type=float, default=5.0)
    parser.add_argument("--kappa", type=float, default=0.5, help="fdsac bandwidth fraction")
    parser.add_argument("--mu", type=float, default=0.5, help="fdsac power fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noma-isac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("outage", "ecr", "sensing"):
        sp = sub.add_parser(name, help=f"{name} sweep table")
        _add_io_flags(sp)
        _add_grid_flags(sp)
        if name != "sensing":
            sp.add_argument("--trials", type=int, default=0, help="0 = analytic only")
            sp.add_argument("--seed", type=int, default=1)
            sp.add_argument("--mode", choices=("isac", "fdsac"), default="isac")
            sp.add_argument("--workers", type=int, default=1, help="threads over leaves")
        sp.set_defaults(func=cmd_sensing if name == "sensing" else _sweep_command)

    sp = sub.add_parser("region", help="rate region and containment check")
    _add_io_flags(sp)
    sp.add_argument("--p-db", type=float, default=5.0)
    sp.add_argument("--grid-n", type=int, default=101)
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    sp.add_argument("--config", required=True, help="key=value config file")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.set_defaults(func=cmd_selftest)
    return parser


def _inputs_in_effect(args: argparse.Namespace) -> str:
    # The numeric inputs the command's arithmetic reads, the grid's top first.
    named = []
    if args.command in ("outage", "ecr", "sensing"):
        named += [f"--snr-db-max {args.snr_db_max!r} dB", f"--snr-db-min {args.snr_db_min!r} dB"]
        if args.command == "sensing" or args.mode == "fdsac":
            named += [f"--kappa {args.kappa!r}", f"--mu {args.mu!r}"]
    if args.command == "region":
        named.append(f"--p-db {args.p_db!r} dB")
    return ", ".join([*named, f"--config {args.config}"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Every float fault but underflow raises where it happens, so no numpy
        # warning reaches stderr; worker threads set their own error state.
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # Overflow, division by zero, nan or non-convergence, at inputs the
        # formulas cannot carry, such as --snr-db-max 1545 or a subnormal sigma2_c.
        # Python's float ** raises with (errno, text): the text is printed alone.
        reason = exc.args[-1] if exc.args else exc
        print(f"error: {_inputs_in_effect(args)}: out of range: {reason}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A grid too large for this host, such as region --grid-n 50000.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
