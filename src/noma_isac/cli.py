"""Command-line front end.

Loads key=value configuration files, runs analytic and Monte Carlo sweeps,
computes rate regions, and exposes the acceptance selftest.  Data goes to the
output file or stdout; warnings go to stderr only.

Exit codes: 0 success, 1 usage/config/numerical error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Optional, Sequence

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
    validate_config,
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
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc

    values: dict[str, str] = {}
    strengths: list[float] = []
    aoas: list[float] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "target.strength":
            strengths.append(_parse_float(path, lineno, key, value))
        elif key == "target.aoa":
            aoas.append(_parse_float(path, lineno, key, value))
        elif key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

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
        fields[key] = _parse_float(path, 0, key, values[key])
    for key in INT_FIELDS:
        if key not in values:
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            fields[key] = int(values[key])
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r} must be an integer") from exc

    if "sensing_eigenvalues" in values and scene is not None:
        raise ValueError(
            f"{path}: give either 'sensing_eigenvalues' or a target scene "
            "('target.strength'/'target.aoa'), not both"
        )
    if "sensing_eigenvalues" in values:
        items = [v for v in values["sensing_eigenvalues"].split(",") if v.strip()]
        fields["sensing_eigenvalues"] = tuple(
            _parse_float(path, 0, "sensing_eigenvalues", v) for v in items
        )
    elif scene is None:
        raise ValueError(f"{path}: missing key 'sensing_eigenvalues' (or a target scene)")

    try:
        if scene is not None:
            fields["sensing_eigenvalues"] = scene_eigenvalues(scene, int(fields["num_rx_antennas"]))
        return validate_config(SystemConfig(**fields))  # type: ignore[arg-type]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_float(path: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        where = f"{path}:{lineno}: " if lineno else f"{path}: "
        raise ValueError(f"{where}key {key!r} must be a number, got {value!r}") from exc


def dump_config(cfg: SystemConfig) -> str:
    """Serialize a SystemConfig back to key=value text that load_config_file
    reads back to an equal config: every float is written by repr."""
    lines = []
    for key in FLOAT_FIELDS:
        lines.append(f"{key} = {float(getattr(cfg, key))!r}")
    for key in INT_FIELDS:
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines.append(
        "sensing_eigenvalues = " + ", ".join(repr(float(v)) for v in cfg.sensing_eigenvalues)
    )
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


#: Rows of a JSON table encoded per json.dumps call: enough to amortise the
#: call, few enough that the encoded cells stay small.
_JSON_BLOCK_ROWS = 4096


def _write_table(
    output: str,
    fmt: str,
    columns: dict[str, Sequence | np.ndarray],
    metadata: dict,
    trailer: Optional[str] = None,
) -> None:
    """Write equal-length named columns as a CSV or JSON table, in key order.

    A CSV column whose first cell is a string is written as it is, any other
    to 12 significant digits.  The JSON document is the one json.dumps writes
    with indent=2 and sorted keys.  Either way rows are formatted from one
    template and written one at a time.
    """
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    if fmt == "csv":
        formats = ("%s" if col and isinstance(col[0], str) else "%.12g" for col in values)
        template = ",".join(formats) + "\n"
        lines = itertools.chain(
            [",".join(columns) + "\n"],
            (template % row for row in zip(*values)),
            ["# " + trailer + "\n"] if trailer else [],
        )
    else:
        lines = _json_lines(dict(zip(columns, values)), metadata)
    if output == "-":
        sys.stdout.writelines(lines)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)


def _json_lines(columns: dict[str, Sequence], metadata: dict):
    # json.dumps({"metadata": ..., "rows": [{key: cell}, ...]}, indent=2,
    # sort_keys=True) + "\n", line by line.  The C encoder encodes each
    # column a block of rows at a time, with "\0" between cells; no encoded
    # cell holds one, as json escapes a string's control characters.
    keys = sorted(columns)
    fields = (json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
    template = "    {\n      " + ",\n      ".join(fields) + "\n    }"
    yield json.dumps({"metadata": metadata}, indent=2, sort_keys=True)[:-2] + ',\n  "rows": ['
    separator = "\n"
    for start in range(0, len(columns[keys[0]]), _JSON_BLOCK_ROWS):
        block = (columns[key][start : start + _JSON_BLOCK_ROWS] for key in keys)
        cells = (json.dumps(part, separators=("\0", ":"))[1:-1].split("\0") for part in block)
        for row in zip(*cells):
            yield separator + template % row
            separator = ",\n"
    yield ("]" if separator == "\n" else "\n  ]") + "\n}\n"


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
        raise ValueError(f"{option} {db:g} dB is not a positive finite power") from None
    return p


@contextmanager
def _named_power(option: str, db: float):
    """Report an overflow of the closed forms as a fault of the dB option."""
    try:
        yield
    except ArithmeticError as exc:
        raise ValueError(f"{option} {db:g} dB is out of range: {exc}") from None


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
        raise ValueError(f"--snr-db-step {args.snr_db_step:g} gives more points than an array holds")
    count = int(math.floor(span + 1e-9)) + 1
    return (args.snr_db_min + np.arange(count) * args.snr_db_step).tolist()


def _split_from_args(args: argparse.Namespace) -> Mode:
    """The fdsac mode of --kappa and --mu, each of which must lie in [0, 1]."""
    for option, value in (("--kappa", args.kappa), ("--mu", args.mu)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{option} {value:g} must lie in [0, 1]")
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


def _sweep_command(command: str, args: argparse.Namespace) -> int:
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
    if args.trials > 0 and 0.0 < kappa * cfg.sigma2_c < sys.float_info.min:
        # The per-trial SNR, divided by a subnormal noise power, overflows.
        raise ValueError(f"--kappa {args.kappa!r} makes the noise power kappa * sigma2_c subnormal")
    if command == "outage" and not thresholds(cfg, mode).feasible:
        print(
            "warning: infeasible power allocation (alpha_f <= gamma_bar_f * alpha_n "
            "or zero communication resources); outage probability is 1",
            file=sys.stderr,
        )
    powers = db_to_linear(grid)
    with _named_power("--snr-db-max", args.snr_db_max):
        columns = {"snr_db": grid, **_closed_form_columns(command, cfg, mode, powers)}
        if args.trials > 0:
            estimator = estimate_outage if command == "outage" else estimate_ecr
            estimates = estimator(cfg, mode, powers.tolist(), args.trials, args.seed, args.workers)
            cells = [(n.value, f.value, n.std_error, f.std_error) for n, f in estimates]
            columns.update(zip(_MC_COLUMNS[command], zip(*cells)))
    meta = _metadata(
        command, cfg, mode=mode.tag, kappa=kappa, mu=mu, snr_db=grid, trials=args.trials, seed=args.seed
    )
    _write_table(args.output, args.format, columns, meta)
    return 0


def cmd_outage(args: argparse.Namespace) -> int:
    return _sweep_command("outage", args)


def cmd_ecr(args: argparse.Namespace) -> int:
    return _sweep_command("ecr", args)


def cmd_sensing(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    split = _split_from_args(args)
    grid = _snr_grid(args)
    powers = db_to_linear(grid)
    with _named_power("--snr-db-max", args.snr_db_max):
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
    with _named_power("--p-db", args.p_db):
        corner = isac_corner(cfg, p)
        frontier = fdsac_frontier(cfg, p, args.grid_n)
    report = containment_check(corner, frontier)
    verdict = "contained" if report.holds else "not contained"
    # The corner row, every grid point, then the Pareto points again.
    pareto = frontier.pareto

    def column(values: np.ndarray, at_corner: Optional[float]) -> list:
        return [at_corner, *values.tolist(), *values[pareto].tolist()]

    def split_column(values: np.ndarray) -> list:
        # kappa and mu take grid_n distinct values: a CSV formats each once,
        # and leaves the corner's cell empty.
        if args.format == "json":
            return column(values, None)
        distinct, inverse = np.unique(values, return_inverse=True)
        cells = np.array([_fmt(v) for v in distinct.tolist()], dtype=object)[inverse]
        return column(cells, "")

    columns = {
        "kind": ["corner", *["grid"] * frontier.kappa.size, *["pareto"] * pareto.size],
        "kappa": split_column(frontier.kappa),
        "mu": split_column(frontier.mu),
        "rate_s": column(frontier.rate_s, corner.rate_s),
        "rate_c": column(frontier.rate_c, corner.rate_c),
    }
    meta = _metadata(
        "region",
        cfg,
        p_db=args.p_db,
        grid_n=args.grid_n,
        containment={"verdict": verdict, "max_violation": report.max_violation},
    )
    trailer = f"containment: {verdict}, max_violation = {_fmt(report.max_violation)}"
    _write_table(args.output, args.format, columns, meta, trailer)
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

    for name, func in (("outage", cmd_outage), ("ecr", cmd_ecr), ("sensing", cmd_sensing)):
        sp = sub.add_parser(name, help=f"{name} sweep table")
        _add_io_flags(sp)
        _add_grid_flags(sp)
        if name != "sensing":
            sp.add_argument("--trials", type=int, default=0, help="0 = analytic only")
            sp.add_argument("--seed", type=int, default=1)
            sp.add_argument("--mode", choices=("isac", "fdsac"), default="isac")
            sp.add_argument("--workers", type=int, default=1, help="threads over each block's powers")
        sp.set_defaults(func=func)

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # Overflow or non-convergence from an extreme input, such as --p-db 4000.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A grid too large for this host, such as region --grid-n 50000.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
