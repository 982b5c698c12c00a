"""Command-line front end.

Loads key=value configuration files, runs analytic and Monte Carlo sweeps,
computes rate regions, and exposes the acceptance selftest.  Data goes to the
output file or stdout; warnings go to stderr only.

Exit codes: 0 success, 1 usage/config/numerical error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Iterator, Optional, Sequence

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
from .region import FrontierSweep, containment_check, isac_corner
from .table import _write_table

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


def _sweep_command(cfg: SystemConfig, args: argparse.Namespace) -> int:
    # outage or ecr, by the subcommand's name.
    command = args.command
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


def cmd_sensing(cfg: SystemConfig, args: argparse.Namespace) -> int:
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


def cmd_region(cfg: SystemConfig, args: argparse.Namespace) -> int:
    p = _linear_power("--p-db", args.p_db)
    if args.grid_n < 2:
        raise ValueError(f"--grid-n {args.grid_n} must be at least 2")
    if args.grid_n**2 > _MAX_ELEMENTS:
        raise ValueError(f"--grid-n {args.grid_n} gives more points than an array holds")
    grid_n = args.grid_n
    corner = isac_corner(cfg, p)
    # Every float fault is raised here, before the output is opened.
    sweep = FrontierSweep(cfg, p, grid_n)
    # CSV rows are written as each block of the grid is formed; the JSON
    # head carries the containment verdict, so its blocks are formed first.
    blocks = sweep if args.format == "csv" else list(sweep)
    # The corner row, every grid point, then the Pareto points again, as
    # label codes and rates.  The grid's kappa varies slowest and mu fastest
    # over the same grid_n fractions, which label both split columns; code 0
    # is the corner's empty cell.
    steps = np.arange(grid_n + 1, dtype=np.min_scalar_type(grid_n))

    def run(kind: int, kappa: np.ndarray, mu: np.ndarray, rate_s, rate_c) -> dict:
        kinds = np.full(len(kappa), kind, np.uint8)
        return {"kind": kinds, "kappa": kappa, "mu": mu, "rate_s": rate_s, "rate_c": rate_c}

    def runs() -> Iterator[dict]:
        yield run(0, steps[:1], steps[:1], [corner.rate_s], [corner.rate_c])
        for row, rate_s, rate_c in blocks:
            rows = rate_s.size // grid_n
            kappa, mu = np.repeat(steps[row + 1 : row + 1 + rows], grid_n), np.tile(steps[1:], rows)
            yield run(1, kappa, mu, rate_s, rate_c)
        pareto, rate_s, rate_c = sweep.pareto()
        yield run(2, steps[pareto // grid_n + 1], steps[pareto % grid_n + 1], rate_s, rate_c)

    def containment() -> dict:
        report = containment_check(corner, sweep)
        verdict = "contained" if report.holds else "not contained"
        return {"verdict": verdict, "max_violation": report.max_violation}

    fractions = (None, *sweep.fractions.tolist())
    labels = {"kind": ("corner", "grid", "pareto"), "kappa": fractions, "mu": fractions}
    meta = {}
    if args.format == "json":
        meta = _metadata("region", cfg, p_db=args.p_db, grid_n=grid_n, containment=containment())
    trailer = "containment: {verdict}, max_violation = {max_violation:.12g}".format
    _write_table(args.output, args.format, runs(), meta, lambda: trailer(**containment()), labels)
    return 0


def cmd_selftest(cfg: SystemConfig, args: argparse.Namespace) -> int:
    from .acceptance import run_all

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
            status = args.func(load_config_file(args.config), args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: exit 1 without a line, so a
        # cut table never reads as whole; with fd 1 on devnull the last flush passes.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
