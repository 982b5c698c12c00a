"""Command-line front end.

Loads key=value configuration files, runs analytic and Monte Carlo sweeps,
computes rate regions, and exposes the acceptance selftest.  Data goes to the
output file or stdout; warnings go to stderr only.

Exit codes: 0 success, 1 usage/config/numerical error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Optional, Sequence

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

_INT_FIELDS = ("num_rx_antennas", "frame_length")


class ConfigFileError(ValueError):
    """Raised when a configuration file cannot be parsed or validated."""


def load_config_file(path: str) -> tuple[SystemConfig, Optional[TargetScene]]:
    """Parse a key=value config file into a validated SystemConfig and scene.

    `sensing_eigenvalues` takes a comma-separated list; a target scene is
    given as repeated `target.strength` / `target.aoa` pairs and supplies the
    eigen-spectrum when the explicit list is omitted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path!r}: {exc}") from exc

    values: dict[str, str] = {}
    strengths: list[float] = []
    aoas: list[float] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "target.strength":
            strengths.append(_parse_float(path, lineno, key, value))
        elif key == "target.aoa":
            aoas.append(_parse_float(path, lineno, key, value))
        elif key in values:
            raise ConfigFileError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    scene = None
    if strengths or aoas:
        if len(strengths) != len(aoas):
            raise ConfigFileError(f"{path}: target.strength/target.aoa counts differ")
        try:
            scene = TargetScene(
                targets=tuple(Target(strength=s, aoa=a) for s, a in zip(strengths, aoas))
            )
        except ValueError as exc:
            raise ConfigFileError(f"{path}: {exc}") from exc

    known = set(FLOAT_FIELDS) | set(_INT_FIELDS) | {"sensing_eigenvalues"}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigFileError(f"{path}: unknown keys {', '.join(unknown)}")

    fields: dict[str, object] = {}
    for key in FLOAT_FIELDS:
        if key not in values:
            raise ConfigFileError(f"{path}: missing key {key!r}")
        fields[key] = _parse_float(path, 0, key, values[key])
    for key in _INT_FIELDS:
        if key not in values:
            raise ConfigFileError(f"{path}: missing key {key!r}")
        try:
            fields[key] = int(values[key])
        except ValueError as exc:
            raise ConfigFileError(f"{path}: key {key!r} must be an integer") from exc

    if "sensing_eigenvalues" in values:
        items = [v for v in values["sensing_eigenvalues"].split(",") if v.strip()]
        fields["sensing_eigenvalues"] = tuple(
            _parse_float(path, 0, "sensing_eigenvalues", v) for v in items
        )
    elif scene is not None:
        fields["sensing_eigenvalues"] = scene_eigenvalues(scene, int(fields["num_rx_antennas"]))
    else:
        raise ConfigFileError(f"{path}: missing key 'sensing_eigenvalues' (or a target scene)")

    try:
        cfg = validate_config(SystemConfig(**fields))  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    return cfg, scene


def _parse_float(path: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        where = f"{path}:{lineno}: " if lineno else f"{path}: "
        raise ConfigFileError(f"{where}key {key!r} must be a number, got {value!r}") from exc


def dump_config(cfg: SystemConfig, scene: Optional[TargetScene] = None) -> str:
    """Serialize a SystemConfig (and optional scene) back to key=value text."""
    lines = []
    for key in FLOAT_FIELDS:
        lines.append(f"{key} = {_fmt(getattr(cfg, key))}")
    for key in _INT_FIELDS:
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines.append(
        "sensing_eigenvalues = " + ", ".join(_fmt(v) for v in cfg.sensing_eigenvalues)
    )
    if scene is not None:
        for tgt in scene.targets:
            lines.append(f"target.strength = {_fmt(tgt.strength)}")
            lines.append(f"target.aoa = {_fmt(tgt.aoa)}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _json_ready(value: object) -> object:
    if isinstance(value, tuple):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _write_table(
    output: str,
    fmt: str,
    fieldnames: Sequence[str],
    rows: Sequence[dict],
    metadata: dict,
    trailer: Optional[str] = None,
) -> None:
    if fmt == "csv":
        lines = [",".join(fieldnames)]
        for row in rows:
            lines.append(",".join([_cell(row.get(name)) for name in fieldnames]))
        if trailer:
            lines.append("# " + trailer)
        text = "\n".join(lines) + "\n"
    else:
        doc = {"metadata": _json_ready(metadata), "rows": [_json_ready(r) for r in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _metadata(command: str, cfg: SystemConfig, **extra: object) -> dict:
    meta: dict[str, object] = {"command": command, "config": asdict(cfg)}
    meta.update(extra)
    return meta


def _map_rows(worker, tasks, workers: int) -> list[dict]:
    if workers <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _linear_power(option: str, db: float) -> float:
    """Linear power of a dB option, which must be a positive finite float."""
    try:
        p = db_to_linear(db)
        check_power(p)
    except (OverflowError, ValueError):
        raise ValueError(f"{option} {db:g} dB is not a positive finite power") from None
    return p


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"--seed {seed} must lie in [0, 2**64)")


def _snr_grid(args: argparse.Namespace) -> list[float]:
    """dB power grid from --snr-db-min to --snr-db-max in steps of --snr-db-step."""
    _linear_power("--snr-db-min", args.snr_db_min)
    _linear_power("--snr-db-max", args.snr_db_max)
    if args.snr_db_min > args.snr_db_max:
        raise ValueError("--snr-db-min must not exceed --snr-db-max")
    if not 0.0 < args.snr_db_step < math.inf:
        raise ValueError("--snr-db-step must be positive and finite")
    count = int(math.floor((args.snr_db_max - args.snr_db_min) / args.snr_db_step + 1e-9)) + 1
    return [args.snr_db_min + i * args.snr_db_step for i in range(count)]


def _mode_from_args(args: argparse.Namespace) -> Mode:
    if args.mode == "isac":
        return ISAC
    return fdsac(args.kappa, args.mu)


def _outage_row(task) -> dict:
    cfg, mode, snr_db, trials, seed = task
    p = db_to_linear(snr_db)
    row: dict[str, object] = {"snr_db": snr_db}
    pn, pf = outage_probability(cfg, mode, p)
    row["pout_n_analytic"] = pn
    row["pout_f_analytic"] = pf
    if thresholds(cfg, mode).feasible:
        an, af = outage_asymptotic(cfg, mode, p)
    else:
        an, af = 1.0, 1.0
    row["pout_n_asym"] = an
    row["pout_f_asym"] = af
    if trials > 0:
        est_n, est_f = estimate_outage(cfg, mode, p, trials, seed)
        row["pout_n_mc"] = est_n.value
        row["pout_f_mc"] = est_f.value
        row["mc_stderr_n"] = est_n.std_error
        row["mc_stderr_f"] = est_f.std_error
    return row


def _ecr_row(task) -> dict:
    cfg, mode, snr_db, trials, seed = task
    p = db_to_linear(snr_db)
    row: dict[str, object] = {"snr_db": snr_db}
    ecr_n, ecr_f = ergodic_rates(cfg, mode, p)
    asym_n, asym_f = ergodic_rates_asymptotic(cfg, mode, p)
    row["ecr_n_analytic"] = ecr_n
    row["ecr_f_analytic"] = ecr_f
    row["ecr_sum_analytic"] = ecr_n + ecr_f
    row["ecr_n_asym"] = asym_n
    row["ecr_f_asym"] = asym_f
    if trials > 0:
        est_n, est_f = estimate_ecr(cfg, mode, p, trials, seed)
        row["ecr_n_mc"] = est_n.value
        row["ecr_f_mc"] = est_f.value
        row["mc_stderr_n"] = est_n.std_error
        row["mc_stderr_f"] = est_f.std_error
    return row


_OUTAGE_COLUMNS = ("pout_n_analytic", "pout_f_analytic", "pout_n_asym", "pout_f_asym")
_ECR_COLUMNS = (
    "ecr_n_analytic",
    "ecr_f_analytic",
    "ecr_sum_analytic",
    "ecr_n_asym",
    "ecr_f_asym",
)
_MC_COLUMNS = {
    "outage": ("pout_n_mc", "pout_f_mc", "mc_stderr_n", "mc_stderr_f"),
    "ecr": ("ecr_n_mc", "ecr_f_mc", "mc_stderr_n", "mc_stderr_f"),
}


def _sweep_command(command: str, args: argparse.Namespace) -> int:
    cfg, _ = load_config_file(args.config)
    mode = _mode_from_args(args)
    grid = _snr_grid(args)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    _check_seed(args.seed)
    if command == "outage" and not thresholds(cfg, mode).feasible:
        print(
            "warning: infeasible power allocation (alpha_f <= gamma_bar_f * alpha_n "
            "or zero communication resources); outage probability is 1",
            file=sys.stderr,
        )
    worker = _outage_row if command == "outage" else _ecr_row
    tasks = [(cfg, mode, snr_db, args.trials, args.seed) for snr_db in grid]
    rows = _map_rows(worker, tasks, args.workers)
    fieldnames = ["snr_db"]
    fieldnames += list(_OUTAGE_COLUMNS if command == "outage" else _ECR_COLUMNS)
    if args.trials > 0:
        fieldnames += list(_MC_COLUMNS[command])
    meta = _metadata(
        command,
        cfg,
        mode=mode.tag,
        kappa=comm_factors(mode)[0],
        mu=comm_factors(mode)[1],
        snr_db=grid,
        trials=args.trials,
        seed=args.seed,
    )
    _write_table(args.output, args.format, fieldnames, rows, meta)
    return 0


def cmd_outage(args: argparse.Namespace) -> int:
    return _sweep_command("outage", args)


def cmd_ecr(args: argparse.Namespace) -> int:
    return _sweep_command("ecr", args)


def cmd_sensing(args: argparse.Namespace) -> int:
    cfg, _ = load_config_file(args.config)
    split = fdsac(args.kappa, args.mu)
    grid = _snr_grid(args)
    rows = []
    for snr_db in grid:
        p = db_to_linear(snr_db)
        rows.append(
            {
                "snr_db": snr_db,
                "sr_isac": sensing_rate(cfg, ISAC, p),
                "sr_isac_asym": sensing_rate_asymptotic(cfg, ISAC, p),
                "sr_fdsac": sensing_rate(cfg, split, p),
                "sr_fdsac_asym": sensing_rate_asymptotic(cfg, split, p),
            }
        )
    fieldnames = ["snr_db", "sr_isac", "sr_isac_asym", "sr_fdsac", "sr_fdsac_asym"]
    meta = _metadata("sensing", cfg, kappa=args.kappa, mu=args.mu, snr_db=grid)
    _write_table(args.output, args.format, fieldnames, rows, meta)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    cfg, _ = load_config_file(args.config)
    p = _linear_power("--p-db", args.p_db)
    corner = isac_corner(cfg, p)
    frontier = fdsac_frontier(cfg, p, args.grid_n)
    report = containment_check(corner, frontier)
    verdict = "contained" if report.holds else "not contained"
    columns = (frontier.kappa, frontier.mu, frontier.rate_s, frontier.rate_c)
    grid = [
        {"kind": "grid", "kappa": kappa, "mu": mu, "rate_s": rate_s, "rate_c": rate_c}
        for kappa, mu, rate_s, rate_c in zip(*(column.tolist() for column in columns))
    ]
    rows: list[dict] = [
        {"kind": "corner", "kappa": None, "mu": None, "rate_s": corner.rate_s, "rate_c": corner.rate_c},
        *grid,
        *({**grid[i], "kind": "pareto"} for i in frontier.pareto.tolist()),
    ]
    meta = _metadata(
        "region",
        cfg,
        p_db=args.p_db,
        grid_n=args.grid_n,
        containment={"verdict": verdict, "max_violation": report.max_violation},
    )
    trailer = f"containment: {verdict}, max_violation = {_fmt(report.max_violation)}"
    _write_table(
        args.output, args.format, ["kind", "kappa", "mu", "rate_s", "rate_c"], rows, meta, trailer
    )
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    cfg, _ = load_config_file(args.config)
    _check_seed(args.seed)
    results = run_all(cfg, trials=args.trials, seed=args.seed, grid_n=101)
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
            sp.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
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


if __name__ == "__main__":
    sys.exit(main())
