#!/usr/bin/env python3
"""Benchmark of the noma-isac command line.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload mc_sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Workloads (the benchmark seed picks the CLI ``--seed``; the program only sees
CLI arguments and the baseline config written by ``cli.dump_config``):

- ``mc_sweep``: ``outage --mode isac`` at ``--workers 1``, ``ecr --mode fdsac
  --kappa 0.5 --mu 0.5`` at ``--workers 1`` and the same ``outage`` at
  ``--workers 2``, on the default 9-point 0-40 dB grid at 1e6 trials.
  ``channel`` and ``montecarlo`` do almost all the work; each point draws a
  32 MB uniform block (larger than L2).
- ``region_grid``: ``region --p-db 5 --grid-n 401`` to a CSV file: 160,801
  closed-form points per frontier pass and no Monte Carlo, so ``specfun``,
  ``analytic``, ``region`` and the ``cli`` writer do the work.  Its inputs do
  not depend on the seed.
- ``selftest_gate``: ``selftest`` at 1e5 trials and the CLI's default seed:
  36 small estimate calls with 3.2 MB blocks (fit in L2), a 101x101
  containment pass and a 2-worker determinism check.  Its inputs do not
  depend on the seed (see ``SELFTEST_SEED``).

With ``--trace 0`` every CLI command runs as a subprocess, one at a time, and
the end-to-end metrics are reported.  With ``--trace 1`` the single-worker
commands run inside this process, once untraced and once with every layer
boundary wrapped (see ``tracer.py``), and the per-layer metrics are reported
with the tracing overhead.  Every invocation must exit with code 0 and write
output whose SHA-256 equals the digest recorded from the seed commit; each
recorded output passed the content checks of ``checks.py`` when it was
recorded (``record_digests.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding exactly the metrics that
``BENCHMARK.json`` declares for the mode.  A fuller record, with the
environment, samples and failures, is written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = OUT / "tmp"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("mc_sweep", "region_grid", "selftest_gate")

#: The benchmark seed selects one of these CLI seeds, whose output digests
#: were recorded from the seed commit (``record_digests.py``).
CLI_SEEDS = tuple(range(1, 33))
#: ``selftest_gate`` always runs the selftest at the CLI's default seed.  At
#: 1e5 trials the selftest's 3-sigma outage band over 36 points fails by
#: chance on 6 of the 32 CLI seeds (``selftest_verdicts.json``), and the
#: benchmark's workloads must not fail.  The selftest's run time does not depend on the seed.
SELFTEST_SEED = 1

#: Points of the CLI's default 0-40 dB sweep grid.
SWEEP_POINTS = 9
#: ``acceptance.check_determinism`` runs three outage commands at 20000 trials on 3 points.
DETERMINISM_TRIALS = 3 * 3 * 20_000
#: Estimate calls of acceptance criteria 1 and 2: 9 SNRs x 2 modes x 2 estimators.
SELFTEST_ESTIMATES = 36

SETUP_REPEATS = 11
MIN_ROUNDS = 2
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sizes:
    mc_trials: int
    grid_n: int
    selftest_trials: int


FULL = Sizes(mc_trials=1_000_000, grid_n=401, selftest_trials=100_000)
#: Toy sizes for the harness self-test only.
TOY = Sizes(mc_trials=1_000, grid_n=5, selftest_trials=1_000)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a round, without --config/--output."""

    argv: tuple[str, ...]
    kind: str  # which output check applies: outage, ecr, region or selftest
    traced: bool = True  # False: the work runs in worker processes an in-process tracer cannot see

    @property
    def label(self) -> str:
        workers = self.argv[self.argv.index("--workers") + 1] if "--workers" in self.argv else None
        return self.kind + (f" --workers {workers}" if workers else "")


def workload_commands(workload: str, sizes: Sizes, cli_seed: int) -> list[Command]:
    seed = ("--seed", str(cli_seed))
    if workload == "mc_sweep":
        trials = ("--trials", str(sizes.mc_trials))
        return [
            Command(("outage", "--mode", "isac", *trials, *seed, "--workers", "1"), "outage"),
            Command(
                ("ecr", "--mode", "fdsac", "--kappa", "0.5", "--mu", "0.5", *trials, *seed,
                 "--workers", "1"),
                "ecr",
            ),
            Command(("outage", "--mode", "isac", *trials, *seed, "--workers", "2"), "outage",
                    traced=False),
        ]
    if workload == "region_grid":
        return [Command(("region", "--p-db", "5", "--grid-n", str(sizes.grid_n)), "region")]
    if workload == "selftest_gate":
        return [Command(("selftest", "--trials", str(sizes.selftest_trials), *seed), "selftest")]
    raise ValueError(f"unknown workload {workload!r}")


def cli_seed_for(workload: str, seed: int) -> int:
    """The CLI ``--seed`` a benchmark seed selects for a workload."""
    return SELFTEST_SEED if workload == "selftest_gate" else CLI_SEEDS[seed % len(CLI_SEEDS)]


def work_per_round(workload: str, sizes: Sizes) -> tuple[int, str]:
    """Units of work one round does, and their name."""
    if workload == "mc_sweep":
        return 3 * SWEEP_POINTS * sizes.mc_trials, "mc_trials"
    if workload == "region_grid":
        return sizes.grid_n**2, "grid_points"
    return SELFTEST_ESTIMATES * sizes.selftest_trials + DETERMINISM_TRIALS, "mc_trials"


def declared_metrics() -> dict[str, dict[str, dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def cli_env() -> dict[str, str]:
    # TMPDIR keeps the selftest's temporary files inside the checkout.
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), TMPDIR=str(TMP))


def tail(samples: list[float]) -> tuple[float, str]:
    """p90 of the samples, interpolated, and a note with the sample count.

    A percentile with at least 10 samples beyond it needs 100 samples for
    p90; a 30-second run gives 2 to 30 rounds, where that rule would fall to
    the minimum, so the interpolated p90 of the rounds is reported instead.
    """
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    beyond = sum(x > value for x in samples)
    return value, f"p90 of {len(samples)} rounds, {beyond} beyond it"


def src_lines() -> dict[str, int]:
    pkg = SRC / "noma_isac"
    counts = {p.stem: p.read_bytes().count(b"\n") for p in sorted(pkg.glob("*.py"))}
    return {"total": sum(counts.values()), **counts}


def environment(seed: int, cli_seed: int) -> dict:
    import numpy as np

    cpu: dict[str, str] = {}
    if shutil.which("lscpu"):
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
        cpu = {k.strip(): v.strip() for k, _, v in (ln.partition(":") for ln in text.splitlines())}
    sha = dirty = None
    if shutil.which("git"):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=False)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, check=False).stdout
            dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "cli_seed": cli_seed,
    }


def computed_kernel(sizes: Sizes, env: dict) -> dict:
    """Monte Carlo path quantities computed from the sampler's layout, not measured."""
    from tracer import FLOAT_BYTES, UNIFORMS_DRAWN, UNIFORMS_USED

    drawn = UNIFORMS_DRAWN * FLOAT_BYTES
    return {
        "label": "computed",
        "bytes_drawn_per_trial": drawn,
        "bytes_used_per_trial": UNIFORMS_USED * FLOAT_BYTES,
        "block_bytes_mc_sweep": sizes.mc_trials * drawn,
        "block_bytes_selftest_gate": sizes.selftest_trials * drawn,
        "l2_cache": env["l2_cache"],
        "l3_cache": env["l3_cache"],
    }


def output_digest(cmd: Command, output: Path, stdout: str) -> str | None:
    """SHA-256 of what a command produced: its data file, or the selftest's stdout."""
    if cmd.kind == "selftest":
        return hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return checks.sha256_file(output) if output.is_file() else None


def verify(cmd: Command, rc: int, output: Path, stdout: str, digests: dict[str, str]) -> str | None:
    """Why an invocation failed, or None.

    The recorded digests passed the content checks when they were recorded,
    so an equal digest implies that the contents pass them too.
    """
    if rc != 0:
        return f"{cmd.label}: exit code {rc}"
    sha = output_digest(cmd, output, stdout)
    if sha is None:
        return f"{cmd.label}: no output file"
    key = checks.digest_key(list(cmd.argv))
    if digests.get(key) != sha:
        return f"{cmd.label}: sha256 {sha} differs from the seed-commit digest of {key!r}"
    return None


def full_argv(cmd: Command, config: Path, output: Path) -> list[str]:
    argv = [cmd.argv[0], "--config", str(config), *cmd.argv[1:]]
    if cmd.kind != "selftest":
        argv += ["--output", str(output)]
    return argv


def _kill_session(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float  # user + system time of the command and its worker processes
    rss_mb: float
    rc: int
    stdout: str


def spawn_and_wait(args: list[str], stdout, stderr) -> tuple[float, int, os.struct_rusage]:
    """Run a Python subprocess and block until it ends: (wall s, exit code, rusage).

    Blocking in ``os.wait4`` times the end exactly, where ``Popen.wait`` with a
    timeout polls up to 50 ms late.  The command runs in its own session, so a
    timeout or an interrupt kills its worker processes with it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr,
                            env=cli_env(), cwd=ROOT, start_new_session=True)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_session, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_session(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    return wall, rc, usage


def invoke(argv: list[str], work: Path) -> Invocation:
    """Run one CLI command as a subprocess and wait for it."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, rc, usage = spawn_and_wait(["-m", "noma_isac", *argv], out, err)
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
    if rc != 0 and stderr:
        print(f"  stderr of {argv[0]}: {stderr.splitlines()[-1]}", file=sys.stderr)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc,
                      out_path.read_text(encoding="utf-8"))


def measure_setup() -> float:
    """Interpreter start plus ``import noma_isac.cli``, once."""
    wall, rc, _ = spawn_and_wait(["-c", "import noma_isac.cli"], None, None)
    if rc != 0:
        raise RuntimeError(f"import noma_isac.cli exited with code {rc}")
    return wall


def keep_going(started: float, done: int, seconds: float, minimum: int) -> bool:
    """Start another round unless it would end further past `seconds` than stopping now."""
    elapsed = time.perf_counter() - started
    return done < minimum or elapsed + 0.5 * elapsed / done < seconds


def run_untraced(workload: str, commands: list[Command], sizes: Sizes, seconds: float,
                 work: Path, config: Path, digests: dict[str, str]) -> dict:
    setup: list[float] = []
    rounds: list[dict] = []
    failures: list[str] = []
    started = time.perf_counter()
    while keep_going(started, len(rounds), seconds, MIN_ROUNDS):
        walls, cpus, rss = [], [], []
        for i, cmd in enumerate(commands):
            # Set-up samples are spread over the run, so that a slow spell of
            # the host weighs on them as it does on the rounds.
            if time.perf_counter() - started >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(measure_setup())
            output = work / f"out{i}.csv"
            output.unlink(missing_ok=True)
            inv = invoke(full_argv(cmd, config, output), work)
            problem = verify(cmd, inv.rc, output, inv.stdout, digests)
            if problem:
                failures.append(problem)
            walls.append(inv.wall_s)
            cpus.append(inv.cpu_s)
            rss.append(inv.rss_mb)
        rounds.append({"walls": walls, "cpus": cpus, "rss_mb": rss})
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())

    round_walls = [sum(r["walls"]) for r in rounds]
    round_cpus = [sum(r["cpus"]) for r in rounds]
    wall_s = statistics.median(round_walls)
    tail_s, tail_note = tail(round_walls)
    units, unit_name = work_per_round(workload, sizes)
    per_command = {
        cmd.label: statistics.median(r["walls"][i] for r in rounds) for i, cmd in enumerate(commands)
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "wall_tail_s": (tail_s, "s"),
        "work_per_s": (units / wall_s, "1/s"),
        "cpu_s": (statistics.median(round_cpus), "s"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"]) for r in rounds), "MB"),
    }
    attempted = len(rounds) * len(commands)
    info = {
        "rounds": len(rounds),
        "setup_samples_s": setup,
        "round_wall_samples_s": round_walls,
        "round_cpu_samples_s": round_cpus,
        "wall_tail_note": tail_note,
        "command_median_wall_s": per_command,
        f"{unit_name}_per_round": units,
        f"{unit_name}_per_s": units / wall_s,
        "fail_ratio": len(failures) / attempted,
    }
    if workload == "mc_sweep":
        info["parallel_speedup"] = per_command["outage --workers 1"] / per_command["outage --workers 2"]
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "info": info}


def run_in_process(cli, commands: list[Command], config: Path, work: Path,
                   digests: dict[str, str], failures: list[str]) -> float:
    total = 0.0
    for i, cmd in enumerate(commands):
        output = work / f"out{i}.csv"
        output.unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(full_argv(cmd, config, output))
        total += time.perf_counter() - t0
        problem = verify(cmd, rc, output, buf.getvalue(), digests)
        if problem:
            failures.append(problem)
    return total


def run_traced(commands: list[Command], seconds: float, work: Path, config: Path,
               digests: dict[str, str]) -> dict:
    import noma_isac.cli as cli
    from tracer import Tracer, layer_metrics

    in_proc = [c for c in commands if c.traced]
    failures: list[str] = []
    pairs: list[dict] = []
    started = time.perf_counter()
    while keep_going(started, len(pairs), seconds, 1):
        untraced = run_in_process(cli, in_proc, config, work, digests, failures)
        tracer = Tracer()
        with tracer.installed():
            traced = run_in_process(cli, in_proc, config, work, digests, failures)
        m = layer_metrics(tracer, len(in_proc))
        m["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
        pairs.append(m)
        del tracer
    metrics = {
        name: (statistics.median(p[name][0] for p in pairs), unit)
        for name, (_, unit) in pairs[0].items()
    }
    for module, lines in src_lines().items():
        metrics[f"src.lines.{module}"] = (lines, "count")
    return {
        "metrics": metrics,
        "attempted": 2 * len(pairs) * len(in_proc),
        "failures": failures,
        "info": {"pairs": len(pairs), "traced_commands": [c.label for c in in_proc]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes: Sizes) -> dict:
    import noma_isac.cli as cli
    from noma_isac.config import baseline_config

    cli_seed = cli_seed_for(workload, seed)
    work = OUT / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    config = work / "baseline.cfg"
    config.write_text(cli.dump_config(baseline_config()), encoding="utf-8")
    commands = workload_commands(workload, sizes, cli_seed)
    digests = checks.load_digests()
    if trace:
        result = run_traced(commands, seconds, work, config, digests)
    else:
        result = run_untraced(workload, commands, sizes, seconds, work, config, digests)
    result["workload"] = workload
    result["trace"] = trace
    result["environment"] = environment(seed, cli_seed)
    result["computed"] = computed_kernel(sizes, result["environment"])
    result["src_lines"] = src_lines()
    return result


def report(result: dict, declared: dict[str, dict]) -> dict:
    """Print a readable summary; return the contract's result object."""
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']} (cli seed {env['cli_seed']})  "
          f"trace {result['trace']}  attempted {result['attempted']}  "
          f"failed {len(result['failures'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for name, value in result["info"].items():
        if isinstance(value, dict):
            for key, item in value.items():
                print(f"  {name}[{key}]: {item:.6g}")
        elif not isinstance(value, list):
            print(f"  {name:<48} {value}")
    for problem in result["failures"]:
        print(f"  FAILED: {problem}")
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"error: metrics not measured: {', '.join(missing)}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {
            name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
            for name in declared
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the harness self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "noma_isac" / "cli.py").is_file():
        print(f"error: no noma_isac package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    sizes = TOY if args.toy else FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(TMP)

    results = {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace, sizes)
        results[workload] = report(result, declared)
        path = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**result, "result": results[workload]}, indent=2) + "\n",
                        encoding="utf-8")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
