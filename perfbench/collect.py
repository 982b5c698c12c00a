#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise its spread.

Run from the root of a checkout::

    python3 perfbench/collect.py --runs 10
    python3 perfbench/collect.py --runs 10 --traced --write perfbench/baseline/BENCH_baseline.json

For every workload, each run uses another ``--seed``.  For each end-to-end
metric the summary gives the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median, next to a third of the bound ``BENCHMARK.json`` fixes for it (the
spread of ``setup_s`` is not held to its bound).  With ``--traced`` one traced
run per workload adds the per-layer metrics.  ``--write`` stores every run,
the summary and the environment as a JSON record.

A run whose result is not correct is listed and left out of the summary, and
then the collection fails: it exits with code 2 and writes no record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (last-line result, fuller results-file record)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    record_path = run.OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def failed_run(label: str, result: dict, full: dict, failing: list[str]) -> bool:
    """Note a run that is not correct in `failing`; return whether it failed."""
    if result["correct"] and result["failed"] == 0:
        return False
    failing.append(f"  {label}: " + "; ".join(full["failures"]))
    return True


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_within_third_of_bound": spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS), choices=run.WORKLOADS)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write", type=Path, help="write the record as JSON to this path")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    record: dict = {"run_seconds": seconds, "workloads": {}}
    steady = True
    failing: list[str] = []
    for workload in args.workloads:
        runs, counted = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, full = bench(workload, seed, seconds, 0)
            record.setdefault("environment", full["environment"])
            runs.append({"seed": seed, "result": result, "info": full["info"]})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            if not failed_run(f"{workload} seed {seed}", result, full, failing):
                counted.append(runs[-1])
        summary = {}
        for name, bound in bounds.items():
            if len(counted) < 2:
                steady = False
                continue
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in counted],
                                      bound)
            ok = summary[name]["spread_within_third_of_bound"] or name == "setup_s"
            steady &= ok
            print(f"  {name:<14} median {summary[name]['median']:.6g}  spread "
                  f"{summary[name]['spread']:.4f}  (bound/3 {bound / 3:.4f}){'' if ok else '  WIDE'}")
        entry = {"runs": runs, "summary": summary}
        if args.traced:
            result, full = bench(workload, args.first_seed, seconds, 1)
            failed_run(f"{workload} seed {args.first_seed} traced", result, full, failing)
            entry["traced"] = {"result": result, "info": full["info"]}
            print(f"  traced: correct={result['correct']}  overhead="
                  f"{result['metrics']['trace.overhead_ratio']['value']:.3f}")
        record["workloads"][workload] = entry
    if failing:
        print(f"FAILED: {len(failing)} runs were not correct; no record written:", file=sys.stderr)
        print("\n".join(failing), file=sys.stderr)
        return 2
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
