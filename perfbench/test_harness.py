#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at toy sizes (1e3 trials, grid 5).

Run from the root of a checkout, with no network::

    python3 perfbench/test_harness.py
    python3 -m pytest -q perfbench/test_harness.py

It runs every workload with and without tracing and checks that each run is
correct and emits every metric ``BENCHMARK.json`` names for its mode, exactly
once and with its unit; that traced counts match the toy workloads; that an
output differing from its recorded digest counts as a failure; and that the
benchmark fails without a result when the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys {sorted(dupes)}")
    return dict(pairs)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=_unique_keys)


def test_every_declared_metric_once_with_unit():
    declared = run.declared_metrics()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            result = _result(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == list(declared[kind]), (workload, trace)
            for name, metric in result["metrics"].items():
                assert set(metric) == {"value", "unit"}, name
                assert metric["unit"] == declared[kind][name]["unit"], name
                assert isinstance(metric["value"], (int, float)), name
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_traced_counts_match_toy_workloads():
    mc = _result("mc_sweep", 1)["metrics"]
    assert mc["channel.gain_samples.trials"]["value"] == run.SWEEP_POINTS * run.TOY.mc_trials
    assert mc["montecarlo.redraw_ratio"]["value"] == run.SWEEP_POINTS
    region = _result("region_grid", 1)["metrics"]
    assert region["region.fdsac_frontier.evals"]["value"] == 2
    # Two frontier passes over the (grid_n - 1)**2 points with kappa, mu > 0,
    # plus two corners, at 4 psi_term calls each.
    inner = (run.TOY.grid_n - 1) ** 2
    assert region["specfun.psi_term.calls"]["value"] == 4 * (2 * inner + 2)


def test_changed_output_fails():
    digests = checks.load_digests()
    cmd = run.workload_commands("selftest_gate", run.TOY, run.cli_seed_for("selftest_gate", 0))[0]
    no_file = run.OUT / "no-such-file"
    report = "result: 10/10 checks passed\n"
    assert run.verify(cmd, 0, no_file, report, digests).startswith("selftest: sha256")
    assert run.verify(cmd, 2, no_file, report, digests) == "selftest: exit code 2"
    region = run.workload_commands("region_grid", run.TOY, 1)[0]
    assert run.verify(region, 0, no_file, "", digests) == "region: no output file"
    changed = run.OUT / "changed.csv"
    changed.write_text("kind,kappa,mu,rate_s,rate_c\n", encoding="utf-8")
    try:
        assert "differs from the seed-commit digest" in run.verify(region, 0, changed, "", digests)
    finally:
        changed.unlink()


def test_fails_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run("mc_sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_every_declared_metric_once_with_unit, test_traced_counts_match_toy_workloads,
                 test_changed_output_fails, test_fails_without_the_package):
        test()
        print(f"ok  {test.__name__}")
