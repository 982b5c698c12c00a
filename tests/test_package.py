"""The package's public surface: each module's `__all__`, re-exported once,
and the OpenBLAS thread count that importing it sets."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noma_isac

MODULES = ("analytic", "channel", "config", "montecarlo", "region", "specfun")

PUBLIC = sorted([
    "ContainmentReport", "CorrelationMatrix", "EULER_GAMMA", "FrontierSweep", "ISAC", "Mode",
    "RatePoint", "ReferenceEntry", "RegionFrontier", "ResourceSplit", "SystemConfig",
    "Target", "TargetScene", "Thresholds", "baseline_config", "build_correlation",
    "comm_factors", "containment_check", "db_to_linear", "dual_function_signal",
    "ergodic_rates", "ergodic_rates_asymptotic", "estimate_ecr", "estimate_outage",
    "estimate_slope", "exp_int_ei", "fdsac", "fdsac_frontier", "gain_samples", "isac_corner",
    "log2_det_i_plus_scaled", "orthogonal_streams", "outage_asymptotic",
    "outage_probability", "psi_term", "reference_table", "scene_eigenvalues",
    "sensing_mi_bruteforce", "sensing_mi_reduced", "sensing_rate", "sensing_rate_asymptotic",
    "split_ergodic_rates", "split_sensing_rate", "sum_rate", "thresholds",
    "trial_uniforms",
])


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 46
    assert sorted(noma_isac.__all__) == PUBLIC


def test_each_name_is_exported_by_one_module():
    lists = [getattr(noma_isac, m).__all__ for m in MODULES]
    names = list(itertools.chain.from_iterable(lists))
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from noma_isac import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for m in MODULES:
        module = getattr(noma_isac, m)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Threads of the child process and its OpenBLAS variable, after the import.
REPORT = "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS')]))"


def _child(code, **env):
    # The child starts without any of the thread variables unless given one.
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    clean["PYTHONPATH"] = str(Path(noma_isac.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", f"import json, os\n{code}\n{REPORT}"],
        capture_output=True, env={**clean, **env}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task to count threads, and 2 usable CPUs for OpenBLAS to start a worker",
)
def test_importing_the_package_keeps_openblas_single_threaded():
    assert _child("import noma_isac.cli") == [1, None]
    # A thread count the user chose is kept, and stays in the environment.
    threads, value = _child("import noma_isac.cli", OPENBLAS_NUM_THREADS="2")
    assert threads > 1 and value == "2"
    # numpy imported first: the package leaves OpenBLAS and the environment alone.
    code = "import numpy\nbefore = dict(os.environ)\nimport noma_isac.cli\nassert dict(os.environ) == before"
    threads, value = _child(code)
    assert threads > 1 and value is None
