"""In-process span tracer for the benchmark's traced run.

The tracer wraps module-level functions of ``noma_isac`` at each layer
boundary, from outside the package: every module attribute that holds the
original function (the name a caller resolves, such as
``noma_isac.montecarlo.gain_samples``) is replaced by a wrapper for the
duration of the run and restored afterwards.  ``src/`` is not edited.

A span is (name, start, end, parent); spans live in flat arrays so that the
1.28 million ``psi_term`` calls of a grid-401 region stay small in memory.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

LAYERS = ("config", "specfun", "channel", "analytic", "montecarlo", "region", "acceptance", "cli")

#: The ten checks of ``acceptance.run_all``, by their function-name suffix.
ACCEPTANCE_CHECKS = (
    "outage_closed_form",
    "ecr_closed_form",
    "diversity_orders",
    "high_snr_slopes",
    "sensing_identities",
    "sensing_slopes",
    "region_containment",
    "split_inequality",
    "special_functions",
    "determinism",
)

#: Uniform columns a trial draws (``channel.trial_uniforms``) and uses (``gain_samples``).
UNIFORMS_DRAWN = 4
UNIFORMS_USED = 2
FLOAT_BYTES = 8


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: span name, defining module, attribute, and what to record."""

    span: str
    module: str
    attr: str
    record: Optional[Callable[[dict, object], object]] = None


def _file_bytes(output: str) -> int:
    return 0 if output == "-" else os.path.getsize(output)


BOUNDARIES = (
    Boundary("cli.main", "cli", "main"),
    Boundary("cli.load_config", "cli", "load_config_file"),
    # The writer boundary: private, so it is wrapped where it is defined.
    Boundary("cli.write_table", "cli", "_write_table", lambda a, r: _file_bytes(a["output"])),
    Boundary("acceptance.run_all", "acceptance", "run_all"),
    *(Boundary(f"acceptance.{c}", "acceptance", f"check_{c}") for c in ACCEPTANCE_CHECKS),
    Boundary("region.containment_check", "region", "containment_check"),
    Boundary("region.isac_corner", "region", "isac_corner"),
    Boundary("region.fdsac_frontier", "region", "fdsac_frontier", lambda a, r: a["grid_n"] ** 2),
    # The Pareto boundary: private, so it is wrapped where it is defined.
    Boundary("region.pareto", "region", "_pareto_subset", lambda a, r: len(r)),
    Boundary("analytic.ergodic_rates", "analytic", "ergodic_rates"),
    Boundary("analytic.sensing_rate", "analytic", "sensing_rate"),
    Boundary("analytic.outage_probability", "analytic", "outage_probability"),
    Boundary("specfun.psi_term", "specfun", "psi_term"),
    Boundary("montecarlo.estimate_outage", "montecarlo", "estimate_outage", lambda a, r: a["trials"]),
    Boundary("montecarlo.estimate_ecr", "montecarlo", "estimate_ecr", lambda a, r: a["trials"]),
    Boundary(
        "channel.gain_samples",
        "channel",
        "gain_samples",
        lambda a, r: (a["seed"], a["start"], a["count"]),
    ),
    Boundary("channel.trial_uniforms", "channel", "trial_uniforms", lambda a, r: a["count"]),
)


class Tracer:
    """Records spans and per-span records in memory for one traced run."""

    def __init__(self) -> None:
        self.names = [b.span for b in BOUNDARIES]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.root = array("i")
        self.records: dict[int, object] = {}
        self._stack = [-1]

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        nid = self.names.index(boundary.span)
        name, parent, start, end, root = self.name, self.parent, self.start, self.end, self.root
        stack, records, clock = self._stack, self.records, time.perf_counter_ns
        record = boundary.record
        sig = inspect.signature(fn) if record is not None else None

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            root.append(stack[1] if len(stack) > 1 else idx)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if record is not None:
                records[idx] = record(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "noma_isac") -> Iterator[None]:
        """Wrap every boundary in every loaded module of `package`; restore on exit."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        loaded = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        patches = []
        try:
            for b in BOUNDARIES:
                orig = getattr(mods[b.module], b.attr)
                wrapper = self.wrap(b, orig)
                for mod in loaded:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            patches.append((mod, key, orig))
            yield
        finally:
            for mod, key, orig in reversed(patches):
                setattr(mod, key, orig)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total ns, self ns)."""
        nid = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def recorded(self, span: str) -> list[tuple[int, object]]:
        """(root span index, record) of every call of `span`, in call order."""
        nid = self.names.index(span)
        return [(self.root[i], rec) for i, rec in self.records.items() if self.name[i] == nid]


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_trials(draws: list[tuple[int, int, int]]) -> int:
    # Union of [start, start + count) intervals per seed.
    total = 0
    by_seed: dict[int, list[tuple[int, int]]] = {}
    for seed, start, count in draws:
        by_seed.setdefault(seed, []).append((start, start + count))
    for spans in by_seed.values():
        reach = -1
        for lo, hi in sorted(spans):
            lo = max(lo, reach)
            if hi > lo:
                total += hi - lo
            reach = max(reach, hi)
    return total


def layer_metrics(tracer: Tracer, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced round of `commands` top-level CLI commands.

    Counts and times marked "per command" are divided by `commands`.
    """
    tot = tracer.totals()

    def calls(span):
        return tot[span][0]

    def total_ns(span):
        return tot[span][1]

    def self_ns(span):
        return tot[span][2]

    def work(span):
        return sum(rec for _, rec in tracer.recorded(span))

    draws = tracer.recorded("channel.gain_samples")
    drawn = sum(count for _, (_, _, count) in draws)
    roots = sorted({root for root, _ in draws})
    distinct = sum(_distinct_trials([d for r, d in draws if r == root]) for root in roots)
    block = max((count for _, (_, _, count) in draws), default=0)
    pareto = [size for _, size in tracer.recorded("region.pareto")]
    m: dict[str, tuple[float, str]] = {
        "channel.trial_uniforms.ns_per_trial": (
            _div(total_ns("channel.trial_uniforms"), work("channel.trial_uniforms")),
            "ns",
        ),
        "channel.exp_transform.ns_per_trial": (_div(self_ns("channel.gain_samples"), drawn), "ns"),
        "channel.gain_samples.trials": (drawn / commands, "count"),
        "channel.uniforms_used_ratio": (UNIFORMS_USED / UNIFORMS_DRAWN, "ratio"),
        "channel.bytes_per_trial": (UNIFORMS_DRAWN * FLOAT_BYTES, "B"),
        "channel.bytes_used_per_trial": (UNIFORMS_USED * FLOAT_BYTES, "B"),
        "channel.block_bytes": (block * UNIFORMS_DRAWN * FLOAT_BYTES, "B"),
        "montecarlo.estimate_outage.self_ns_per_trial": (
            _div(self_ns("montecarlo.estimate_outage"), work("montecarlo.estimate_outage")),
            "ns",
        ),
        "montecarlo.estimate_ecr.self_ns_per_trial": (
            _div(self_ns("montecarlo.estimate_ecr"), work("montecarlo.estimate_ecr")),
            "ns",
        ),
        "montecarlo.redraw_ratio": (_div(drawn, distinct), "ratio"),
        "specfun.psi_term.calls": (calls("specfun.psi_term") / commands, "count"),
        "specfun.psi_term.ns_per_call": (
            _div(total_ns("specfun.psi_term"), calls("specfun.psi_term")),
            "ns",
        ),
        "analytic.ergodic_rates.calls": (calls("analytic.ergodic_rates") / commands, "count"),
        "analytic.ergodic_rates.self_us_per_call": (
            _div(self_ns("analytic.ergodic_rates"), calls("analytic.ergodic_rates")) / 1e3,
            "us",
        ),
        "analytic.sensing_rate.us_per_call": (
            _div(total_ns("analytic.sensing_rate"), calls("analytic.sensing_rate")) / 1e3,
            "us",
        ),
        "analytic.outage_probability.us_per_call": (
            _div(total_ns("analytic.outage_probability"), calls("analytic.outage_probability"))
            / 1e3,
            "us",
        ),
        "region.fdsac_frontier.evals": (calls("region.fdsac_frontier") / commands, "count"),
        "region.fdsac_frontier.self_us_per_point": (
            _div(self_ns("region.fdsac_frontier"), work("region.fdsac_frontier")) / 1e3,
            "us",
        ),
        "region.pareto.ms": (total_ns("region.pareto") / commands / 1e6, "ms"),
        "region.pareto.size": (_div(sum(pareto), len(pareto)), "count"),
        "region.containment_check.self_ms": (
            self_ns("region.containment_check") / commands / 1e6,
            "ms",
        ),
        "cli.load_config.ms": (total_ns("cli.load_config") / commands / 1e6, "ms"),
        "cli.write_table.ms": (total_ns("cli.write_table") / commands / 1e6, "ms"),
        "cli.write_table.bytes": (work("cli.write_table") / commands, "B"),
        "cli.self_ms": (self_ns("cli.main") / commands / 1e6, "ms"),
    }
    for check in ACCEPTANCE_CHECKS:
        m[f"acceptance.{check}.ms"] = (total_ns(f"acceptance.{check}") / commands / 1e6, "ms")
    m["trace.spans"] = (len(tracer.name) / commands, "count")
    return m
