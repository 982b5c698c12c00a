#!/usr/bin/env python3
"""Record the reference outputs of the commands the benchmark's workloads run.

``digests.json`` holds the SHA-256 of every data file the workloads write and
of the selftest's stdout: a later commit whose output differs by a single
byte fails the benchmark.  Each output is recorded only after it passes its
content check in ``checks.py``, so at run time an equal digest implies the
content checks.  ``selftest_verdicts.json`` holds the selftest's verdict for
every CLI seed the other workloads use; the benchmark runs the selftest at
``run.SELFTEST_SEED`` only.

The files were recorded at the seed commit; re-record them only with a change
that declares new outputs (for example a new random stream), from the root of
a checkout::

    python3 perfbench/record_digests.py

If any recorded output fails its check, nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run

VERDICTS_PATH = Path(__file__).resolve().parent / "selftest_verdicts.json"


def content_problem(cmd: run.Command, sizes: run.Sizes, output: Path, stdout: str) -> str | None:
    if cmd.kind == "outage":
        return checks.check_outage(output, sizes.mc_trials)
    if cmd.kind == "ecr":
        return checks.check_ecr(output)
    if cmd.kind == "region":
        return checks.check_region(output, sizes.grid_n)
    return checks.check_selftest(stdout)


def selftest_verdict(invocation: run.Invocation) -> dict:
    lines = invocation.stdout.splitlines()
    return {
        "exit_code": invocation.rc,
        "result": next((ln for ln in lines if ln.startswith("result:")), None),
        "failed": [" ".join(ln.split()) for ln in lines if ln.startswith("FAIL")],
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import noma_isac.cli as cli
    from noma_isac.config import baseline_config

    work = run.OUT / "work" / "record_digests"
    work.mkdir(parents=True, exist_ok=True)
    run.TMP.mkdir(parents=True, exist_ok=True)
    config = work / "baseline.cfg"
    config.write_text(cli.dump_config(baseline_config()), encoding="utf-8")
    output = work / "out.csv"
    digests: dict[str, str] = {}
    verdicts: dict[str, dict] = {}
    problems = []
    # At toy sizes (1e3 trials) the 3-sigma normal band of the outage check
    # misfires on a few seeds, so toy outputs are recorded for the self-test's seed only.
    for sizes, cli_seeds in ((run.FULL, run.CLI_SEEDS), (run.TOY, run.CLI_SEEDS[:1])):
        for workload in run.WORKLOADS:
            for cli_seed in cli_seeds:
                for cmd in run.workload_commands(workload, sizes, cli_seed):
                    key = checks.digest_key(list(cmd.argv))
                    if key in digests or key in verdicts:
                        continue
                    output.unlink(missing_ok=True)
                    invocation = run.invoke(run.full_argv(cmd, config, output), work)
                    if cmd.kind == "selftest":
                        verdicts[key] = selftest_verdict(invocation)
                        print(f"{verdicts[key]['result']}  {key}", flush=True)
                        if cli_seed != run.SELFTEST_SEED:
                            continue
                    if invocation.rc != 0:
                        problems.append(f"{key}: exit code {invocation.rc}")
                        continue
                    problem = content_problem(cmd, sizes, output, invocation.stdout)
                    if problem:
                        problems.append(f"{key}: {problem}")
                        continue
                    digests[key] = run.output_digest(cmd, output, invocation.stdout)
                    print(f"{digests[key]}  {key}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    VERDICTS_PATH.write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
