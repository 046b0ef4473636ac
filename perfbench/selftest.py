"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

For every workload it checks that
  * the metrics printed in both modes are exactly the ones BENCHMARK.json
    names, with the same units;
  * the traced column-step count equals the count derived from the
    configuration;
  * every correctness check reports a failure when its value is poisoned;
  * a traced boundary that does not exist is reported as absent.
Checks that need the full sizes (criteria 7, 8 and 10) may print FAILED
lines here; that is expected at tiny sizes.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

run._import_program()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _expected(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main() -> int:
    problems = []
    units = {False: _expected("end_to_end"), True: _expected("per_layer")}
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            res = run.run_workload(name, seed=0, seconds=0.0, trace=trace, sizes=workloads.TINY)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {units[trace]}")
            if trace and res["metrics"]["trace.absent_boundaries"]["value"]:
                problems.append(f"{name}: some traced boundaries are absent")
        setup, iterate, check_fn = workloads.WORKLOADS[name]
        work = os.path.join(run.WORK_DIR, f"selftest-{name}")
        cfg_dir = run._fresh_dir(os.path.join(work, "cfg"))
        out_dir = run._fresh_dir(os.path.join(work, "out"))
        inputs = setup(0, cfg_dir, workloads.TINY[name])
        tracer = tracing.Tracer()
        tracer.iteration = 0
        tracer.install()
        try:
            outputs = iterate(inputs, out_dir)
        finally:
            tracer.uninstall()
        traced_steps = tracer.metrics({0}, {0: 1.0})["schemes.col_steps"]
        if name != "spectral_audit" and traced_steps != inputs["col_steps"]:
            problems.append(f"{name}: traced col_steps {traced_steps} != {inputs['col_steps']}")
        triples = check_fn(inputs, outputs)
        shutil.rmtree(work)
        for check, _, predicate in triples:
            poisoned = run.Checks()
            poisoned.run(name, lambda i, o: [(check, math.nan, predicate)], inputs, outputs)
            if poisoned.failed != [check]:
                problems.append(f"{check} does not report a poisoned value")
        print(f"{name}: {len(triples)} checks can fail")
    # a boundary that no longer exists is reported, not fatal
    tracing.BOUNDARIES["schemes"] = (
        "polystab.schemes", tracing.BOUNDARIES["schemes"][1] + ("SchemeSolver.removed",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    if tracer.absent != ["schemes.SchemeSolver.removed"]:
        problems.append(f"absent boundaries reported as {tracer.absent}")
    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
