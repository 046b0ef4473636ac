"""polystab benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload decay_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes
    python3 perfbench/selftest.py               # tiny sizes, checks the harness

With ``--trace 0`` the run times whole workload iterations with tracing off
and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (plus the tracing overhead).  Iterations repeat until
``--seconds`` have passed; timings are medians over the iterations.  Every
iteration's outputs are checked; failed checks are counted, not fatal.

``setup_s`` is the median time for a fresh interpreter to start and import
polystab (``START_REPS`` child processes) plus the median of ``SETUP_REPS``
input preparations: configs generated from the seed, written and loaded,
and systems built.

All reported times are normalised to a reference machine speed measured
while they run (see ``speed.py``); the raw seconds are printed on the line
before the environment record.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment.  ``--workload all`` runs every workload in both modes in child
processes and prints a table instead.

BLAS is pinned to one thread before numpy loads: this is the
single-threaded baseline every later measurement compares against.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("decay_sweep", "observability_sweep", "trace_large", "spectral_audit")
SETUP_REPS = 5
START_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "col_steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "schemes.step_s": "s",
    "schemes.col_steps": "count",
    "schemes.us_per_col_step": "us",
    "schemes.lu_solves": "count",
    "schemes.lu_solves_per_step": "ratio",
    "schemes.lu_bytes_per_step_computed": "B",
    "schemes.factorize_s": "s",
    "schemes.factorize_calls": "count",
    "schemes.identity_resid_rel_max": "ratio",
    "diagnostics.self_s": "s",
    "diagnostics.fit_calls": "count",
    "diagnostics.fit_s": "s",
    "diagnostics.recursion_s": "s",
    "ingham.scalar_s": "s",
    "ingham.clustered_s": "s",
    "ingham.q_form_calls": "count",
    "ingham.q_form_s": "s",
    "ingham.cols": "count",
    "spectra.build_s": "s",
    "spectra.build_calls": "count",
    "spectra.audit_s": "s",
    "spectra.gap_audit_calls": "count",
    "modal.norm_calls": "count",
    "modal.norm_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.absent_boundaries": "count",
}


def _import_program():
    """Import polystab from this checkout's ``src``; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "polystab", "__init__.py")):
        print(f"benchmark: no polystab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import polystab  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(polystab.__file__))) != SRC:
        print(f"benchmark: imported polystab from {polystab.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        libdir = os.path.join(site, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    out[os.path.basename(path)] = getattr(lib, fn)()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(pkg):
        try:
            return pkg.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or "none"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _start_time() -> float:
    """Seconds for a fresh interpreter to start and import the program."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import polystab.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Checks:
    """Counts correctness checks; a failure is reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def run(self, name, check_fn, inputs, outputs) -> None:
        try:
            triples = check_fn(inputs, outputs)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            triples = [(f"{name}.outputs_readable", exc, lambda v: False)]
        for check, value, predicate in triples:
            self.attempted += 1
            try:
                ok = bool(predicate(value))
            except (ArithmeticError, TypeError, ValueError, KeyError, IndexError, AttributeError):
                ok = False
            if not ok:
                self.failed.append(check)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, iterate for ``seconds`` and return the result object."""
    import speed
    import tracer as tracing
    import workloads

    setup, iterate, check_fn = workloads.WORKLOADS[name]
    size = (sizes or workloads.SIZES)[name]
    run_dir = _fresh_dir(os.path.join(WORK_DIR, f"{name}-{os.getpid()}"))
    cfg_dir = _fresh_dir(os.path.join(run_dir, "cfg"))
    out_dir = os.path.join(run_dir, "out")
    try:
        setup_times = []
        with speed.Interval() as setup_speed:
            t_start = statistics.median(_start_time() for _ in range(START_REPS))
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                inputs = setup(seed, cfg_dir, size)
                setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if trace else None
        factors = {"setup": setup_speed.factor()}
        if trace:  # one traced set-up, so builder and audit time show per layer
            tracer.iteration = "setup"
            tracer.install()
            try:
                setup(seed, cfg_dir, size)
            finally:
                tracer.uninstall()

        checks = Checks()
        walls = {False: [], True: []}  # traced? -> normalised iteration times
        raw_walls = []
        bytes_written = []
        t_begin = time.perf_counter()
        i = 0
        while True:
            traced = trace and i % 2 == 1
            _fresh_dir(out_dir)
            if traced:
                tracer.iteration = i
                tracer.install()
            try:
                with speed.Interval() as interval:
                    t0 = time.perf_counter()
                    outputs = iterate(inputs, out_dir)
                    raw = time.perf_counter() - t0
            except Exception:  # the program failed: count it and keep measuring
                traceback.print_exc()
                raw, outputs = time.perf_counter() - t0, None
            finally:
                if traced:
                    tracer.uninstall()
            factors[i] = interval.factor()
            walls[traced].append(raw * factors[i])
            raw_walls.append(raw)
            if traced:
                bytes_written.append(_dir_bytes(out_dir))
            if outputs is None:
                checks.attempted += 1
                checks.failed.append(f"{name}.iteration_completed")
            else:
                checks.run(name, check_fn, inputs, outputs)
            i += 1
            if time.perf_counter() - t_begin >= seconds and walls[trace]:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    raw_setup = t_start + statistics.median(setup_times)
    if trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.csv"))
        # each traced iteration is reported together with the traced set-up
        per_iter = [tracer.metrics({"setup", it}, factors) for it in range(1, i, 2)]
        values = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        values["cli.bytes_written"] = statistics.median(bytes_written)
        values["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]))
        units = PER_LAYER
        if tracer.absent:
            print("absent boundaries: " + " ".join(tracer.absent))
    else:
        wall = statistics.median(walls[False])
        values = {
            "setup_s": raw_setup * factors["setup"],
            "wall_s": wall,
            "col_steps_per_s": inputs["col_steps"] / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for check in sorted(set(checks.failed)):
        print(f"FAILED check {check}")
    print(f"{name}: {checks.attempted} checks, {len(raw_walls)} iterations; raw seconds: "
          f"setup {raw_setup:.4f}, iterations {[round(w, 4) for w in raw_walls]}; speed factors "
          f"{ {k: round(f, 4) for k, f in factors.items()} }")
    return {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in both modes as child processes and tabulate."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if res.returncode != 0:
                print(res.stdout + res.stderr)
                return res.returncode
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not trace:
                fail_ratio = result["failed"] / result["attempted"]
                print(f"{name:20s} {'fail_ratio':32s} {fail_ratio:<24.6g} "
                      f"({result['failed']}/{result['attempted']} checks)")
                status = status or int(fail_ratio > 0)
            for metric, v in result["metrics"].items():
                print(f"{name:20s} {metric:32s} {v['value']:<24.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
