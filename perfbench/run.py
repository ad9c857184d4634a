"""Benchmark for proxflow: runs one workload through ``proxflow.cli.main``.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lasso-desk --seed 1 --seconds 22 --trace 0

The workload's command lines run in this one process, round after round,
until ``--seconds`` is used up (at least two untraced rounds, and with
tracing one traced round between them).
Each round's outputs are checked, and the round's fingerprint (per run:
iterations, status, final error to 12 digits) must equal every other
round's.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, taken with only the set-up wrappers installed; with
``--trace 1`` they are its per-layer metrics, taken on traced rounds that
alternate with untraced ones.  The lines before it are a report: the
environment, every round's figures, every end-to-end figure (the report-only
timings ``wall_s``, ``cpu_s``, ``steps_per_s`` and ``steps_per_cpu_s`` among
them), the fingerprint and any problem the checks found.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Set-up and timings are medians over rounds, so never take them from one.
MIN_UNTRACED_ROUNDS = 2
IMPORT_PROCESSES = 5
IMPORT_SAMPLES = 5
# Run in a fresh interpreter: prints the fastest of argv[2] imports of
# proxflow from argv[1].  numpy and scipy load before the clock starts, as
# their load time is not proxflow's; proxflow's modules leave sys.modules
# before each import, so all of the package's module code runs every time.
_IMPORT_CODE = """
import importlib, sys, time
import numpy, scipy.linalg
sys.path.insert(0, sys.argv[1])
best = float("inf")
for _ in range(int(sys.argv[2])):
    for name in [n for n in sys.modules if n.split(".")[0] == "proxflow"]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("proxflow")
    best = min(best, time.perf_counter() - start)
print(best)
"""

# Read by the BLAS when numpy loads.  Unless the caller set one, the
# benchmark runs the BLAS on one thread: on a shared 2-core host, what a
# second BLAS thread saves depends on whether another tenant holds the
# other core, and that moved set-up and round times by a fifth between
# sets of runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# glibc sysconf names for the L2 and L3 cache sizes
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


@dataclass
class Round:
    traced: bool
    wall: float          # seconds in the CLI calls, less the benchmark's own work
    cpu: float           # process CPU seconds in the CLI calls (untraced rounds)
    setup: float         # seconds in instance generation and reference solutions
    setup_cpu: float     # process CPU seconds in the same calls
    check: object        # workloads.RoundCheck
    layers: dict | None  # per-layer figures, traced rounds only

    @property
    def fingerprint(self) -> list[str]:
        return [rec.fingerprint() for rec in self.check.records]


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="recorded in the report; the inputs are the CLI's fixed "
                        "default instances (or --instance-seeds)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seeds", default=None,
                   help="comma-separated instance seeds passed to the CLI "
                        "(default: the CLI's own defaults)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.instance_seeds is not None:
        if not WORKLOADS[args.workload].takes_seeds:
            p.error(f"{args.workload} has no instance seed")
        args.instance_seeds = tuple(int(s) for s in args.instance_seeds.split(","))
    return args


def _cache_bytes(name: int):
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def environment(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset -> nproc") for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "l2_bytes": _cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _cache_bytes(_SC_LEVEL3_CACHE_SIZE),
        "working_set_bytes": workload.working_set,
    }


def import_seconds() -> float:
    """Time of ``import proxflow``: the median, over fresh interpreters, of
    the fastest import in each.

    On a shared host the time of one import varies by up to a half between
    processes and, by the odd slow sample, within one; the fastest of
    several imports per process and the median over processes damp both.
    """
    samples = []
    for _ in range(IMPORT_PROCESSES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC), str(IMPORT_SAMPLES)],
                             cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Bench:
    """One workload, run round after round in this process."""

    def __init__(self, workload, instance_seeds, outdir: Path, extra=()):
        from tracer import Tracer

        self.workload = workload
        self.outdir = outdir
        self.jobs = workload.jobs(instance_seeds, outdir, tuple(extra))
        self.tracer = Tracer()
        self.tracer.install_setup()

    def close(self):
        self.tracer.uninstall()

    def round(self, traced: bool) -> Round:
        from proxflow import cli
        from workloads import JobOutput

        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        gc.collect()
        tracer = self.tracer
        tracer.reset()
        if traced:
            tracer.install_layers()
        outputs = []
        try:
            cpu_start = time.process_time()
            start = time.perf_counter()
            for argv in self.jobs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
                outputs.append(JobOutput(list(argv), code, buf.getvalue()))
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        finally:
            if traced:
                tracer.uninstall_layers()
        wall -= tracer.excluded_s
        setup_spans = [tracer.spans[name]
                       for name in ("experiments.gen", "experiments.reference_solution")]
        check = self.workload.check(outputs, self.outdir, list(tracer.references))
        return Round(traced, wall, cpu, sum(st.s for st in setup_spans),
                     sum(st.cpu_s for st in setup_spans), check,
                     tracer.layer_metrics() if traced else None)


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            instance_seeds=None, extra=()) -> tuple[dict, dict]:
    """Run the rounds and return (result line, report)."""
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name]
    env = environment(workload)
    import_s = import_seconds()
    outdir = ROOT / ".perfbench-out" / f"{workload_name}-{os.getpid()}"
    bench = Bench(workload, instance_seeds, outdir, extra)
    rounds: list[Round] = []
    try:
        start = time.perf_counter()
        durations = []
        while True:
            round_start = time.perf_counter()
            traced = trace and len(rounds) % 2 == 1
            rounds.append(bench.round(traced))
            durations.append(time.perf_counter() - round_start)
            enough = (sum(not r.traced for r in rounds) >= MIN_UNTRACED_ROUNDS
                      and (not trace or any(r.traced for r in rounds)))
            # stop before a round that would likely end after `seconds`
            if enough and (time.perf_counter() - start
                           + statistics.median(durations)) > seconds:
                break
    finally:
        bench.close()
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    reference_fp = untraced[0].fingerprint
    problems = sorted({p for r in rounds for p in r.check.problems})
    for i, r in enumerate(rounds):
        if r.fingerprint != reference_fp:
            problems.append(f"round {i} ({'traced' if r.traced else 'untraced'}): "
                            "fingerprint differs from round 0")
    attempted = sum(len(r.check.records) for r in rounds)
    failed = sum(rec.failed for r in rounds for rec in r.check.records)
    first = untraced[0].check.records
    ok_errors = [rec.final_error for rec in first if not rec.failed]

    end_to_end = {
        "wall_s": statistics.median(r.wall for r in untraced),
        "setup_s": import_s + statistics.median(r.setup for r in untraced),
        "steps_per_s": statistics.median(r.check.steps / (r.wall - r.setup)
                                         for r in untraced),
        "cpu_s": statistics.median(r.cpu for r in untraced),
        "steps_per_cpu_s": statistics.median(r.check.steps / (r.cpu - r.setup_cpu)
                                             for r in untraced),
        "steps": statistics.median(r.check.steps for r in untraced),
        "final_error_max": max(ok_errors) if ok_errors else None,
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        values = {name: statistics.fmean(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        values["trace.overhead_frac"] = (statistics.median(r.wall for r in traced)
                                         / statistics.median(r.wall for r in untraced) - 1.0)
        declared = spec["per_layer"]
    else:
        values = end_to_end
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": workload_name,
        "seed": seed,
        "instance_seeds": instance_seeds or workload.default_seeds or "cli default",
        "trace": int(trace),
        "environment": env,
        "import_s": import_s,
        "rounds": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu,
                    "setup_s": r.setup, "setup_cpu_s": r.setup_cpu,
                    "steps": r.check.steps} for r in rounds],
        "end_to_end": end_to_end,
        "fingerprint": reference_fp,
        "problems": problems,
    }
    if trace:
        report["all_layer_metrics"] = values
    return result, report


def main(argv=None) -> int:
    if not (SRC / "proxflow" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no proxflow sources under {SRC} or no {SPEC.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.instance_seeds)
    print(json.dumps(report, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
