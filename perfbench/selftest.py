"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, JobOutput, reference_problem  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tracer_produces_every_declared_layer_metric():
    tracer = Tracer()
    tracer.install_setup()
    tracer.install_layers()
    try:
        produced = set(tracer.layer_metrics()) | {"trace.overhead_frac"}
    finally:
        tracer.uninstall()
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing


def test_self_time_plus_child_time_is_the_parent_time(tmp_path):
    tracer = Tracer()

    def child(delay):
        time.sleep(delay)

    timed_child = tracer.timed("child", child)

    def parent():
        timed_child(0.02)
        timed_child(0.01)
        time.sleep(0.01)

    tracer.timed("parent", parent)()
    p, c = tracer.spans["parent"], tracer.spans["child"]
    assert c.calls == 2 and p.calls == 1
    assert p.child_s == pytest.approx(c.s, abs=1e-9)
    assert p.self_s == pytest.approx(p.s - c.s, abs=1e-9)
    assert 0.009 <= p.self_s < p.s

    # On a real traced solve: run's children are the oracle, damping,
    # norm and stop spans, and cli.main's are run, generation and CSV output.
    from proxflow import cli

    tracer = Tracer()
    tracer.install_setup()
    tracer.install_layers()
    try:
        code = cli.main(["solve", "--method", "dr", "--damping", "constant", "--r", "0.5",
                         "--lambda", "0.1", "--instance", "lasso-desk", "--outdir",
                         str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    resolution = 1e-6
    assert all(st.self_s >= -resolution for st in spans.values())
    run_children = sum(st.s for name, st in spans.items()
                       if name.startswith(("prox.", "damping.", "space.", "solvers.stop")))
    assert spans["solvers.run"].child_s == pytest.approx(run_children, abs=resolution)
    main_children = sum(spans[n].s for n in ("solvers.run", "experiments.gen", "csvio.write"))
    assert spans["cli.main"].s == pytest.approx(
        spans["cli.main"].self_s + main_children, abs=resolution)


def test_reference_check_rejects_a_perturbed_optimum():
    from dataclasses import replace

    from proxflow import experiments

    inst = experiments.gen_lasso(20, 60, seed=3)
    ref = experiments.reference_solution(inst)
    assert reference_problem(inst, ref) is None
    x = ref.x.copy()
    x[ref.x != 0] *= 1 + 1e-4
    worse = replace(ref, x=x, value=inst.objective(x))
    assert reference_problem(inst, worse) is not None
    x = ref.x.copy()
    x[np.flatnonzero(ref.x == 0)[0]] = 1e-3
    assert reference_problem(inst, replace(ref, x=x, value=inst.objective(x))) is not None
    assert "objective" in reference_problem(inst, replace(ref, value=ref.value * (1 - 1e-9)))
    assert "converge" in reference_problem(inst, replace(ref, converged=False))


def test_converged_run_of_wrong_rank_is_failed_but_correct(tmp_path):
    series = "# proxflow-series-v1\nk,rel_error\n0,0.5\n40,1e-5\n"
    for variant in ("dy", "dy-accel"):
        (tmp_path / f"matcomp-anneal-{variant}-seed0.csv").write_text(series)
    (tmp_path / "matcomp-anneal-stages.csv").write_text(
        "# proxflow-stages-v1\nvariant,seed,stage,alpha,iterations,final_error\n"
        "dy,0,0,1.0,40,1e-5\n")
    stdout = ("dy seed=0: iters=40 status=converged final_rel_error=1.000e-05 rank=3\n"
              "dy-accel seed=0: iters=40 status=converged final_rel_error=1.000e-05 rank=4\n")
    out = JobOutput(["matcomp", "--anneal", "--desk"], 0, stdout)
    check = WORKLOADS["matcomp-anneal"].check([out], tmp_path, [])
    assert check.problems == []
    assert [rec.failed for rec in check.records] == [False, True]


def test_instance_seeds_reach_the_cli_and_flow_lab_refuses_them(tmp_path):
    args = bench.parse_args(["--workload", "lasso-full", "--seed", "3", "--seconds", "1",
                             "--instance-seeds", "0,2"])
    jobs = WORKLOADS["lasso-full"].jobs(args.instance_seeds, tmp_path)
    assert [job[job.index("--seed") + 1] for job in jobs] == ["0"] * 4 + ["2"] * 4
    with pytest.raises(SystemExit):
        bench.parse_args(["--workload", "flow-lab", "--seed", "3", "--seconds", "1",
                          "--instance-seeds", "1"])


def test_forced_non_convergence_counts_as_failure():
    result, report = bench.measure("lasso-desk", seed=0, seconds=0, trace=False,
                                   instance_seeds=(1,), extra=("--max-iters", "5"))
    assert result["correct"]
    assert result["attempted"] == 2 * 12
    assert result["failed"] == 2 * 12
    assert report["end_to_end"]["failed_frac"] == 1.0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])


def test_traced_fingerprints_match_untraced():
    result, report = bench.measure("lasso-desk", seed=5, seconds=0, trace=True,
                                   instance_seeds=(2,), extra=("--variants", "admm,tseng"))
    assert result["correct"], report["problems"]
    # seed 2 makes tseng diverge at lam = 0.1: reported, not dropped
    assert result["failed"] == 3 and result["attempted"] == 6
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    assert [r["traced"] for r in report["rounds"]] == [False, True, False]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lasso-desk",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
