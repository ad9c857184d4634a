import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_tracer_finds_every_patch_target_and_yields_every_declared_layer_metric(
        benchmark_tracer):
    # the tracer names package functions and oracle methods as strings
    # (damping.gamma, odelab.reference_trajectory, prox.<Class>.grad, ...);
    # a renamed or folded target breaks its install or drops a metric
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    tracer = benchmark_tracer.Tracer()
    try:
        tracer.install_setup()
        tracer.install_layers()
        produced = set(tracer.layer_metrics()) | {"trace.overhead_frac"}   # set by run.py
    finally:
        tracer.uninstall()
    assert declared - produced == set()
