"""The benchmark's probe contract: every per-layer metric that BENCHMARK.json
declares is measured on today's code.

A probe whose target is renamed, moved or re-signed drops its metric
silently (see ``perfbench/probes.py::measure``), and a traced benchmark run
then reports fewer metrics than the benchmark declares.  This test traces
one quick experiment of each workload, plus one scoring of its final model,
and checks that every declared metric is present and finite.  It loads the
benchmark's modules from their files without writing bytecode, so nothing
is written under ``perfbench/``.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from fedmoe import metrics
from fedmoe.config import ExperimentConfig
from fedmoe.federation import run_experiment

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 1


def load_module(name):
    """``perfbench/<name>.py`` as a module, read-only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


probes = load_module("probes")
workloads = load_module("workloads")

DECLARED = sorted(m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] != "trace.overhead_s")  # the runner's, not a probe's


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_per_layer_metric_is_measured(workload, tmp_path):
    cfg = ExperimentConfig.resolve(
        workloads.WORKLOADS[workload].config_items(SEED, quick=True))
    tracer = probes.Tracer()
    with tracer:
        result = run_experiment(cfg, tmp_path / "run")
        # through the module, so the probe's rebinding is what is called
        metrics.evaluate_accuracy(result.eval_backbone,
                                  result.server.global_params, result.test)
    assert tracer.missing == []
    assert not tracer.broken
    measured = probes.measure(tracer.summary())
    assert [name for name in DECLARED if name not in measured] == []
    assert all(math.isfinite(value) for value, _ in measured.values())
