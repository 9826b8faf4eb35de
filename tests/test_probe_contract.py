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


# Tape records per lock-step: per adapter the router, the masked softmax,
# the dense softmax's token mean, the mixture and its reshape, then LN2 (6);
# block 1's attention, FFN and two input reshapes (4); the pooled head, the
# cross-entropy and the total loss (3).  No aux gate opens in these runs.
RECORDS_PER_LOCK_STEP = 2 * 6 + 4 + 3


@pytest.mark.parametrize("workload", ["grid", "crowd"])
def test_every_lock_step_records_a_pinned_number_of_tape_entries(
        workload, monkeypatch):
    """``tensor.ops_per_step`` counts only the generic ops the probes see,
    so this counts what ``Tape.backward`` replays: an un-fused op would
    raise it."""
    from fedmoe.tensor import Tape

    replayed = []
    backward = Tape.backward

    def counting(tape, loss):
        replayed.append(len(tape._ops))
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", counting)
    cfg = ExperimentConfig.resolve(
        workloads.WORKLOADS[workload].config_items(SEED, quick=True))
    run_experiment(cfg)
    assert len(replayed) == {"grid": 4, "crowd": 27}[workload]
    assert set(replayed) == {RECORDS_PER_LOCK_STEP}
