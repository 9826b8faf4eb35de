"""The benchmark's result contract: every check in ``perfbench/checks.py``
passes a quick run of each workload.

The benchmark checks every experiment it times with its own readers of the
run's artifacts, and reads the result's surface:
``result.clients[n].adapter_params()``, ``result.server.global_params`` and
``result.parameter_names``.  A change to that surface, or to an artifact's
form, makes the benchmark report its runs incorrect; this test fails
first.  It loads the benchmark's modules from their files without writing
bytecode, so nothing is written under ``perfbench/``.
"""

import pytest

from fedmoe.config import ExperimentConfig
from fedmoe.federation import run_experiment
from oracles import perfbench_module

checks = perfbench_module("checks")
workloads = perfbench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_benchmark_check_passes_a_quick_run(workload, tmp_path):
    items = workloads.WORKLOADS[workload].config_items(1, quick=True)
    run_dir = tmp_path / "run"
    result = run_experiment(ExperimentConfig.resolve(items), run_dir)
    assert checks.check_experiment(result, run_dir, items, margin=0.0) == []
