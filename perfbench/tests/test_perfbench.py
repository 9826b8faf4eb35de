"""Tests of the benchmark itself: quick runs of every workload, the fixed
form of BENCHMARK.json, and each correctness check fed a wrong input.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from fedmoe.config import ExperimentConfig  # noqa: E402
from fedmoe.federation import run_experiment  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_is_the_fixed_form():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    assert list(committed) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert "setup_s" in [m["name"] for m in committed["end_to_end"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_every_declared_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in run.spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    out = _bench("--workload", "grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- the checks, on one tiny real experiment ----------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    items = WORKLOADS["grid"].config_items(seed=1, quick=True)
    run_dir = tmp_path_factory.mktemp("grid")
    result = run_experiment(ExperimentConfig.resolve(items), run_dir)
    return result, run_dir, items


def _copy(run_dir, tmp_path):
    target = tmp_path / "run"
    shutil.copytree(run_dir, target)
    return target


def test_clean_experiment_passes_every_check(experiment):
    result, run_dir, items = experiment
    assert checks.check_experiment(result, run_dir, items, margin=0.0) == []


def test_fedavg_check_catches_a_nudged_parameter(experiment):
    result, _, _ = experiment
    uploads = [c.adapter_params() for c in result.clients]
    sizes = [len(c.shard) for c in result.clients]
    checks.check_fedavg(result.server.global_params, uploads, sizes)
    nudged = [p.copy() for p in result.server.global_params]
    nudged[3].flat[0] += 1e-9
    with pytest.raises(checks.CheckFailed, match="fedavg"):
        checks.check_fedavg(nudged, uploads, sizes)


def test_checkpoint_check_catches_a_nudged_parameter(experiment):
    result, run_dir, _ = experiment
    blob = (run_dir / "checkpoint.bin").read_bytes()
    nudged = [p.copy() for p in result.server.global_params]
    nudged[0].flat[0] += 1e-9
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_checkpoint(blob, result.parameter_names, nudged)


@pytest.mark.parametrize("cut", [1, 8, 200])
def test_checkpoint_check_catches_truncation(experiment, cut):
    result, run_dir, _ = experiment
    blob = (run_dir / "checkpoint.bin").read_bytes()
    with pytest.raises(checks.CheckFailed, match="checkpoint"):
        checks.check_checkpoint(blob[:-cut], result.parameter_names,
                                result.server.global_params)


def test_checkpoint_check_catches_trailing_bytes(experiment):
    result, run_dir, _ = experiment
    blob = (run_dir / "checkpoint.bin").read_bytes() + b"\0" * 8
    with pytest.raises(checks.CheckFailed, match="trailing"):
        checks.check_checkpoint(blob, result.parameter_names,
                                result.server.global_params)


def test_heatmap_check_catches_a_count_off_by_one(experiment):
    _, run_dir, items = experiment
    rows = checks.read_csv(run_dir / "heatmap.csv")
    args = (checks.expected_test_examples(items), int(items["backbone.seq_len"]),
            checks.expected_eval_k(items))
    checks.check_heatmap(rows, *args)
    rows[5]["count"] = str(int(rows[5]["count"]) + 1)
    with pytest.raises(checks.CheckFailed, match="heatmap"):
        checks.check_heatmap(rows, *args)


def test_whole_run_check_reports_a_count_off_by_one(experiment, tmp_path):
    result, run_dir, items = experiment
    target = _copy(run_dir, tmp_path)
    lines = (target / "heatmap.csv").read_text().splitlines()
    layer, expert, count, freq = lines[1].split(",")
    lines[1] = ",".join([layer, expert, str(int(count) - 1), freq])
    (target / "heatmap.csv").write_text("\n".join(lines) + "\n")
    failures = checks.check_experiment(result, target, items, margin=0.0)
    assert any("heatmap" in f for f in failures)


def test_mean_probs_check_catches_a_row_off_one(experiment):
    _, run_dir, _ = experiment
    rows = checks.read_csv(run_dir / "mean_probs.csv")
    checks.check_mean_probs(rows)
    rows[0]["mean_prob"] = str(float(rows[0]["mean_prob"]) + 1e-6)
    with pytest.raises(checks.CheckFailed, match="mean_probs"):
        checks.check_mean_probs(rows)


def test_utilization_check_recomputes_the_kl(experiment):
    _, run_dir, _ = experiment
    heatmap = checks.read_csv(run_dir / "heatmap.csv")
    final = [r for r in checks.read_csv(run_dir / "metrics.csv")
             if r["client_id"] == "global"][-1]
    checks.check_utilization(heatmap, final["mean_util_kl"], False)
    off = repr(float(final["mean_util_kl"]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="utilization"):
        checks.check_utilization(heatmap, off, False)
    with pytest.raises(checks.CheckFailed, match="K = M"):
        checks.check_utilization(heatmap, final["mean_util_kl"], True)


def test_round_loss_check_catches_a_wrong_client_row(experiment):
    result, run_dir, _ = experiment
    rows = checks.read_csv(run_dir / "metrics.csv")
    sizes = [len(c.shard) for c in result.clients]
    checks.check_round_losses(rows, sizes)
    rows[0]["task_loss"] = repr(float(rows[0]["task_loss"]) * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="shard-weighted"):
        checks.check_round_losses(rows, sizes)


def test_accuracy_and_replay_checks():
    checks.check_accuracy(0.5, 4, 0.2)
    with pytest.raises(checks.CheckFailed, match="chance"):
        checks.check_accuracy(0.44, 4, 0.2)
    same = {"metrics.csv": "a", "checkpoint.bin": "b"}
    checks.check_identical([same, dict(same)])
    with pytest.raises(checks.CheckFailed, match="checkpoint.bin"):
        checks.check_identical([same, {**same, "checkpoint.bin": "c"}])


def test_expected_eval_k_follows_the_config():
    assert checks.expected_eval_k(WORKLOADS["grid"].config_items(0)) == 2
    assert checks.expected_eval_k(WORKLOADS["wide"].config_items(0)) == 2
    assert checks.expected_eval_k(WORKLOADS["crowd"].config_items(0)) == 4


# -- tracing ------------------------------------------------------------------


def test_probe_without_a_target_is_absent_and_the_run_goes_on(monkeypatch):
    import fedmoe.federation as federation
    table = dict(probes.PROBES)
    table["adapter.ExpertNetwork.forward"] = ("fedmoe.adapter",
                                              "GoneNetwork.forward", None)
    table["federation.build_clients"] = ("fedmoe.gone", "build_clients", None)
    monkeypatch.setattr(probes, "PROBES", table)
    original = federation.local_train
    cfg = ExperimentConfig.resolve(WORKLOADS["grid"].config_items(1, quick=True))
    with probes.Tracer() as tracer:
        assert federation.local_train is not original
        run_experiment(cfg)
    assert federation.local_train is original
    assert set(tracer.missing) == {"adapter.ExpertNetwork.forward",
                                   "federation.build_clients"}
    layer = {k: v for k, (v, _) in probes.measure(tracer.summary()).items()}
    for gone in ("adapter.expert_tokens", "adapter.routed_fraction",
                 "federation.build_clients_s"):
        assert gone not in layer
    assert layer["federation.steps"] == 16
    assert layer["backbone.instances"] == 5
    assert layer["tensor.ops_per_step"] > 100
    assert layer["adapter.routed_pairs"] > 0
    assert np.isclose(layer["federation.step_ms"],
                      1e3 * layer["federation.local_train_s"] / 16)
