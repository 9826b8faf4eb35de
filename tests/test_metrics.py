import math

import numpy as np
import pytest

from fedmoe.adapter import AdapterConfig
from fedmoe.backbone import Backbone, BackboneConfig
from fedmoe.data import synth_dataset
from fedmoe.errors import InputError
from fedmoe.metrics import (LoadMatrix, evaluate_accuracy, export_heatmap_csv,
                            export_mean_probs_csv, utilization_kl)

from oracles import kl_direct


def load_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    tokens = counts.sum(axis=1)
    probs = np.zeros_like(counts, dtype=np.float64)
    return LoadMatrix(counts=counts, prob_sums=probs, tokens=tokens)


# -- utilization KL -----------------------------------------------------------


def test_balanced_counts_give_exactly_zero_kl():
    report = utilization_kl(load_from_counts([[5, 5, 5, 5], [7, 7, 7, 7]]))
    assert report.per_layer == [0.0, 0.0]
    assert report.mean_kl == 0.0
    assert report.warnings == []


def test_single_expert_monopoly_gives_log_m():
    report = utilization_kl(load_from_counts([[64, 0, 0, 0, 0, 0, 0, 0]]))
    assert abs(report.per_layer[0] - math.log(8.0)) < 1e-12
    assert abs(report.per_layer[0] - 2.0794) < 1e-4


def test_skewed_counts_match_direct_summation():
    report = utilization_kl(load_from_counts([[10, 10, 20, 40]]))
    want = kl_direct([0.125, 0.125, 0.25, 0.5], [0.25] * 4)
    assert abs(report.per_layer[0] - want) < 1e-12
    assert abs(report.per_layer[0] - 0.1733) < 1e-4


def test_empty_layer_is_excluded_with_warning():
    report = utilization_kl(load_from_counts([[4, 4], [0, 0]]))
    assert report.per_layer[0] == 0.0
    assert math.isnan(report.per_layer[1])
    assert report.mean_kl == 0.0
    assert len(report.warnings) == 1 and "layer 1" in report.warnings[0]


def test_mean_is_average_of_live_layers():
    report = utilization_kl(load_from_counts([[8, 0], [4, 4]]))
    assert abs(report.per_layer[0] - math.log(2.0)) < 1e-12
    assert abs(report.mean_kl - math.log(2.0) / 2) < 1e-12


def test_kl_zero_iff_rows_uniform():
    assert utilization_kl(load_from_counts([[3, 3, 3]])).mean_kl == 0.0
    assert utilization_kl(load_from_counts([[4, 3, 3]])).mean_kl > 0.0


# -- load matrix ------------------------------------------------------------------


def test_record_tallies_one_row_per_layer():
    load = LoadMatrix.zeros(2, 2)
    assert load.layers == 2 and load.experts == 2
    assert (load.counts.dtype, load.prob_sums.dtype, load.tokens.dtype) == (
        np.int64, np.float64, np.int64)
    first = np.array([[1, 0]] * 3 + [[0, 1]], dtype=bool)
    second = np.array([[0, 1]] * 4, dtype=bool)
    load.record(0, first, np.array([[0.2, 0.1]] * 3 + [[0.0, 0.4]]))
    load.record(1, second, np.full((4, 2), 0.5))
    np.testing.assert_array_equal(load.counts, [[3, 1], [0, 4]])
    np.testing.assert_allclose(load.prob_sums, [[0.6, 0.7], [2.0, 2.0]],
                               atol=1e-15)
    load.record(0, first, np.zeros((4, 2)))
    load.record(1, second, np.zeros((4, 2)))
    np.testing.assert_array_equal(load.counts, [[6, 2], [0, 8]])
    np.testing.assert_array_equal(load.tokens, [8, 8])


def test_frequencies_normalize_live_rows_only():
    load = load_from_counts([[1, 3], [0, 0]])
    freq = load.frequencies()
    np.testing.assert_allclose(freq[0], [0.25, 0.75])
    np.testing.assert_array_equal(freq[1], [0.0, 0.0])


# -- csv export -------------------------------------------------------------------


def test_heatmap_csv_shape_and_determinism(tmp_path):
    load = load_from_counts([[2, 6], [4, 4]])
    path = tmp_path / "heatmap.csv"
    export_heatmap_csv(load, path)
    first = path.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == "layer,expert,count,frequency"
    assert len(lines) == 1 + 4
    assert lines[1] == "0,0,2,0.25"
    export_heatmap_csv(load, path)
    assert path.read_bytes() == first


def test_heatmap_frequencies_reparse_to_one(tmp_path):
    load = load_from_counts([[1, 2, 4], [5, 5, 5]])
    path = tmp_path / "heatmap.csv"
    export_heatmap_csv(load, path)
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    for layer in (0, 1):
        total = sum(float(r[3]) for r in rows if r[0] == str(layer))
        assert abs(total - 1.0) <= 1e-9


def test_mean_probs_csv(tmp_path):
    load = LoadMatrix(counts=np.array([[4, 0]]),
                      prob_sums=np.array([[3.0, 1.0]]),
                      tokens=np.array([4]))
    path = tmp_path / "probs.csv"
    export_mean_probs_csv(load, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,expert,mean_prob"
    assert lines[1] == "0,0,0.75"
    assert lines[2] == "0,1,0.25"


def test_heatmap_write_failure_names_path(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        export_heatmap_csv(load_from_counts([[1]]), tmp_path / "no/such/file.csv")


# -- accuracy ---------------------------------------------------------------------


BB = BackboneConfig(layers=2, dim=16, heads=2, seq_len=4)
AD = AdapterConfig(experts=4, rank=2)
BB_DATA = dict(classes=4, input_dim=5, frozen_seed=21)


def small_bb(cfg=BB, k=2):
    bb = Backbone(cfg, AD, **BB_DATA)
    bb.set_budget(k)
    return bb


def test_accuracy_is_chance_level_on_random_labels():
    bb = small_bb()
    ds = synth_dataset(2000, 4, 4, 5, separation=1.0, seed=22)
    shuffled = np.random.default_rng(23).permutation(ds.labels)
    ds.labels = shuffled  # any fixed predictor is at chance now
    acc = evaluate_accuracy(bb, bb.member_params(0), ds)
    assert abs(acc - 0.25) <= 0.05


def test_accuracy_on_single_item_is_zero_or_one():
    bb = small_bb()
    ds = synth_dataset(4, 4, 4, 5, separation=1.0, seed=24)
    acc = evaluate_accuracy(bb, bb.member_params(0), ds.subset([0]))
    assert acc in (0.0, 1.0)


def test_accuracy_is_invariant_to_example_order():
    bb = small_bb()
    ds = synth_dataset(64, 4, 4, 5, separation=2.0, seed=25)
    acc = evaluate_accuracy(bb, bb.member_params(0), ds, batch_size=16)
    perm = np.random.default_rng(26).permutation(len(ds))
    acc_perm = evaluate_accuracy(bb, bb.member_params(0), ds.subset(perm),
                                 batch_size=16)
    assert acc == acc_perm


def test_accuracy_records_stats_for_the_load_matrix():
    bb = small_bb()
    ds = synth_dataset(32, 4, 4, 5, separation=1.0, seed=27)
    load = LoadMatrix.zeros(2, 4)
    evaluate_accuracy(bb, bb.member_params(0), ds, batch_size=10, load=load)
    # count conservation: tokens * K selections per layer
    np.testing.assert_array_equal(load.tokens, [32 * 4, 32 * 4])
    assert (load.counts.sum(axis=1) == 32 * 4 * 2).all()


@pytest.mark.parametrize("k", [1, 3])
def test_load_tally_conserves_tokens_and_leaves_accuracy_unchanged(k):
    bb = small_bb(BackboneConfig(layers=3, dim=16, heads=2, seq_len=6), k)
    rng = np.random.default_rng(30)
    for adapter in bb.adapters:
        adapter.WR.values[...] = rng.normal(size=adapter.WR.shape)
        adapter.E2.values[...] = rng.normal(size=adapter.E2.shape)
    ds = synth_dataset(45, 4, 6, 5, separation=1.0, seed=31)
    plain = evaluate_accuracy(bb, bb.member_params(0), ds, batch_size=16)
    load = LoadMatrix.zeros(3, 4)
    assert evaluate_accuracy(bb, bb.member_params(0), ds, batch_size=16,
                             load=load) == plain
    np.testing.assert_array_equal(load.tokens, [45 * 6] * 3)
    np.testing.assert_array_equal(load.counts.sum(axis=1), [45 * 6 * k] * 3)
    np.testing.assert_allclose(load.prob_sums.sum(axis=1), load.tokens,
                               rtol=1e-12)


def test_accuracy_loads_given_parameters():
    bb = small_bb()
    ds = synth_dataset(32, 4, 4, 5, separation=1.0, seed=28)
    params = bb.member_params(0)
    params[0] = params[0] + 0.5
    evaluate_accuracy(bb, params, ds)
    np.testing.assert_array_equal(bb.trainable_parameters()[0].values[0],
                                  params[0])


def test_load_matrix_tallies_a_stack_as_the_sum_of_its_members_alone():
    """A stack of three members with its own budgets tallies, in ``counts``
    and ``tokens``, exactly the three members' single tallies summed."""
    bb = small_bb(BackboneConfig(layers=3, dim=16, heads=2, seq_len=6))
    rng = np.random.default_rng(32)
    members = [[rng.normal(size=p.shape[1:])
                for p in bb.trainable_parameters()] for _ in range(3)]
    budgets = [1, 2, 3]
    features = [synth_dataset(20, 4, 6, 5, separation=1.0, seed=s).features
                for s in (33, 34, 35)]
    rows = [rng.permutation(20)[:8] for _ in range(3)]
    bb.load_trainable(*members)
    bb.set_budget(budgets)
    stacked = LoadMatrix.zeros(3, 4)
    bb.forward(features, stacked, rows=rows)
    alone = LoadMatrix.zeros(3, 4)
    for params, k, f, r in zip(members, budgets, features, rows):
        bb.load_trainable(params)
        bb.set_budget(k)
        bb.forward([f], alone, rows=[r])
    np.testing.assert_array_equal(stacked.counts, alone.counts)
    np.testing.assert_array_equal(stacked.tokens, alone.tokens)
    np.testing.assert_array_equal(stacked.tokens, [3 * 8 * 6] * 3)
    np.testing.assert_allclose(stacked.prob_sums, alone.prob_sums, rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("batch_size", [0, -4])
def test_accuracy_rejects_a_batch_size_below_one(batch_size):
    bb = small_bb()
    ds = synth_dataset(8, 4, 4, 5, separation=1.0, seed=29)
    with pytest.raises(InputError, match=f"batch_size = {batch_size}"):
        evaluate_accuracy(bb, bb.member_params(0), ds, batch_size=batch_size)


def test_empty_test_sets_are_unconstructible():
    ds = synth_dataset(8, 4, 4, 5, separation=1.0, seed=29)
    with pytest.raises(InputError):
        ds.subset([])