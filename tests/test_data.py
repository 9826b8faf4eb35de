import csv
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmoe.data import (PARTITION_SCHEMES, DataConfig, LabeledDataset,
                         load_csv, partition, synth_dataset, train_test_split)
from fedmoe.errors import ConfigurationError, InputError

from oracles import (export_partition_csv, partition_loop,
                     synth_dataset_loop, train_test_split_loop)


def mean_label_entropy(ds, shards):
    """Average over clients of the label entropy inside their shard."""
    entropies = []
    for shard in shards:
        counts = np.bincount(ds.labels[shard], minlength=ds.class_count)
        p = counts[counts > 0] / counts.sum()
        entropies.append(-np.sum(p * np.log(p)))
    return float(np.mean(entropies))


def assert_disjoint_cover(shards, n):
    merged = np.concatenate(shards)
    assert len(merged) == n
    np.testing.assert_array_equal(np.sort(merged), np.arange(n))


# -- synthetic data ---------------------------------------------------------------


def test_synth_is_deterministic_in_seed():
    a = synth_dataset(50, 4, 3, 5, separation=2.0, seed=9)
    b = synth_dataset(50, 4, 3, 5, separation=2.0, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synth_dataset(50, 4, 3, 5, separation=2.0, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_synth_class_balance_rule():
    ds = synth_dataset(10, 4, 2, 3, separation=1.0, seed=0)
    counts = np.bincount(ds.labels, minlength=4)
    np.testing.assert_array_equal(counts, [3, 3, 2, 2])


def test_synth_high_separation_is_nearest_mean_solvable():
    ds = synth_dataset(200, 4, 3, 6, separation=50.0, seed=1)
    flat = ds.features.reshape(len(ds), -1)
    means = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(4)])
    dist = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (dist.argmin(axis=1) == ds.labels).all()


@pytest.mark.parametrize("kwargs", [
    dict(n=0, classes=4, seq_len=2, input_dim=3, separation=1.0, seed=0),
    dict(n=10, classes=0, seq_len=2, input_dim=3, separation=1.0, seed=0),
    dict(n=10, classes=4, seq_len=2, input_dim=3, separation=0.0, seed=0),
    dict(n=3, classes=4, seq_len=2, input_dim=3, separation=1.0, seed=0),
])
def test_synth_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        synth_dataset(**kwargs)


# -- partitioning -----------------------------------------------------------------


IID = DataConfig(partition="iid")
ONE_LABEL = DataConfig(partition="one_label")


def dirichlet(alpha):
    return DataConfig(partition="dirichlet", alpha=alpha)


@pytest.mark.parametrize("spec", [
    (IID, 4, 0),
    (IID, 7, 1),
    (dirichlet(0.1), 4, 2),
    (dirichlet(10.0), 10, 3),
    (ONE_LABEL, 4, 4),
    (ONE_LABEL, 9, 5),
])
def test_partition_is_a_disjoint_cover(spec):
    ds = synth_dataset(203, 4, 2, 3, separation=1.0, seed=6)
    shards = partition(ds, *spec)
    assert len(shards) == spec[1]
    assert_disjoint_cover(shards, len(ds))
    assert all(len(s) > 0 for s in shards)


def test_partition_is_deterministic():
    ds = synth_dataset(100, 4, 2, 3, separation=1.0, seed=7)
    first = partition(ds, dirichlet(0.5), 5, seed=8)
    second = partition(ds, dirichlet(0.5), 5, seed=8)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_one_label_gives_single_class_shards():
    ds = synth_dataset(120, 4, 2, 3, separation=1.0, seed=9)
    for n_clients in (4, 8):
        shards = partition(ds, ONE_LABEL, n_clients, seed=10)
        for i, shard in enumerate(shards):
            labels = set(ds.labels[shard].tolist())
            assert labels == {i % 4}
        assert_disjoint_cover(shards, len(ds))


def test_one_label_rejects_too_few_clients():
    ds = synth_dataset(40, 4, 2, 3, separation=1.0, seed=11)
    with pytest.raises(ConfigurationError):
        partition(ds, ONE_LABEL, 2, seed=0)


def test_iid_shards_track_global_class_proportions():
    ds = synth_dataset(1000, 4, 2, 3, separation=1.0, seed=12)
    shards = partition(ds, IID, 4, seed=4)
    global_p = np.bincount(ds.labels, minlength=4) / len(ds)
    for shard in shards:
        p = np.bincount(ds.labels[shard], minlength=4) / len(shard)
        assert np.abs(p - global_p).max() <= 0.05


def test_dirichlet_entropy_grows_with_alpha():
    ds = synth_dataset(400, 4, 2, 3, separation=1.0, seed=14)
    means = {}
    for alpha in (0.1, 1.0, 10.0):
        values = [
            mean_label_entropy(ds, partition(ds, dirichlet(alpha), 4, seed))
            for seed in range(20)
        ]
        means[alpha] = float(np.mean(values))
    assert means[0.1] < means[1.0] < means[10.0]


def test_empty_shards_are_reseeded():
    # extreme skew over many clients forces empties before repair
    ds = synth_dataset(12, 2, 2, 2, separation=1.0, seed=15)
    shards = partition(ds, dirichlet(0.01), 12, seed=16)
    assert all(len(s) >= 1 for s in shards)
    assert_disjoint_cover(shards, 12)


def test_partition_needs_enough_examples():
    ds = synth_dataset(4, 2, 2, 2, separation=1.0, seed=17)
    for clients in (5, 0):  # more clients than examples, and no client
        with pytest.raises(ConfigurationError, match=f"over {clients} clients"):
            partition(ds, IID, clients, seed=0)


# -- csv i/o -----------------------------------------------------------------------


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    header = [f"f{i}" for i in range(6)] + ["label"]
    rows = [
        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1],
        [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 0],
        [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2],
    ]
    write_csv(path, rows, header)
    ds = load_csv(path, seq_len=2, input_dim=3)
    assert len(ds) == 3 and ds.class_count == 3
    np.testing.assert_array_equal(ds.labels, [1, 0, 2])
    np.testing.assert_allclose(ds.features[1], [[1.0, 1.1, 1.2], [1.3, 1.4, 1.5]])


def test_load_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [[0.0, 0.5, 1]], header=["a", "b", "label"])
    with pytest.raises(InputError, match="5 columns"):
        load_csv(path, seq_len=2, input_dim=2)

    write_csv(path, [[0.0, 0.5, "x"]], header=["a", "b", "label"])
    with pytest.raises(InputError, match="bad.csv:2"):
        load_csv(path, seq_len=1, input_dim=2)

    write_csv(path, [], header=["a", "b", "label"])
    with pytest.raises(InputError, match="no data rows"):
        load_csv(path, seq_len=1, input_dim=2)

    path.write_text("")
    with pytest.raises(InputError, match="empty"):
        load_csv(path, seq_len=1, input_dim=2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    write_csv(path, [[0.0, 0.5, 0], [1.0, cell, 1]], header=["a", "b", "label"])
    with pytest.raises(InputError, match=r"bad\.csv:3: column 2 \('b'\)"):
        load_csv(path, seq_len=1, input_dim=2)


def test_export_partition_csv_is_sorted_and_deterministic(tmp_path):
    shards = [np.array([3, 0]), np.array([2, 1])]
    path = tmp_path / "assignment.csv"
    export_partition_csv(shards, path)
    first = path.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == "index,client_id"
    assert [l.split(",") for l in lines[1:]] == [
        ["0", "0"], ["1", "1"], ["2", "1"], ["3", "0"]]
    export_partition_csv(shards, path)
    assert path.read_bytes() == first


# -- dataset plumbing -----------------------------------------------------------------


def test_train_test_split_is_stratified_and_disjoint():
    ds = synth_dataset(100, 4, 2, 3, separation=1.0, seed=18)
    train, test = train_test_split(ds, test_fraction=0.2, seed=19)
    assert len(train) + len(test) == 100
    assert set(np.unique(train.labels)) == set(range(4))
    assert set(np.unique(test.labels)) == set(range(4))
    assert 15 <= len(test) <= 25
    again = train_test_split(ds, test_fraction=0.2, seed=19)
    np.testing.assert_array_equal(again[1].features, test.features)


def test_train_test_split_sends_a_singleton_class_wholly_to_train():
    labels = np.array([0, 0, 0, 0, 0, 1, 2, 2])
    ds = LabeledDataset(np.zeros((8, 2, 2)), labels, class_count=3)
    train, test = train_test_split(ds, test_fraction=0.2, seed=0)
    assert np.count_nonzero(train.labels == 1) == 1
    assert np.count_nonzero(test.labels == 1) == 0
    for c in (0, 2):  # two or more examples: at least one on each side
        assert np.count_nonzero(train.labels == c) >= 1
        assert np.count_nonzero(test.labels == c) >= 1


def test_train_test_split_validates_fraction():
    ds = synth_dataset(10, 2, 2, 2, separation=1.0, seed=20)
    with pytest.raises(ConfigurationError):
        train_test_split(ds, 0.0, seed=0)


def test_dataset_validation_and_subset():
    with pytest.raises(InputError):
        LabeledDataset(np.zeros((2, 2, 2)), np.array([0, 5]), class_count=4)
    with pytest.raises(InputError):
        LabeledDataset(np.zeros((0, 2, 2)), np.array([]), class_count=2)
    ds = LabeledDataset(np.arange(8.0).reshape(4, 1, 2),
                        np.array([0, 1, 0, 1]), class_count=2)
    sub = ds.subset([2, 3])
    np.testing.assert_array_equal(sub.labels, [0, 1])
    np.testing.assert_allclose(sub.features[0], [[4.0, 5.0]])


# -- the array forms against their loop references ----------------------------------


def results(f, reference, *args):
    """``f(*args)`` and ``reference(*args)``; or, when the reference raises,
    check that ``f`` raises the same error and return ``None, None``."""
    try:
        want = reference(*args)
    except (ConfigurationError, InputError) as exc:
        with pytest.raises(type(exc)) as raised:
            f(*args)
        assert str(raised.value) == str(exc)
        return None, None
    return f(*args), want


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def arrays_of(datasets):
    return [a for d in datasets
            for a in (d.features, d.labels, np.array(d.class_count))]


def numbered_dataset(labels, class_count):
    """Labels as given; example i's one feature is i."""
    n = len(labels)
    return LabeledDataset(np.arange(n, dtype=float).reshape(n, 1, 1),
                          np.asarray(labels), class_count)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), classes=st.integers(0, 6),
       seq_len=st.integers(1, 3), input_dim=st.integers(1, 3),
       separation=st.sampled_from([0.0, 0.5, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_synth_dataset_matches_its_loop_reference(n, classes, seq_len,
                                                  input_dim, separation, seed):
    got, want = results(synth_dataset, synth_dataset_loop, n, classes,
                        seq_len, input_dim, separation, seed)
    if want is not None:
        assert_same_arrays(arrays_of([got]), arrays_of([want]))


labelled = st.integers(2, 5).flatmap(lambda c: st.tuples(
    st.lists(st.integers(0, c - 1), min_size=1, max_size=60), st.just(c)))


@settings(max_examples=200, deadline=None)
@given(data=labelled, fraction=st.one_of(st.floats(0.01, 0.99),
                                         st.sampled_from([0.0, 1.0])),
       seed=st.integers(0, 2 ** 32 - 1))
@example(data=([0, 0, 0, 2, 2, 2], 3), fraction=0.5, seed=0)  # no class 1
@example(data=([0, 1, 1], 2), fraction=0.5, seed=0)  # empty test side
def test_train_test_split_matches_its_loop_reference(data, fraction, seed):
    got, want = results(train_test_split, train_test_split_loop,
                        numbered_dataset(*data), fraction, seed)
    if want is not None:
        assert_same_arrays(arrays_of(got), arrays_of(want))


@settings(max_examples=300, deadline=None)
@given(data=labelled, scheme=st.sampled_from(PARTITION_SCHEMES),
       log_alpha=st.floats(-2.0, 1.0), clients=st.integers(0, 61),
       seed=st.integers(0, 2 ** 32 - 1))
@example(data=([0, 0, 2, 2, 2, 0], 3), scheme="dirichlet", log_alpha=-2.0,
         clients=6, seed=0)  # no class 1, empty shards
@example(data=([0, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2), scheme="one_label",
         log_alpha=0.0, clients=6, seed=0)  # clients 2 and 4 get nothing
def test_partition_matches_its_loop_reference(data, scheme, log_alpha,
                                              clients, seed):
    cfg = DataConfig(partition=scheme, alpha=10.0 ** log_alpha)
    got, want = results(partition, partition_loop, numbered_dataset(*data),
                        cfg, clients, seed)
    if want is not None:
        assert_same_arrays(got, want)


@pytest.mark.parametrize("n,classes,cfg,clients", [
    (12, 2, dirichlet(0.01), 12),  # the case of test_empty_shards_are_reseeded
    (200, 4, dirichlet(0.05), 64),
    (300, 3, dirichlet(0.3), 150),
])
def test_reseeded_partitions_match_the_loop_reference(n, classes, cfg, clients):
    """Cases with many empty shards, so that a donor gives several times and
    the draws of the re-seed line up only if each pop takes the same
    example.  (The one_label re-seed is an explicit example above.)"""
    for seed in range(5):
        ds = synth_dataset(n, classes, 2, 2, separation=1.0, seed=15 + seed)
        assert_same_arrays(partition(ds, cfg, clients, seed=16 + seed),
                           partition_loop(ds, cfg, clients, seed=16 + seed))


# -- a guard against per-example Python ----------------------------------------------


def profile_calls(f, *args):
    """The Python and C calls and the Python lines that ``f(*args)`` runs,
    and the most pymalloc blocks it held at any of them beyond those held
    before it began."""
    events, peak, base = 0, 0, sys.getallocatedblocks()

    def tally(frame, event, arg):
        nonlocal events, peak
        if event in ("call", "c_call", "line"):
            events += 1
            peak = max(peak, sys.getallocatedblocks() - base)
        return tally  # as a trace function, also trace the frame's lines

    tracer = sys.gettrace()
    sys.setprofile(tally)
    sys.settrace(tally)
    try:
        f(*args)
    finally:
        sys.settrace(tracer)
        sys.setprofile(None)
    return events, peak


@pytest.mark.parametrize("step", [
    "synth", "split", *(f"partition-{scheme}" for scheme in PARTITION_SCHEMES)])
def test_data_steps_run_no_python_per_example(step):
    """Ten times the examples, with classes and clients fixed and no shard
    left empty, make the same calls and run the same lines.  Neither count
    sees a loop inside one C call, such as ``list.extend`` over an array, so
    the pymalloc blocks held (one per boxed example) must not grow with the
    examples either."""
    n, clients = 400, 8
    runs = {}
    for size in (n, 10 * n):
        ds = synth_dataset(size, 4, 2, 2, separation=1.0, seed=3)
        steps = {"synth": (synth_dataset, size, 4, 2, 2, 1.0, 3),
                 "split": (train_test_split, ds, 0.2, 5)}
        for scheme in PARTITION_SCHEMES:
            cfg = DataConfig(partition=scheme, alpha=10.0)
            steps[f"partition-{scheme}"] = (partition, ds, cfg, clients, 5)
        f, *args = steps[step]
        f(*args)  # warm: first calls may import or cache
        runs[size] = profile_calls(f, *args)
    assert runs[10 * n][0] == runs[n][0]
    assert runs[10 * n][1] - runs[n][1] < n // 4
