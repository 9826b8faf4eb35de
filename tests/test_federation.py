"""Federated rounds: aggregation algebra, determinism, checkpoints."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedmoe.backbone import Backbone, ParameterLayout
from fedmoe.config import ExperimentConfig, parse_config_file
from fedmoe.data import LabeledDataset
from fedmoe.errors import AggregationError, InputError, UsageError
from fedmoe.federation import (STACK_ROWS, ServerState, aggregate, broadcast,
                               build_clients, load_checkpoint, local_train,
                               resolve_eval_k, run_experiment, run_round,
                               save_checkpoint, schedule, write_metrics_csv)
from fedmoe.errors import ConfigurationError
from oracles import aggregate_uploads
from regenerate_golden import GOLDEN, RUNS

SMALL = {
    "data.n": "240", "data.input_dim": "8", "data.classes": "4",
    "backbone.dim": "16", "backbone.seq_len": "4", "backbone.heads": "2",
    "adapter.experts": "4", "adapter.rank": "2", "sparsity.k": "2",
    "federation.clients": "4", "federation.rounds": "2",
    "federation.batch_size": "32",
}


def small_config(**extra: str) -> ExperimentConfig:
    overrides = dict(SMALL)
    overrides.update(extra)
    return ExperimentConfig.resolve(overrides)


def make_world(cfg):
    """Client records, the shared backbone, the server, and the test split
    for ``cfg``."""
    from fedmoe.data import train_test_split
    from fedmoe.federation import _load_dataset

    dataset = _load_dataset(cfg)
    train, test = train_test_split(dataset, cfg.data.test_fraction,
                                   cfg.seeds.data)
    backbone = Backbone(cfg.backbone, cfg.adapter,
                        classes=train.class_count,
                        input_dim=cfg.data.input_dim,
                        frozen_seed=cfg.seeds.frozen)
    clients = build_clients(cfg, train, backbone)
    server = ServerState(global_params=backbone.member_params(0))
    return clients, backbone, server, test


def train_alone(client, backbone, cfg, round_index):
    """``local_train`` of one client: copies of its params, and its
    metrics."""
    [metrics] = local_train([client], backbone, cfg, round_index)
    return client.adapter_params(), metrics


def store_state(clients):
    """Copies of the clients' rows of theta, m, v and t."""
    store = clients[0].store
    ids = [c.client_id for c in clients]
    return [a[ids].copy() for a in (store.theta, store.m, store.v, store.t)]


def random_upload(rng, shapes):
    return [rng.normal(size=s) for s in shapes]


SHAPES = [(2, 3), (4,), (3, 2, 2)]
LAYOUT = ParameterLayout.of(["a", "b", "c"], SHAPES)


class TestAggregate:
    def test_consensus_is_bitwise_idempotent(self):
        rng = np.random.default_rng(0)
        params = random_upload(rng, SHAPES)
        uploads = [([p.copy() for p in params], size) for size in (1, 3, 5)]
        out = aggregate_uploads(uploads)
        for got, want in zip(out, params):
            np.testing.assert_array_equal(got, want)

    def test_two_client_scalar_example(self):
        uploads = [([np.array([0.0])], 1), ([np.array([4.0])], 3)]
        out = aggregate_uploads(uploads)
        assert out[0][0] == 3.0

    def test_matches_direct_weighted_average(self):
        rng = np.random.default_rng(1)
        sizes = [7, 2, 11, 5]
        uploads = [(random_upload(rng, SHAPES), s) for s in sizes]
        out = aggregate_uploads(uploads)
        total = sum(sizes)
        for j in range(len(SHAPES)):
            direct = sum((s / total) * u[j] for u, s in uploads)
            np.testing.assert_allclose(out[j], direct, rtol=0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        sizes = [3, 9, 4]
        ups_a = [(random_upload(rng, SHAPES), s) for s in sizes]
        ups_b = [(random_upload(rng, SHAPES), s) for s in sizes]
        alpha, beta = 1.7, -0.4
        mixed = [([alpha * pa + beta * pb for pa, pb in zip(a, b)], s)
                 for (a, s), (b, _) in zip(ups_a, ups_b)]
        combined = aggregate_uploads(mixed)
        separate = [alpha * x + beta * y
                    for x, y in zip(aggregate_uploads(ups_a),
                                    aggregate_uploads(ups_b))]
        for got, want in zip(combined, separate):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_upload_is_exact_copy(self):
        rng = np.random.default_rng(3)
        params = random_upload(rng, SHAPES)
        out = aggregate_uploads([(params, 17)])
        for got, want in zip(out, params):
            np.testing.assert_array_equal(got, want)
        out[0][0, 0] += 1.0
        assert params[0][0, 0] != out[0][0, 0]

    def test_uploads_and_sizes_must_agree(self):
        with pytest.raises(UsageError, match="2 uploads and 3 shard sizes"):
            aggregate(np.zeros((2, LAYOUT.width)), [1, 2, 3], LAYOUT)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(AggregationError, match="client 0"):
            aggregate_uploads([([np.zeros(2)], 0), ([np.zeros(2)], 4)])

    def test_empty_uploads_is_usage_error(self):
        with pytest.raises(UsageError):
            aggregate(np.zeros((0, LAYOUT.width)), [], LAYOUT)

    def test_non_finite_upload_names_client_and_parameter(self):
        bad = [np.zeros(2), np.array([0.0, np.nan])]
        with pytest.raises(AggregationError,
                           match=r"client 1: parameter 1 \(t1\) is not finite"):
            aggregate_uploads([([np.zeros(2), np.zeros(2)], 3), (bad, 5)])

    @pytest.mark.parametrize("column", [0, 5, 6, 9, 10, 21])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_maps_back_to_its_parameter_name(self, column,
                                                               value):
        """Columns 0-5 hold ``a``, 6-9 ``b`` and 10-21 ``c``; the first
        non-finite value in row order names its client and tensor."""
        rows = np.zeros((3, LAYOUT.width))
        rows[2, column] = value
        rows[2, -1] = np.nan  # a later column of the same row
        name = LAYOUT.names[LAYOUT.index_at(column)]
        assert LAYOUT.index_at(column) == (0 if column < 6 else
                                           1 if column < 10 else 2)
        with pytest.raises(AggregationError,
                           match=f"client 2: parameter "
                                 f"{LAYOUT.index_at(column)} \\({name}\\)"):
            aggregate(rows, [1, 1, 1], LAYOUT)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_match_the_per_tensor_anchored_formula_bit_for_bit(self,
                                                                    data):
        """Over store rows, the anchored sum gives the bits of the
        per-tensor formula ``out_j = v0_j + sum_n w_n (v_n_j - v0_j)``."""
        shapes = data.draw(st.lists(
            st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple),
            min_size=1, max_size=4), label="shapes")
        sizes = data.draw(st.lists(st.integers(1, 500), min_size=1,
                                   max_size=7), label="sizes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        uploads = [random_upload(rng, shapes) for _ in sizes]
        layout = ParameterLayout.of([f"p{j}" for j in range(len(shapes))],
                                    shapes)
        rows = np.stack([layout.flatten(u) for u in uploads])
        got = aggregate(rows, sizes, layout)
        total = sum(sizes)
        weights = [n / total for n in sizes]
        ref = uploads[0]
        want = [r.copy() for r in ref]
        for w, params in zip(weights[1:], uploads[1:]):
            for j, p in enumerate(params):
                want[j] += w * (p - ref[j])
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestBroadcastAndSparsity:
    def test_broadcast_copies_values_not_references(self):
        cfg = small_config()
        clients, _, server, _ = make_world(cfg)
        server.global_params = [v + 1.0 for v in server.global_params]
        broadcast(server, clients)
        theta = clients[0].store.theta
        for client in clients:
            for got, want in zip(client.params, server.global_params):
                np.testing.assert_array_equal(got, want)
                assert got is not want
                assert np.shares_memory(got, theta[client.client_id])
        assert clients[0].params[0] is not clients[1].params[0]
        server.global_params[0][...] = -99.0
        assert not any(np.any(c.params[0] == -99.0) for c in clients)

    def test_broadcast_no_clients_is_noop(self):
        server = ServerState(global_params=[np.ones(3)])
        broadcast(server, [])  # must not raise

    def test_fixed_and_capability_policies(self):
        clients, _, _, _ = make_world(small_config(**{"sparsity.k": "3"}))
        assert [c.k_n for c in clients] == [3, 3, 3, 3]
        cfg = small_config(**{"sparsity.mode": "capability",
                              "sparsity.k_high": "4", "sparsity.k_low": "1",
                              "sparsity.high_fraction": "0.5"})
        clients, _, _, _ = make_world(cfg)
        assert [c.k_n for c in clients] == [4, 4, 1, 1]

    @pytest.mark.parametrize("policy", [
        {"sparsity.mode": "fixed", "sparsity.k": "0"},
        {"sparsity.mode": "fixed", "sparsity.k": "5"},
        {"sparsity.mode": "capability", "sparsity.k_high": "9"},
        {"sparsity.mode": "warp"},
    ])
    def test_out_of_range_budget_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            small_config(**policy)

    def test_eval_k_defaults_to_widest_client(self):
        cfg = small_config(**{"sparsity.mode": "capability",
                              "sparsity.k_high": "4", "sparsity.k_low": "1"})
        clients, _, _, _ = make_world(cfg)
        assert resolve_eval_k(cfg, clients) == 4
        pinned = small_config(**{"sparsity.eval_k": "3"})
        assert resolve_eval_k(pinned, clients) == 3


class TestLocalTrain:
    def test_zero_lr_leaves_parameters_unchanged(self):
        cfg = small_config(**{"federation.lr": "0"})
        clients, backbone, _, _ = make_world(cfg)
        before = clients[0].adapter_params()
        params, frag = train_alone(clients[0], backbone, cfg, round_index=0)
        for got, want in zip(params, before):
            np.testing.assert_array_equal(got, want)
        assert frag.steps == 2  # 48-sample shard, batch 32

    def test_same_seed_same_round_is_deterministic(self):
        cfg = small_config()
        runs = []
        for _ in range(2):
            clients, backbone, _, _ = make_world(cfg)
            params, frag = train_alone(clients[1], backbone, cfg,
                                       round_index=0)
            runs.append((params, frag.task_loss))
        for a, b in zip(runs[0][0], runs[1][0]):
            np.testing.assert_array_equal(a, b)
        assert runs[0][1] == runs[1][1]

    def test_round_index_changes_the_shuffle(self):
        cfg = small_config()
        outs = []
        for round_index in (0, 1):
            clients, backbone, _, _ = make_world(cfg)
            params, _ = train_alone(clients[1], backbone, cfg, round_index)
            outs.append(params)
        assert any(not np.array_equal(a, b) for a, b in zip(*outs))

    def test_frozen_weights_untouched(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        checksum = backbone.frozen_checksum()
        train_alone(clients[0], backbone, cfg, round_index=0)
        assert backbone.frozen_checksum() == checksum

    def test_result_lands_in_the_store_row_and_params_are_views(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        store = clients[0].store
        before = store_state(clients)
        params, _ = train_alone(clients[0], backbone, cfg, round_index=0)
        trained = [p.values[0] for p in backbone.trainable_parameters()]
        for got, record, live in zip(params, clients[0].params, trained):
            np.testing.assert_array_equal(got, record)
            np.testing.assert_array_equal(got, live)
            assert np.shares_memory(record, store.theta[0])
            assert not np.shares_memory(got, store.theta)
        after = store_state(clients)
        assert not np.array_equal(after[0][0], before[0][0])
        assert after[3][0] == 2  # Adam steps: 48-sample shard, batch 32
        for a, b in zip(after, before):  # the other clients' rows
            np.testing.assert_array_equal(a[1:], b[1:])
        params[0][...] = -99.0
        assert not np.any(clients[0].params[0] == -99.0)

    def test_clients_sharing_a_backbone_do_not_leak_state(self):
        cfg = small_config()
        alone, interleaved = [], []
        for others in (False, True):
            clients, backbone, _, _ = make_world(cfg)
            out = alone if not others else interleaved
            for round_index in (0, 1):
                out.append(train_alone(clients[0], backbone, cfg,
                                       round_index)[0])
                if others:  # other clients train on the same tensors between
                    local_train(clients[1:], backbone, cfg, round_index)
        for a, b in zip(alone, interleaved):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_optimizer_state_persists_across_rounds_by_default(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        store = clients[0].store
        _, frag0 = train_alone(clients[0], backbone, cfg, round_index=0)
        m = store.m[0].copy()
        assert np.any(m != 0.0) and store.t[0] == frag0.steps
        train_alone(clients[0], backbone, cfg, round_index=1)
        assert store.t[0] == 2 * frag0.steps
        assert not np.array_equal(store.m[0], m)

    def test_reset_optimizer_flag_gives_fresh_moments(self):
        """With the flag, round 1 starts from zero moments and step count,
        whatever the row held: it matches a twin whose row held stale
        ones."""
        cfg = small_config(**{"federation.reset_optimizer": "true"})
        clients, backbone, _, _ = make_world(cfg)
        twins, twin_backbone, _, _ = make_world(cfg)
        _, frag0 = train_alone(clients[0], backbone, cfg, round_index=0)
        twins[0].store.theta[0] = clients[0].store.theta[0]
        twins[0].store.m[0] = twins[0].store.v[0] = 1.0
        twins[0].store.t[0] = 7
        train_alone(clients[0], backbone, cfg, round_index=1)
        train_alone(twins[0], twin_backbone, cfg, round_index=1)
        assert clients[0].store.t[0] == frag0.steps
        for a, b in zip(store_state(clients[:1]), store_state(twins[:1])):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_names_client_and_round(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        store = clients[2].store
        store.train.features[clients[2].shard[0], 0, 0] = np.nan
        train_alone(clients[1], backbone, cfg, round_index=3)
        with pytest.raises(AggregationError, match="client 2, round 3"):
            train_alone(clients[2], backbone, cfg, round_index=3)

        # in a lock-step, the second member goes non-finite at round 1's
        # step 0, and no member's row moves
        cfg = small_config(**STACKED)
        clients, backbone, _, _ = make_world(cfg)
        local_train(clients, backbone, cfg, round_index=0)
        store = clients[0].store
        train = store.train
        features = train.features.copy()  # a fresh array: a fresh prefix
        features[clients[1].shard, 0, 0] = np.nan
        store.train = LabeledDataset(features, train.labels, train.class_count)
        before = store_state(clients)
        assert list(before[3]) == [4, 4, 4]
        with pytest.raises(AggregationError,
                           match=f"client {clients[1].client_id}, round 1, "
                                 "step 0: loss is not finite"):
            local_train(clients, backbone, cfg, round_index=1)
        for got, want in zip(store_state(clients), before):
            np.testing.assert_array_equal(got, want)


# Three iid shards, budgets 4, 4 and 1, a trainable head, aux on: the K=4
# members' aux gates open and shut step by step, the K=1 member's router gets
# no gradient and its gate stays shut.
STACKED = {"federation.clients": "3", "data.partition": "iid",
           "data.n": "240", "federation.batch_size": "16",
           "federation.lr": "0.01",
           "backbone.trainable_head": "true", "sparsity.mode": "capability",
           "sparsity.k_high": "4", "sparsity.k_low": "1",
           "aux.lambda": "0.01", "aux.theta_th": "0.26"}


def mixed_world(cfg, sizes=(40, 50, 70)):
    """``make_world`` with the clients' shards cut to ``sizes`` examples,
    disjoint runs of the training set."""
    clients, backbone, server, test = make_world(cfg)
    starts = np.cumsum((0,) + sizes)
    for client, a, b in zip(clients, starts, starts[1:]):
        client.shard = np.arange(a, b)
    return clients, backbone, server, test


class TestSchedule:
    def test_mixed_lock_step_members_train_bit_for_bit_as_alone(self):
        """Shards of 40, 50 and 70 at batch size 32: all three share the
        first 32-row step; then 8, 18 and 32 rows apart, and the third
        takes a 6-row step.  From round 2 on the third's Adam step count
        differs from the others' inside their shared lock-step; each member
        still gets the params, losses, moments and step count of training
        alone."""
        cfg = small_config(**{**STACKED, "federation.batch_size": "32"})
        clients, backbone, _, _ = mixed_world(cfg)
        assert [c.k_n for c in clients] == [4, 4, 1]
        assert schedule([40, 50, 70], 32, 1) == [
            (0, 32, [0, 1, 2]), (1, 8, [0]), (1, 18, [1]), (1, 32, [2]),
            (2, 6, [2])]
        together = [local_train(clients, backbone, cfg, r) for r in (0, 1)]
        assert list(clients[0].store.t) == [4, 4, 6]
        aux = [frag.aux_loss for frag in together[1]]
        assert aux[0] > 0.0 and aux[1] > 0.0 and aux[0] != aux[1]
        assert aux[2] == 0.0
        for i, client in enumerate(clients):
            twins, twin_backbone, _, _ = mixed_world(cfg)
            for r, results in enumerate(together):
                [want] = local_train([twins[i]], twin_backbone, cfg, r)
                assert results[i] == want
            for got, want in zip(store_state([client]),
                                 store_state([twins[i]])):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("run", RUNS)
    def test_schedule_on_the_golden_configs(self, run):
        """Each client's steps come in order, each lock-step has one row
        count and at most ``max(rows, STACK_ROWS)`` rows, its members in
        client-id order; ``crowd`` takes at most 96 lock-steps a round."""
        cfg = ExperimentConfig.resolve(
            parse_config_file(GOLDEN / run / "config.txt"))
        clients = make_world(cfg)[0]
        fed = cfg.federation
        sizes = [len(c.shard) for c in clients]
        steps = schedule(sizes, fed.batch_size, fed.epochs)
        seen = [[] for _ in clients]
        for s, r, members in steps:
            assert members == sorted(members)
            assert len(members) * r <= max(r, STACK_ROWS)
            for i in members:
                start = (s % -(-sizes[i] // fed.batch_size)) * fed.batch_size
                assert r == min(fed.batch_size, sizes[i] - start)
                seen[i].append(s)
        for i, n in enumerate(sizes):
            assert seen[i] == list(range(-(-n // fed.batch_size) * fed.epochs))
        if run.startswith("grid"):
            assert [len(m) for _, _, m in steps] == [4] * 32
        if run.startswith("crowd"):
            assert len(steps) <= 96


class TestRunRound:
    def test_zero_lr_round_is_global_fixed_point(self):
        cfg = small_config(**{"federation.lr": "0"})
        clients, backbone, server, test = make_world(cfg)
        before = [v.copy() for v in server.global_params]
        report = run_round(server, clients, backbone, test, cfg)
        for got, want in zip(server.global_params, before):
            np.testing.assert_array_equal(got, want)
        assert report.round_index == 0 and server.round_index == 1

    def test_single_client_equals_local_result(self):
        cfg = small_config(**{"federation.clients": "1",
                              "data.partition": "iid"})
        clients, backbone, server, test = make_world(cfg)
        twin_clients, twin_backbone, twin_server, _ = make_world(cfg)
        broadcast(twin_server, twin_clients)
        expected, _ = train_alone(twin_clients[0], twin_backbone, cfg,
                                  round_index=0)
        run_round(server, clients, backbone, test, cfg)
        for got, want in zip(server.global_params, expected):
            np.testing.assert_array_equal(got, want)

    def test_round_needs_every_client_of_the_store_in_id_order(self):
        cfg = small_config()
        clients, backbone, server, test = make_world(cfg)
        for bad in (clients[1:], clients[::-1]):
            with pytest.raises(UsageError, match="client-id order"):
                run_round(server, bad, backbone, test, cfg)

    def test_report_fields_are_sane(self):
        cfg = small_config()
        clients, backbone, server, test = make_world(cfg)
        report = run_round(server, clients, backbone, test, cfg)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.utilization.mean_kl >= 0.0
        assert {f.client_id for f in report.clients} == {0, 1, 2, 3}
        assert report.load.counts.sum() == len(test) * cfg.backbone.seq_len \
            * report.eval_k * cfg.backbone.layers

    def test_heterogeneous_budgets_aggregate_fine(self):
        cfg = small_config(**{"sparsity.mode": "capability",
                              "sparsity.k_high": "4", "sparsity.k_low": "1"})
        clients, backbone, server, test = make_world(cfg)
        assert sorted({c.k_n for c in clients}) == [1, 4]
        report = run_round(server, clients, backbone, test, cfg)
        assert report.eval_k == 4

    def test_replay_reports_are_identical(self):
        cfg = small_config()
        results = []
        for _ in range(2):
            clients, backbone, server, test = make_world(cfg)
            report = run_round(server, clients, backbone, test, cfg)
            results.append(report)
        a, b = results
        assert a.accuracy == b.accuracy
        assert a.task_loss == b.task_loss
        np.testing.assert_array_equal(a.load.counts, b.load.counts)


# each turns the good two-tensor file (a: 2x2 at 0, b: 4 at 32) into a bad one
CHECKPOINT_MUTATIONS = {
    "trailing_bytes": (lambda blob: blob + bytes(8), None),
    "duplicate_name": (lambda blob: blob.replace(b"\nb 4 ", b"\na 4 "), "a"),
    "shape_disagrees_with_bytes": (
        lambda blob: blob.replace(b"a 2,2 0", b"a 2,3 0"), "a"),
    "non_integer_shape": (lambda blob: blob.replace(b"a 2,2 0", b"a 2,x 0"), "a"),
    "non_integer_offset": (lambda blob: blob.replace(b"b 4 32", b"b 4 3x"), "b"),
    "overlapping_payloads": (
        lambda blob: blob.replace(b"b 4 32", b"b 4 24"), "b"),
    "gap_between_payloads": (
        lambda blob: (blob.replace(b"b 4 32", b"b 4 40")[:-32] + bytes(8)
                      + blob[-32:]), "b"),
    "non_ascii_header": (lambda blob: blob.replace(b"a 2,2", b"\xe4 2,2"), None),
}


class TestCheckpoint:
    def test_roundtrip_preserves_values_and_order(self, tmp_path):
        rng = np.random.default_rng(6)
        names = ["layer0.expert0.E1", "layer0.router", "head"]
        arrays = [rng.normal(size=s) for s in [(3, 4), (2, 8), (5,)]]
        path = tmp_path / "ck.bin"
        save_checkpoint(names, arrays, path)
        loaded = load_checkpoint(path)
        assert list(loaded) == names
        for name, want in zip(names, arrays):
            np.testing.assert_array_equal(loaded[name], want)
            assert loaded[name].dtype == np.float64

    def test_checkpoint_loads_into_every_client(self, tmp_path):
        cfg = small_config(**{"sparsity.mode": "capability",
                              "sparsity.k_high": "4", "sparsity.k_low": "1"})
        clients, backbone, server, test = make_world(cfg)
        run_round(server, clients, backbone, test, cfg)
        path = tmp_path / "ck.bin"
        names = backbone.parameter_names()
        save_checkpoint(names, server.global_params, path)
        loaded = load_checkpoint(path)
        for client in clients:
            backbone.set_budget(client.k_n)
            backbone.load_trainable(
                [loaded[n] for n in backbone.parameter_names()])
            got = backbone.trainable_parameters()
            for tensor, want in zip(got, server.global_params):
                np.testing.assert_array_equal(tensor.values[0], want)

    def test_truncated_or_foreign_files_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(InputError):
            load_checkpoint(path)
        good = tmp_path / "good.bin"
        save_checkpoint(["w"], [np.ones((2, 2))], good)
        clipped = good.read_bytes()[:-8]
        bad = tmp_path / "clipped.bin"
        bad.write_bytes(clipped)
        with pytest.raises(InputError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("mutation", list(CHECKPOINT_MUTATIONS))
    def test_malformed_checkpoint_names_file_and_tensor(self, tmp_path,
                                                        mutation):
        good = tmp_path / "good.bin"
        save_checkpoint(["a", "b"], [np.arange(4.0).reshape(2, 2), np.ones(4)],
                        good)
        assert b"\na 2,2 0 32\nb 4 32 32\nend\n" in good.read_bytes()
        mutate, tensor = CHECKPOINT_MUTATIONS[mutation]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(mutate(good.read_bytes()))
        with pytest.raises(InputError) as info:
            load_checkpoint(bad)
        assert str(bad) in str(info.value)
        if tensor is not None:
            assert f"tensor {tensor}" in str(info.value)

    def test_scalar_tensor_round_trips(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(["s", "v"], [np.array(2.5), np.ones(3)], path)
        loaded = load_checkpoint(path)
        assert loaded["s"].shape == () and loaded["s"] == 2.5
        np.testing.assert_array_equal(loaded["v"], np.ones(3))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_checkpoint_loads_or_raises_input_error(self, tmp_path, data):
        """A good file truncated at any offset, or with any one byte
        overwritten, either loads or fails with an InputError."""
        good = tmp_path / "good.bin"
        save_checkpoint(["a", "s", "b"],
                        [np.arange(4.0).reshape(2, 2), np.array(2.5), np.ones(3)],
                        good)
        blob = good.read_bytes()
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:offset]
        else:
            byte = data.draw(st.integers(0, 255), label="byte")
            blob = blob[:offset] + bytes([byte]) + blob[offset + 1:]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        try:
            loaded = load_checkpoint(bad)
        except InputError:
            return
        assert isinstance(loaded, dict)


class TestRunExperiment:
    def test_zero_rounds_checkpoints_initialization(self, tmp_path):
        cfg = small_config(**{"federation.rounds": "0"})
        result = run_experiment(cfg, tmp_path / "run")
        assert result.reports == []
        loaded = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        fresh = make_world(cfg)[1]  # untouched eval model
        for name, tensor in zip(fresh.parameter_names(),
                                fresh.trainable_parameters()):
            np.testing.assert_array_equal(loaded[name], tensor.values[0])
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines == ["round,client_id,task_loss,aux_loss,accuracy,"
                         "mean_util_kl"]

    def test_metrics_csv_layout(self, tmp_path):
        cfg = small_config(**{"federation.rounds": "2"})
        run_experiment(cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * (4 + 1)
        client_rows = [r for r in rows if r[1] != "global"]
        global_rows = [r for r in rows if r[1] == "global"]
        assert all(r[4] == "" and r[5] == "" for r in client_rows)
        assert all(r[4] != "" and r[5] != "" for r in global_rows)
        assert [r[0] for r in global_rows] == ["0", "1"]

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("metrics.csv", "checkpoint.bin", "heatmap.csv",
                     "config.txt", "mean_probs.csv", "metadata.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_written_config_replays_the_run(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, tmp_path / "a")
        replayed = ExperimentConfig.resolve(
            parse_config_file(tmp_path / "a" / "config.txt"))
        assert replayed == cfg and replayed.hash_id() == cfg.hash_id()
        run_experiment(replayed, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_aux_toggle_only_differs_by_weight(self):
        on = small_config(**{"aux.lambda": "1e-4", "federation.rounds": "1"})
        off = small_config(**{"aux.lambda": "0", "federation.rounds": "1"})
        assert on.aux.lam != off.aux.lam
        assert {k: v for k, v in on.to_items() if not k.startswith("aux.")} \
            == {k: v for k, v in off.to_items() if not k.startswith("aux.")}

    def test_metadata_records_run_facts(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, tmp_path / "run")
        text = (tmp_path / "run" / "metadata.txt").read_text()
        meta = dict(line.split(" = ", 1) for line in text.splitlines())
        assert meta["weight_decay_mode"] == "decoupled"
        assert meta["eval_k"] == "2"
        assert meta["config_hash"] == cfg.hash_id()
        assert sum(int(s) for s in meta["shard_sizes"].split(",")) == \
            int(meta["train_examples"])

    def test_one_backbone_and_each_client_keeps_its_last_upload(
            self, monkeypatch):
        built = []
        original = Backbone.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Backbone, "__init__", counting_init)
        cfg = small_config(**{"sparsity.mode": "capability",
                              "sparsity.k_high": "4", "sparsity.k_low": "1"})
        result = run_experiment(cfg)
        assert len(built) == 1 and built[0] is result.eval_backbone
        assert sorted({c.k_n for c in result.clients}) == [1, 4]

        uploads = [c.adapter_params() for c in result.clients]
        for a, b in itertools.combinations(uploads, 2):
            assert any(not np.array_equal(x, y) for x, y in zip(a, b))
        sizes = [len(c.shard) for c in result.clients]
        direct = [sum(s / sum(sizes) * u[j] for u, s in zip(uploads, sizes))
                  for j in range(len(uploads[0]))]
        for got, want, avg in zip(aggregate_uploads(list(zip(uploads, sizes))),
                                  result.server.global_params, direct):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_allclose(avg, want, rtol=0, atol=1e-12)

    def test_single_client_training_reaches_high_accuracy(self):
        cfg = small_config(**{
            "federation.clients": "1", "data.partition": "iid",
            "federation.rounds": "10", "federation.lr": "0.01",
            "federation.batch_size": "64", "data.n": "600",
            "backbone.trainable_head": "true",
        })
        result = run_experiment(cfg)
        assert result.reports[-1].accuracy > 0.9


def test_metrics_csv_uses_stable_float_format(tmp_path):
    cfg = small_config(**{"federation.rounds": "1"})
    clients, backbone, server, test = make_world(cfg)
    report = run_round(server, clients, backbone, test, cfg)
    path = tmp_path / "m.csv"
    write_metrics_csv([report], path)
    again = tmp_path / "m2.csv"
    write_metrics_csv([report], again)
    assert path.read_bytes() == again.read_bytes()
    global_row = path.read_text().splitlines()[-1].split(",")
    assert float(global_row[2]) == pytest.approx(report.task_loss, rel=1e-11)
