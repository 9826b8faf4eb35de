"""Federated rounds: aggregation algebra, determinism, checkpoints."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedmoe.backbone import Backbone
from fedmoe.config import ExperimentConfig, parse_config_file
from fedmoe.errors import AggregationError, InputError, UsageError
from fedmoe.federation import (STACK_ROWS, ClientStack, ServerState,
                               aggregate, broadcast, build_clients,
                               load_checkpoint, local_train, resolve_eval_k,
                               run_experiment, run_round, save_checkpoint,
                               stack_clients, write_metrics_csv)
from fedmoe.errors import ConfigurationError
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


def stacks_of(cfg, clients):
    return stack_clients(clients, cfg.federation.batch_size)


def train_alone(client, backbone, cfg, round_index):
    """``local_train`` on a stack of one: the client's (params, metrics)."""
    return local_train(ClientStack([client]), backbone, cfg, round_index)[0]


def random_upload(rng, shapes):
    return [rng.normal(size=s) for s in shapes]


SHAPES = [(2, 3), (4,), (3, 2, 2)]


class TestAggregate:
    def test_consensus_is_bitwise_idempotent(self):
        rng = np.random.default_rng(0)
        params = random_upload(rng, SHAPES)
        uploads = [([p.copy() for p in params], size) for size in (1, 3, 5)]
        out = aggregate(uploads)
        for got, want in zip(out, params):
            np.testing.assert_array_equal(got, want)

    def test_two_client_scalar_example(self):
        uploads = [([np.array([0.0])], 1), ([np.array([4.0])], 3)]
        out = aggregate(uploads)
        assert out[0][0] == 3.0

    def test_matches_direct_weighted_average(self):
        rng = np.random.default_rng(1)
        sizes = [7, 2, 11, 5]
        uploads = [(random_upload(rng, SHAPES), s) for s in sizes]
        out = aggregate(uploads)
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
        combined = aggregate(mixed)
        separate = [alpha * x + beta * y
                    for x, y in zip(aggregate(ups_a), aggregate(ups_b))]
        for got, want in zip(combined, separate):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_upload_is_exact_copy(self):
        rng = np.random.default_rng(3)
        params = random_upload(rng, SHAPES)
        out = aggregate([(params, 17)])
        for got, want in zip(out, params):
            np.testing.assert_array_equal(got, want)
        out[0][0, 0] += 1.0
        assert params[0][0, 0] != out[0][0, 0]

    def test_shape_mismatch_names_client(self):
        good = [np.zeros((2, 3)), np.zeros(4)]
        bad = [np.zeros((2, 3)), np.zeros(5)]
        with pytest.raises(AggregationError, match="client 1"):
            aggregate([(good, 10), (bad, 10)])

    def test_count_mismatch_names_client(self):
        with pytest.raises(AggregationError, match="client 2"):
            aggregate([([np.zeros(2)], 1), ([np.zeros(2)], 1),
                       ([np.zeros(2), np.zeros(2)], 1)])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(AggregationError, match="client 0"):
            aggregate([([np.zeros(2)], 0), ([np.zeros(2)], 4)])

    def test_empty_uploads_is_usage_error(self):
        with pytest.raises(UsageError):
            aggregate([])

    def test_non_finite_upload_names_client_and_parameter(self):
        bad = [np.zeros(2), np.array([0.0, np.nan])]
        with pytest.raises(AggregationError, match="client 1: parameter 1 "):
            aggregate([([np.zeros(2), np.zeros(2)], 3), (bad, 5)])


class TestBroadcastAndSparsity:
    def test_broadcast_copies_values_not_references(self):
        cfg = small_config()
        clients, _, server, _ = make_world(cfg)
        server.global_params = [v + 1.0 for v in server.global_params]
        broadcast(server, clients)
        for client in clients:
            for got, want in zip(client.params, server.global_params):
                np.testing.assert_array_equal(got, want)
                assert got is not want
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

    def test_result_is_written_back_and_returned_as_copies(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        before = clients[0].adapter_params()
        params, _ = train_alone(clients[0], backbone, cfg, round_index=0)
        trained = [p.values[0] for p in backbone.trainable_parameters()]
        for got, record, live, old in zip(params, clients[0].params, trained,
                                          before):
            np.testing.assert_array_equal(got, record)
            np.testing.assert_array_equal(got, live)
            assert got is not record and record is not live
        assert any(not np.array_equal(a, b) for a, b in zip(params, before))
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
                    for stack in stacks_of(cfg, clients[1:]):
                        local_train(stack, backbone, cfg, round_index)
        for a, b in zip(alone, interleaved):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_optimizer_persists_across_rounds_by_default(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        stack = ClientStack([clients[0]])
        [(_, frag0)] = local_train(stack, backbone, cfg, round_index=0)
        opt = stack.optimizer
        local_train(stack, backbone, cfg, round_index=1)
        assert stack.optimizer is opt
        assert opt.t == 2 * frag0.steps

    def test_reset_optimizer_flag_gives_fresh_moments(self):
        cfg = small_config(**{"federation.reset_optimizer": "true"})
        clients, backbone, _, _ = make_world(cfg)
        stack = ClientStack([clients[0]])
        [(_, frag0)] = local_train(stack, backbone, cfg, round_index=0)
        opt = stack.optimizer
        local_train(stack, backbone, cfg, round_index=1)
        assert stack.optimizer is not opt
        assert stack.optimizer.t == frag0.steps

    def test_non_finite_loss_names_client_and_round(self):
        cfg = small_config()
        clients, backbone, _, _ = make_world(cfg)
        clients[2].shard.features[0, 0, 0] = np.nan
        train_alone(clients[1], backbone, cfg, round_index=3)
        with pytest.raises(AggregationError, match="client 2, round 3"):
            train_alone(clients[2], backbone, cfg, round_index=3)

        # in a stack, the second member goes non-finite at round 1's step 0
        cfg = small_config(**STACKED)
        clients, backbone, _, _ = make_world(cfg)
        stack = ClientStack(clients)
        local_train(stack, backbone, cfg, round_index=0)
        bad = clients[1].shard.subset(np.arange(len(clients[1].shard)))
        bad.features[:, 0, 0] = np.nan  # a fresh array: a fresh prefix
        clients[1].shard = bad
        params = [c.adapter_params() for c in clients]
        opt = stack.optimizer
        t, m, v = opt.t, [a.copy() for a in opt.m], [a.copy() for a in opt.v]
        with pytest.raises(AggregationError,
                           match=f"client {clients[1].client_id}, round 1, "
                                 "step 0: loss is not finite"):
            local_train(stack, backbone, cfg, round_index=1)
        assert stack.optimizer is opt and opt.t == t
        for got, want in zip(opt.m + opt.v, m + v):
            np.testing.assert_array_equal(got, want)
        for client, before in zip(clients, params):
            for got, want in zip(client.params, before):
                np.testing.assert_array_equal(got, want)


# Three equal iid shards of 64, budgets 4, 4 and 1, a trainable head, aux on:
# the K=4 members' aux gates open and shut step by step, the K=1 member's
# router gets no gradient and its gate stays shut.
STACKED = {"federation.clients": "3", "data.partition": "iid",
           "data.n": "240", "federation.batch_size": "16",
           "federation.lr": "0.01",
           "backbone.trainable_head": "true", "sparsity.mode": "capability",
           "sparsity.k_high": "4", "sparsity.k_low": "1",
           "aux.lambda": "0.01", "aux.theta_th": "0.26"}


class TestStacks:
    def test_stack_members_train_bit_for_bit_as_alone(self):
        cfg = small_config(**STACKED)
        clients, backbone, _, _ = make_world(cfg)
        assert [len(c.shard) for c in clients] == [64] * 3
        assert [c.k_n for c in clients] == [4, 4, 1]
        [stack] = stacks_of(cfg, clients)
        assert stack.members == clients
        together = [local_train(stack, backbone, cfg, r) for r in (0, 1)]
        aux = [frag.aux_loss for _, frag in together[1]]
        assert aux[0] > 0.0 and aux[1] > 0.0 and aux[0] != aux[1]
        assert aux[2] == 0.0
        for i, client in enumerate(clients):
            twins, twin_backbone, _, _ = make_world(cfg)
            alone = ClientStack([twins[i]])
            for r, results in enumerate(together):
                [(want_params, want)] = local_train(alone, twin_backbone,
                                                    cfg, r)
                got_params, got = results[i]
                assert (got.client_id, got.task_loss, got.aux_loss,
                        got.steps) == (want.client_id, want.task_loss,
                                       want.aux_loss, want.steps)
                for a, b in zip(got_params, want_params):
                    assert np.array_equal(a, b)
            assert stack.optimizer.t == alone.optimizer.t == 8
            for stacked, single in zip(stack.optimizer.m + stack.optimizer.v,
                                       alone.optimizer.m + alone.optimizer.v):
                assert np.array_equal(stacked[i], single[0])
            for a, b in zip(client.params, twins[i].params):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("run", RUNS)
    def test_grouping_rule_on_the_golden_configs(self, run):
        cfg = ExperimentConfig.resolve(
            parse_config_file(GOLDEN / run / "config.txt"))
        clients = make_world(cfg)[0]
        stacks = stacks_of(cfg, clients)
        batch = cfg.federation.batch_size
        if run.startswith("grid"):
            assert [len(s.members) for s in stacks] == [4]
        if run.startswith("wide"):
            assert [len(s.members) for s in stacks] == [1] * 10
        members = [c.client_id for s in stacks for c in s.members]
        assert sorted(members) == list(range(len(clients)))
        for stack in stacks:
            sizes = {len(c.shard) for c in stack.members}
            assert len(sizes) == 1
            assert len(stack.members) * min(batch, sizes.pop()) <= STACK_ROWS
        keys = [(len(c.shard), c.client_id) for s in stacks for c in s.members]
        assert keys == sorted(keys)


class TestRunRound:
    def test_zero_lr_round_is_global_fixed_point(self):
        cfg = small_config(**{"federation.lr": "0"})
        clients, backbone, server, test = make_world(cfg)
        before = [v.copy() for v in server.global_params]
        report = run_round(server, stacks_of(cfg, clients), backbone,
                           test, cfg)
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
        run_round(server, stacks_of(cfg, clients), backbone,
                  test, cfg)
        for got, want in zip(server.global_params, expected):
            np.testing.assert_array_equal(got, want)

    def test_report_fields_are_sane(self):
        cfg = small_config()
        clients, backbone, server, test = make_world(cfg)
        report = run_round(server, stacks_of(cfg, clients), backbone,
                           test, cfg)
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
        report = run_round(server, stacks_of(cfg, clients), backbone,
                           test, cfg)
        assert report.eval_k == 4

    def test_replay_reports_are_identical(self):
        cfg = small_config()
        results = []
        for _ in range(2):
            clients, backbone, server, test = make_world(cfg)
            report = run_round(server, stacks_of(cfg, clients), backbone,
                               test, cfg)
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
        run_round(server, stacks_of(cfg, clients), backbone,
                  test, cfg)
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
        for got, want, avg in zip(aggregate(list(zip(uploads, sizes))),
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
    report = run_round(server, stacks_of(cfg, clients), backbone,
                       test, cfg)
    path = tmp_path / "m.csv"
    write_metrics_csv([report], path)
    again = tmp_path / "m2.csv"
    write_metrics_csv([report], again)
    assert path.read_bytes() == again.read_bytes()
    global_row = path.read_text().splitlines()[-1].split(",")
    assert float(global_row[2]) == pytest.approx(report.task_loss, rel=1e-11)
