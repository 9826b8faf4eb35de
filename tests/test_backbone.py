import gc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from fedmoe import tensor as tz
from fedmoe.adapter import AdapterConfig, MoEAdapter, topk_mask
from fedmoe.backbone import Backbone, BackboneConfig, TransformerBlock
from fedmoe.config import ExperimentConfig
from fedmoe.data import synth_dataset
from fedmoe.errors import AggregationError, ConfigurationError, DimensionError
from fedmoe.federation import run_experiment
from fedmoe.losses import AuxLossConfig, aux_loss_layer, total_loss
from fedmoe.metrics import LoadMatrix, evaluate_accuracy
from fedmoe.tensor import Adam, Tape, Tensor

from oracles import finite_difference_grads, load_members, lora_adapter

SMALL = BackboneConfig(layers=2, dim=16, heads=2, seq_len=8)
SMALL_ADAPTER = AdapterConfig(experts=4, rank=2)
SMALL_DATA = dict(classes=4, input_dim=6, frozen_seed=11)


def small_backbone(cfg=SMALL, **overrides):
    bb = Backbone(cfg, SMALL_ADAPTER, **{**SMALL_DATA, **overrides})
    bb.set_budget(2)
    return bb


def frozen_forward_oracle(bb, batch):
    """Plain-numpy replica of the adapter-free frozen forward pass."""

    def np_softmax(z):
        m = z.max(axis=-1, keepdims=True)
        e = np.exp(z - m)
        return e / e.sum(axis=-1, keepdims=True)

    def np_gelu(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    def np_ln(x, gain, bias, eps=1e-5):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gain + bias

    h = batch @ bb.w_in.values + bb.pos.values
    for blk in bb.blocks:
        b, s, d = h.shape
        nh, hd = blk.heads, blk.head_dim

        def split(x):
            return x.reshape(b, s, nh, hd).transpose(0, 2, 1, 3)

        q = split(h @ blk.wq.values)
        k = split(h @ blk.wk.values)
        v = split(h @ blk.wv.values)
        scores = q @ k.transpose(0, 1, 3, 2) * hd ** -0.5
        ctx = (np_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
        h = np_ln(h + ctx @ blk.wo.values,
                  blk.ln1_gain.values, blk.ln1_bias.values)
        ffn = np_gelu(h @ blk.w1.values) @ blk.w2.values
        h = np_ln(h + ffn, blk.ln2_gain.values, blk.ln2_bias.values)
    return h.mean(axis=1) @ bb.head.values


def test_same_seed_builds_bit_identical_frozen_weights():
    a = small_backbone()
    b = small_backbone()
    for ta, tb in zip(a.frozen_tensors(), b.frozen_tensors()):
        np.testing.assert_array_equal(ta.values, tb.values)
    assert a.frozen_checksum() == b.frozen_checksum()
    other = small_backbone(frozen_seed=12)
    assert other.frozen_checksum() != a.frozen_checksum()


def test_smoke_forward_shape_and_finiteness():
    bb = small_backbone()
    batch = np.random.default_rng(0).normal(size=(5, 8, 6))
    logits = bb.forward(batch, slice(None))
    assert logits.shape == (1, 5, 4)
    assert np.isfinite(logits.values).all()
    assert len(bb.last_layer_probs) == 2


def test_indivisible_heads_rejected():
    with pytest.raises(ConfigurationError):
        BackboneConfig(dim=16, heads=3)


@pytest.mark.parametrize("budget,members,bad", [
    (0, 1, "member 0: budget K = 0 "), (5, 1, "member 0: budget K = 5 "),
    (2.5, 1, r"member 0: budget K = 2\.5 "),
    ([2, 4, 0, 1], 4, "member 2: budget K = 0 "),
    ([1, 2, 3], 1, "3 budgets given for a stack of 1$"),
    ([1, 2], 3, "2 budgets given for a stack of 3$")])
def test_set_budget_rejects_k_outside_one_to_m(budget, members, bad):
    """M = 4: a budget must be an integer in [1, 4] for every member, one
    per loaded member or one for them all, and a rejected one leaves the
    adapters' budgets as they were, in a backbone and in a standalone
    adapter, which starts at K = M."""
    bb = small_backbone()
    load_members(bb, *[bb.member_params(0)] * members)
    with pytest.raises(ConfigurationError, match=bad):
        bb.set_budget(budget)
    assert all(np.array_equal(a.k, [[[2]]]) for a in bb.adapters)
    bb.set_budget(4.0)  # an integral float is an integer
    assert all(a.k.dtype == np.int64 and a.k.item() == 4 for a in bb.adapters)
    adapter = MoEAdapter(SMALL.dim, SMALL_ADAPTER)
    for p in adapter.parameters():
        p.values = np.repeat(p.values, members, axis=0)
    with pytest.raises(ConfigurationError, match=bad):
        adapter.set_budget(budget)
    assert adapter.k.dtype == np.int64 and np.array_equal(adapter.k, [[[4]]])


@pytest.mark.parametrize("rows,bad", [
    (np.arange(4).reshape(1, 4), r"rows of shape \(1, 4\), expected \(2, batch\)"),
    (np.arange(6).reshape(3, 2), r"rows of shape \(3, 2\), expected \(2, batch\)"),
    (np.arange(8), r"rows of shape \(8,\), expected \(2, batch\)"),
    (slice(0, 4), "a slice is for a stack of one, not 2"),
    ([np.arange(3), np.arange(3, 8)], r"ragged rows, expected \(2, batch\)"),
], ids=["too-few-members", "too-many-members", "flat-rows", "slice",
        "ragged-list"])
def test_forward_rejects_rows_that_do_not_fit_the_loaded_stack(rows, bad):
    """A stack of 2 takes one row of indices per member, a [2, batch]
    array; rows for another count of members, flat rows or a slice name
    both counts instead of handing one member's rows to another, and build
    no prefix."""
    bb = small_backbone()
    load_members(bb, bb.member_params(0), bb.member_params(0))
    f = np.random.default_rng(60).normal(size=(8, 8, 6))
    with pytest.raises(DimensionError, match=bad):
        bb.forward(f, rows)
    assert not bb._prefixes
    logits = bb.forward(f, np.arange(8).reshape(2, 4))
    assert logits.shape == (2, 4, 4)


def test_forward_names_a_budget_left_from_a_stack_of_another_size():
    """A per-member budget outlives a rebind: a stack of 2's ``[1, 4]``
    in front of a stack of one names the budget and the two sizes, and a
    new ``set_budget`` clears it."""
    bb = small_backbone()
    load_members(bb, bb.member_params(0), bb.member_params(0))
    bb.set_budget([1, 4])
    bb.load_trainable(bb.member_params(0))
    f = np.random.default_rng(61).normal(size=(8, 8, 6))
    with pytest.raises(DimensionError,
                       match=r"budget K = \[1, 4\] is for a stack of 2, "
                             r"not 1: set_budget after loading"):
        bb.forward(f, slice(0, 5))
    bb.set_budget(2)
    assert bb.forward(f, slice(0, 5)).shape == (1, 5, 4)


def test_zero_adapters_match_adapter_free_oracle():
    bb = small_backbone()  # E2 = 0 at init
    batch = np.random.default_rng(1).normal(size=(4, 8, 6))
    logits = bb.forward(batch, slice(None))
    np.testing.assert_allclose(logits.values[0],
                               frozen_forward_oracle(bb, batch),
                               rtol=0, atol=1e-12)


def test_stats_count_conservation():
    bb = small_backbone()  # M=4, K=2
    batch = np.random.default_rng(2).normal(size=(1, 8, 6))
    load = LoadMatrix.zeros(2, 4)
    bb.forward(batch, slice(None), load)
    for layer in range(2):
        assert load.tokens[layer] == 8
        assert load.counts[layer].sum() == 16


def test_adapter_gradients_match_fd_through_full_stack():
    cfg = BackboneConfig(layers=2, dim=8, heads=2, seq_len=4)
    bb = Backbone(cfg, AdapterConfig(experts=2, rank=2), classes=3,
                  input_dim=5, frozen_seed=3)
    bb.set_budget(1)
    rng = np.random.default_rng(4)
    # tie-free routing + live expert outputs
    for adapter in bb.adapters:
        adapter.WR.values[...] = rng.normal(size=(2, 8))
        adapter.E2.values[...] = rng.normal(size=adapter.E2.shape) * 0.1
    batch = rng.normal(size=(3, 4, 5))
    labels = rng.integers(0, 3, size=3)[None]  # a stack of one member

    params = bb.trainable_parameters()
    with Tape() as tape:
        logits = bb.forward(batch, slice(None))
        loss = tz.cross_entropy(logits, labels)
    tape.backward(loss)

    def loss_value(_arrays):
        logits = bb.forward(batch, slice(None))
        return tz.cross_entropy(logits, labels).item()

    fd = finite_difference_grads(loss_value, [p.values for p in params])
    for p, want in zip(params, fd):
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-8)


def test_trainable_count_matches_adapter_configuration():
    cfg = BackboneConfig(layers=3, dim=16, heads=4, seq_len=4)
    bb = Backbone(cfg, AdapterConfig(experts=2, rank=3), classes=4,
                  input_dim=4, frozen_seed=5)
    per_layer = (3 + 3) * 2 * 16 + 2 * 16  # expert entries + router rows
    got = sum(p.values.size for p in bb.trainable_parameters())
    assert got == 3 * per_layer


@pytest.mark.parametrize("trainable_head", [False, True])
def test_trainable_parameters_are_three_stacked_tensors_per_layer(trainable_head):
    cfg = BackboneConfig(layers=3, dim=16, heads=4, seq_len=4,
                         trainable_head=trainable_head)
    bb = Backbone(cfg, AdapterConfig(experts=5, rank=3), classes=4,
                  input_dim=4, frozen_seed=5)
    shapes = [(1, 5, 3, 16), (1, 5, 16, 3), (1, 5, 16)] * 3
    names = [f"layer{i}.{n}" for i in range(3)
             for n in ("experts.E1", "experts.E2", "router.WR")]
    if trainable_head:
        shapes.append((1, 16, 4))
        names.append("head")
    assert [p.shape for p in bb.trainable_parameters()] == shapes
    assert bb.parameter_names() == names


@pytest.mark.parametrize("trainable_head", [False, True])
def test_every_model_pass_is_a_stack_of_members(trainable_head):
    """Built, every trainable tensor is a stack of one; ``load_trainable``
    loads one, ``load_members`` binds G lists as G members,
    ``member_params(i)`` reads member i back as per-client copies, and
    evaluation leaves a stack of one loaded."""
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": trainable_head}))
    params = bb.trainable_parameters()
    assert all(p.shape[0] == 1 for p in params)
    lora = lora_adapter(np.ones((2, 4)), np.ones((4, 2)), [1, 1])
    assert all(p.shape[0] == 1 for p in lora.parameters())

    rng = np.random.default_rng(50)
    members = [[rng.normal(size=p.shape[1:]) for p in params]
               for _ in range(3)]
    bb.load_trainable(members[0])
    assert all(p.shape[0] == 1 for p in params)
    load_members(bb, *members)
    assert all(p.shape[0] == 3 for p in params)
    assert all(a is b for a, b in zip(bb.trainable_parameters(), params))
    for i, want in enumerate(members):
        got = bb.member_params(i)
        assert len(got) == len(bb.parameter_names())
        for g, w, p in zip(got, want, params):
            assert g.shape == w.shape == p.shape[1:]
            assert np.array_equal(g, w)
            assert not np.shares_memory(g, p.values)

    test = synth_dataset(12, 4, 8, 6, separation=1.0, seed=51)
    evaluate_accuracy(bb, members[1], test)
    assert all(p.shape[0] == 1 for p in params)
    for g, w in zip(bb.member_params(0), members[1]):
        assert np.array_equal(g, w)


def test_bind_places_views_of_the_value_and_gradient_buffers():
    """``bind`` makes every trainable tensor a view of its columns of a
    [G, P] buffer, its gradient a view of the same columns of another, so
    the tape's accumulation fills the gradient buffer in place."""
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": True}))
    layout = bb.layout
    assert layout.names == tuple(bb.parameter_names())
    rng = np.random.default_rng(52)
    values = rng.normal(size=(3, layout.width))
    grads = np.zeros_like(values)
    bb.bind(values, grads)
    for p, a, b in zip(bb.trainable_parameters(), layout.offsets,
                       layout.offsets[1:]):
        assert p.shape == (3,) + layout.shapes[layout.index_at(a)]
        assert np.shares_memory(p.values, values)
        assert np.shares_memory(p.grad, grads)
        assert np.array_equal(p.values.reshape(3, -1), values[:, a:b])
        assert layout.index_at(b - 1) == layout.index_at(a)
    features = rng.normal(size=(6, 8, 6))
    with Tape() as tape:
        logits = bb.forward(features, [[0, 1], [2, 3], [4, 5]])
        tape.backward(tz.cross_entropy(logits, np.zeros((3, 2), int)).sum())
    assert np.any(grads != 0.0)
    for p in bb.trainable_parameters():
        assert np.shares_memory(p.grad, grads)
    bb.load_trainable(bb.member_params(1))
    assert all(p.grad is None and p.shape[0] == 1
               for p in bb.trainable_parameters())


def test_trainable_head_is_exposed_and_loadable():
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": True}))
    assert bb.parameter_names()[-1] == "head"
    assert bb.trainable_parameters()[-1] is bb.head
    values = bb.member_params(0)
    values[-1] = values[-1] + 1.0
    bb.load_trainable(values)
    np.testing.assert_array_equal(bb.head.values[0], values[-1])


def one_row_state(bb):
    """Member 0's parameters as a flat ``[1, P]`` row with zero Adam
    moments and step count, as a store row holds them."""
    theta = bb.layout.flatten(bb.member_params(0))[None]
    return theta, np.zeros_like(theta), np.zeros_like(theta), \
        np.zeros(1, dtype=np.int64)


def test_frozen_weights_survive_training_steps():
    bb = small_backbone()
    before = bb.frozen_checksum()
    rng = np.random.default_rng(6)
    theta, m, v, t = one_row_state(bb)
    opt = Adam(lr=1e-3, weight_decay=0.01)
    for _ in range(3):
        batch = rng.normal(size=(4, 8, 6))
        labels = rng.integers(0, 4, size=4)[None]  # a stack of one member
        grad = np.zeros_like(theta)
        bb.bind(theta, grad)
        with Tape() as tape:
            logits = bb.forward(batch, slice(None))
            loss = tz.cross_entropy(logits, labels)
        tape.backward(loss)
        opt.step(theta, grad, m, v, t)
    assert bb.frozen_checksum() == before


def test_load_trainable_round_trip_and_length_check():
    bb = small_backbone()
    saved = bb.member_params(0)
    bb.load_trainable(saved)
    for p, s in zip(bb.trainable_parameters(), saved):
        np.testing.assert_array_equal(p.values[0], s)
    with pytest.raises(AggregationError):
        bb.load_trainable(saved[:-1])


def test_load_trainable_stacks_members_and_names_a_bad_one():
    bb = small_backbone()
    one = bb.member_params(0)
    two = [v + 1.0 for v in one]
    load_members(bb, one, two)
    for p, a, b in zip(bb.trainable_parameters(), one, two):
        assert p.shape == (2,) + a.shape
        assert np.array_equal(p.values[0], a) and np.array_equal(p.values[1], b)
    with pytest.raises(AggregationError,
                       match=r"member 1: parameter 2 \(layer0\.router\.WR\)"):
        load_members(bb, one, two[:2] + [two[2].T] + two[3:])
    bb.load_trainable(two)
    for p, b in zip(bb.trainable_parameters(), two):
        assert np.array_equal(p.values[0], b)


def test_load_trainable_names_a_bad_head_by_global_index():
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": True}))
    values = bb.member_params(0)
    assert len(values) == 7
    values[6] = values[6].T
    with pytest.raises(AggregationError, match=r"parameter 6 \(head\)"):
        bb.load_trainable(values)


def test_forward_rejects_wrong_batch_shape():
    bb = small_backbone()
    with pytest.raises(DimensionError):
        bb.forward(np.zeros((2, 8, 7)), slice(None))
    with pytest.raises(DimensionError):
        bb.forward(np.zeros((2, 4, 6)), slice(None))


def test_layer_probs_are_per_layer_distributions():
    bb = small_backbone()
    bb.forward(np.random.default_rng(7).normal(size=(3, 8, 6)), slice(None))
    assert len(bb.last_layer_probs) == 2
    for p in bb.last_layer_probs:
        assert p.shape == (1, 4)
        assert abs(p.values.sum() - 1.0) < 1e-9


def per_op_block(block, h):
    """``TransformerBlock.forward`` as the chain of per-op tape ops that its
    three one-op sublayers replaced: 19 for attention and LN1, 3 for the FFN
    and 2 for the residual and LN2.  Values and the gradients of ``h`` and of
    the adapter's output must match it bit for bit.  Returns (out, aug)."""
    b, s, d = h.shape
    nh, hd = block.heads, block.head_dim

    def heads(x):
        return x.reshape(b, s, nh, hd).transpose((0, 2, 1, 3))

    q, k, v = (heads(h @ w) for w in (block.wq, block.wk, block.wv))
    scores = (q @ k.transpose((0, 1, 3, 2))) * (hd ** -0.5)
    ctx = (tz.softmax(scores) @ v).transpose((0, 2, 1, 3)).reshape(b, s, d)
    h = tz.layer_norm(h + ctx @ block.wo, block.ln1_gain, block.ln1_bias)
    ffn = tz.gelu(h @ block.w1) @ block.w2
    aug = block.adapter.forward(ffn.reshape(1, b * s, d),
                                h.reshape(1, b * s, d))[0]
    aug = aug.reshape(b, s, d)
    return tz.layer_norm(h + aug, block.ln2_gain, block.ln2_bias), aug


def one_op_block(block, h):
    """``TransformerBlock.forward`` step by step, keeping the adapter's
    output so its gradient can be compared.  Returns (out, aug)."""
    b, s, d = h.shape
    h = block._attend(h)
    ffn = block._ffn(h)
    aug = block.adapter.forward(ffn.reshape(1, b * s, d),
                                h.reshape(1, b * s, d))[0]
    aug = aug.reshape(b, s, d)
    return block._norm2(h, aug), aug


# (batch, seq_len, dim) and adapter of the grid and wide benchmark workloads
BLOCK_CASES = {
    "grid": ((32, 2, 32), AdapterConfig(experts=8, rank=2), 2),
    "wide": ((128, 8, 32), AdapterConfig(experts=2, rank=8), 2),
}


def block_case(name, seed=40):
    """A 4-head block with live random adapter weights, an input and a loss
    weight, at one workload's shapes."""
    shape, adapter_cfg, k = BLOCK_CASES[name]
    rng = np.random.default_rng(seed)
    dim = shape[-1]
    block = TransformerBlock(dim, 4, MoEAdapter(dim, adapter_cfg, rng), rng)
    block.adapter.set_budget(k)
    for t in block.adapter.parameters():
        t.values[...] = rng.normal(0.0, 0.5, size=t.shape)
    return block, rng.normal(size=shape), rng.normal(size=shape)


def run_block(block, h_values, w, chain, h_grad):
    """Loss ``sum(w * out)`` under a tape, replayed twice; returns the output
    and, after each replay, the gradients of h, aug, E1, E2 and WR."""
    h = Tensor(h_values, requires_grad=h_grad)
    for t in block.adapter.parameters():
        t.grad = None
    with Tape() as tape:
        out, aug = chain(block, h)
        loss = tz.mul(out, Tensor(w)).sum()
    replays = []
    for _ in range(2):
        tape.backward(loss)
        replays.append([None if t.grad is None else t.grad.copy()
                        for t in [h, aug] + block.adapter.parameters()])
    return out.values, replays


@pytest.mark.parametrize("h_grad", [True, False])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_one_op_sublayers_are_bit_identical_to_per_op_chain(case, h_grad):
    block, h, w = block_case(case)
    out, replays = run_block(block, h, w, one_op_block, h_grad)
    want_out, want_replays = run_block(block, h, w, per_op_block, h_grad)
    assert np.array_equal(out, want_out)
    for grads, want_grads in zip(replays, want_replays):
        assert (grads[0] is None) == (not h_grad)
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
    # the untaped path computes the same values
    assert np.array_equal(one_op_block(block, Tensor(h))[0].values, out)
    assert np.array_equal(per_op_block(block, Tensor(h))[0].values, out)
    assert np.array_equal(block.forward(Tensor(h))[0].values, out)


def test_block_records_one_op_per_frozen_sublayer():
    block, h, _ = block_case("grid")
    with Tape() as tape:
        attended = block._attend(Tensor(h, requires_grad=True))
        out = block._norm2(attended, block._ffn(attended))
        const = block._attend(Tensor(h))
    assert len(tape._ops) == 3 and tape._ops[-1][0] is out
    assert not const.requires_grad


def prefix_case(name, n=700, seed=41):
    """A 2-layer, 4-head backbone with live random adapter weights at one
    workload's shapes, a features array of ``n`` rows (several 128-row
    prefix chunks), labels, and one batch of fancy-index rows."""
    (batch, seq_len, dim), adapter_cfg, k = BLOCK_CASES[name]
    bb = Backbone(BackboneConfig(layers=2, dim=dim, heads=4, seq_len=seq_len),
                  adapter_cfg, classes=4, input_dim=6, frozen_seed=seed)
    bb.set_budget(k)
    rng = np.random.default_rng(seed)
    for t in bb.trainable_parameters():
        t.values[...] = rng.normal(0.0, 0.5, size=t.shape)
    features = rng.normal(size=(n, seq_len, 6))
    labels = rng.integers(0, 4, size=n)
    return bb, features, labels, rng.permutation(n)[:batch]


def taped_step(bb, features, labels, rows):
    """One taped forward and backward of the task loss plus a weighted sum
    of ``last_layer_probs`` for a stack of one; returns the logits, the
    routing, the load tallies and the trainable gradients."""
    for t in bb.trainable_parameters():
        t.grad = None
    experts = bb.trainable_parameters()[0].shape[1]  # E1 is [G, M, r, d]
    load = LoadMatrix.zeros(len(bb.blocks), experts)
    with Tape() as tape:
        logits = bb.forward(features, rows, load)
        loss = tz.cross_entropy(logits, labels[rows].reshape(1, -1))
        for i, p in enumerate(bb.last_layer_probs):
            loss = loss + (p * float(i + 1)).sum()
        tape.backward(loss)
    return ([logits.values] + [p.values for p in bb.last_layer_probs]
            + [load.counts, load.prob_sums, load.tokens]
            + [t.grad for t in bb.trainable_parameters()])


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_slice_rows_are_bit_identical_to_the_equal_index_rows(case):
    """A slice, which evaluation reads from the cache as a view, gives the
    bits of the same rows as a [1, batch] index array: on the miss that
    fills the cache and on a hit, and across a 128-row chunk boundary."""
    bb, features, labels, idx = prefix_case(case)
    span = slice(500, 500 + len(idx))
    want = taped_step(bb, features, labels, np.arange(len(features))[span][None])
    assert len(bb._prefixes) == 1
    bb._prefixes.clear()
    for _ in range(2):  # the miss that fills the cache, then a hit
        got = taped_step(bb, features, labels, span)
        assert len(got) == len(want) == 12
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert np.array_equal(bb.forward(features, span).values, want[0])


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_cached_prefix_is_bit_identical_to_the_prefix_of_the_rows_alone(case):
    """Each example's cached prefix has the bits of block 0's prefix of a
    batch of shuffled rows computed on its own, so neither the 128-row
    chunks nor the rows a step gathers move a bit."""
    bb, features, _, idx = prefix_case(case)
    h1, f1 = bb._cached_prefix(features)
    h, ffn = bb.blocks[0].prefix(Tensor(features[idx]) @ bb.w_in + bb.pos)
    assert np.array_equal(h1[idx], h.values)
    assert np.array_equal(f1[idx], ffn.values)


def test_prefix_cache_is_read_only_with_one_entry_per_features_array():
    bb, features, _, idx = prefix_case("grid")
    other = features[:100].copy()
    bb.forward(features, idx[None])
    bb.forward(features, slice(0, 64))
    bb.forward(other, slice(0, 64))
    assert [id(e[0]) for e in bb._prefixes.values()] == [id(features), id(other)]
    for feats, h1, f1 in bb._prefixes.values():
        assert h1.shape == f1.shape == (len(feats), 2, 32)
        assert h1.flags.c_contiguous and f1.flags.c_contiguous
        for a in (h1, f1):
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0


def test_rows_forward_rejects_wrong_features_shape():
    bb = small_backbone()
    with pytest.raises(DimensionError, match=r"features shape \(5, 8, 7\)"):
        bb.forward(np.zeros((5, 8, 7)), slice(0, 2))
    assert not bb._prefixes


def test_zero_round_experiment_leaves_prefix_cache_empty():
    cfg = ExperimentConfig.resolve({
        "data.n": "120", "data.input_dim": "6", "backbone.dim": "16",
        "backbone.seq_len": "4", "backbone.heads": "2",
        "federation.clients": "4", "federation.rounds": "0"})
    assert run_experiment(cfg).eval_backbone._prefixes == {}


def per_op_forward(bb, features, rows):
    """``Backbone.forward`` with the router, the dense softmax and its token
    mean, and the pooled head as the generic tape ops they replaced.
    Returns the logits and each layer's token-mean routing."""
    h1, f1 = bb._cached_prefix(features)
    h = Tensor(np.concatenate([h1[r] for r in rows]))
    ffn = Tensor(np.concatenate([f1[r] for r in rows]))
    members, d = len(rows), bb.cfg.dim
    dense_by_layer = []
    for layer, block in enumerate(bb.blocks):
        if layer:
            h, ffn = block.prefix(h)
        adapter = block.adapter
        out = ffn.reshape(members, -1, d)
        x = h.reshape(members, -1, d)
        logits = x @ adapter.WR.transpose((0, 2, 1))
        weights = tz.masked_softmax(logits, topk_mask(logits.values,
                                                      adapter.k))
        dense = tz.softmax(logits)
        aug = adapter._mix(out, x, weights)
        h = block._norm2(h, aug.reshape(h.shape))
        dense_by_layer.append(dense)
    probs = [dense.mean(axis=-2) for dense in dense_by_layer]
    return h.mean(axis=1).reshape(members, -1, d) @ bb.head, probs


def per_op_loss(task, terms, cfg):
    """The layer reduction, ``lam``, total and member sum as generic ops."""
    aux = terms[0]
    for term in terms[1:]:
        aux = aux + term
    if cfg.layer_reduction == "mean":
        aux = aux * (1.0 / len(terms))
    return (task + cfg.lam * aux).sum()


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("trainable_head", [False, True])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_fused_step_is_bit_identical_to_the_generic_op_chain(
        case, trainable_head, reduction):
    """A taped step of two members, with the aux gate open for some
    (layer, member) pairs and shut for others: the fused router, routing
    mean, head and total loss give the logits, routing and every trainable
    gradient of the generic chain bit for bit."""
    (batch, seq_len, dim), adapter_cfg, k = BLOCK_CASES[case]
    bb = Backbone(BackboneConfig(layers=2, dim=dim, heads=4, seq_len=seq_len,
                                 trainable_head=trainable_head),
                  adapter_cfg, classes=4, input_dim=6, frozen_seed=42)
    rng = np.random.default_rng(42)
    members = [[rng.normal(0.0, 0.5, size=p.shape[1:])
                for p in bb.trainable_parameters()] for _ in range(2)]
    load_members(bb, *members)
    bb.set_budget([k, 1])
    features = rng.normal(size=(300, seq_len, 6))
    labels = rng.integers(0, 4, size=300)
    idx = rng.permutation(300)[:2 * 24]
    rows = [idx[:24], idx[24:]]
    maxima = [p.values.max(axis=-1) for p in per_op_forward(
        bb, features, rows)[1]]
    lo, hi = min(m.min() for m in maxima), max(m.max() for m in maxima)
    cfg = AuxLossConfig(lam=0.01, theta_th=(lo + hi) / 2,
                        layer_reduction=reduction)
    runs = []
    for fused in (True, False):
        for p in bb.trainable_parameters():
            p.grad = None
        with Tape() as tape:
            if fused:
                logits = bb.forward(features, np.stack(rows))
                probs = bb.last_layer_probs
            else:
                logits, probs = per_op_forward(bb, features, rows)
            task = tz.cross_entropy(logits, labels[np.stack(rows)])
            terms = [aux_loss_layer(p, cfg) for p in probs]
            loss = (total_loss(task, terms, cfg)[0] if fused
                    else per_op_loss(task, terms, cfg))
            tape.backward(loss)
        runs.append([logits.values, loss.values]
                    + [p.values for p in probs]
                    + [p.grad for p in bb.trainable_parameters()])
    fired = [~(m < cfg.theta_th) for m in maxima]
    assert any(f.any() for f in fired) and not all(f.all() for f in fired)
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_training_step_tape_is_freed_without_cyclic_collector():
    bb, features, labels, idx = prefix_case("grid")
    theta, m, v, t = one_row_state(bb)
    grad = np.zeros_like(theta)
    bb.bind(theta, grad)
    opt = Adam(lr=1e-3)
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            logits = bb.forward(features, idx[None])
            loss = tz.cross_entropy(logits, labels[idx][None])
            tape.backward(loss)
        opt.step(theta, grad, m, v, t)
        assert loss.tape is tape
        ref = weakref.ref(tape)
        del tape
        assert ref() is None and loss.tape is None
    finally:
        gc.enable()
