import numpy as np
import pytest
from scipy.special import erf

from fedmoe import tensor as tz
from fedmoe.adapter import AdapterConfig
from fedmoe.backbone import Backbone, BackboneConfig
from fedmoe.errors import AggregationError, ConfigurationError, DimensionError
from fedmoe.metrics import LoadMatrix
from fedmoe.tensor import Adam, Tape, Tensor

from oracles import finite_difference_grads

SMALL = BackboneConfig(layers=2, dim=16, heads=2, seq_len=8)
SMALL_ADAPTER = AdapterConfig(experts=4, rank=2)
SMALL_DATA = dict(k=2, classes=4, input_dim=6, frozen_seed=11)


def small_backbone(cfg=SMALL, **overrides):
    return Backbone(cfg, SMALL_ADAPTER, **{**SMALL_DATA, **overrides})


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
    logits = bb.forward(batch)
    assert logits.shape == (5, 4)
    assert np.isfinite(logits.values).all()
    assert len(bb.last_layer_probs) == 2


def test_indivisible_heads_rejected():
    with pytest.raises(ConfigurationError):
        BackboneConfig(dim=16, heads=3)


def test_zero_adapters_match_adapter_free_oracle():
    bb = small_backbone()  # E2 = 0 at init
    batch = np.random.default_rng(1).normal(size=(4, 8, 6))
    logits = bb.forward(batch)
    np.testing.assert_allclose(logits.values, frozen_forward_oracle(bb, batch),
                               rtol=0, atol=1e-12)


def test_stats_count_conservation():
    bb = small_backbone()  # M=4, K=2
    batch = np.random.default_rng(2).normal(size=(1, 8, 6))
    load = LoadMatrix.zeros(2, 4)
    bb.forward(batch, load)
    for layer in range(2):
        assert load.tokens[layer] == 8
        assert load.counts[layer].sum() == 16


def test_adapter_gradients_match_fd_through_full_stack():
    cfg = BackboneConfig(layers=2, dim=8, heads=2, seq_len=4)
    bb = Backbone(cfg, AdapterConfig(experts=2, rank=2), k=1, classes=3,
                  input_dim=5, frozen_seed=3)
    rng = np.random.default_rng(4)
    # tie-free routing + live expert outputs
    for adapter in bb.adapters:
        adapter.WR.values[...] = rng.normal(size=(2, 8))
        adapter.E2.values[...] = rng.normal(size=adapter.E2.shape) * 0.1
    batch = rng.normal(size=(3, 4, 5))
    labels = rng.integers(0, 3, size=3)

    params = bb.trainable_parameters()
    with Tape() as tape:
        logits = bb.forward(batch)
        loss = tz.cross_entropy(logits, labels)
    tape.backward(loss)

    def loss_value(_arrays):
        logits = bb.forward(batch)
        return tz.cross_entropy(logits, labels).item()

    fd = finite_difference_grads(loss_value, [p.values for p in params])
    for p, want in zip(params, fd):
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-8)


def test_trainable_count_matches_adapter_configuration():
    cfg = BackboneConfig(layers=3, dim=16, heads=4, seq_len=4)
    bb = Backbone(cfg, AdapterConfig(experts=2, rank=3), k=1, classes=4,
                  input_dim=4, frozen_seed=5)
    per_layer = (3 + 3) * 2 * 16 + 2 * 16  # expert entries + router rows
    got = sum(p.values.size for p in bb.trainable_parameters())
    assert got == 3 * per_layer


@pytest.mark.parametrize("trainable_head", [False, True])
def test_trainable_parameters_are_three_stacked_tensors_per_layer(trainable_head):
    cfg = BackboneConfig(layers=3, dim=16, heads=4, seq_len=4,
                         trainable_head=trainable_head)
    bb = Backbone(cfg, AdapterConfig(experts=5, rank=3), k=2, classes=4,
                  input_dim=4, frozen_seed=5)
    shapes = [(5, 3, 16), (5, 16, 3), (5, 16)] * 3
    names = [f"layer{i}.{n}" for i in range(3)
             for n in ("experts.E1", "experts.E2", "router.WR")]
    if trainable_head:
        shapes.append((16, 4))
        names.append("head")
    assert [p.shape for p in bb.trainable_parameters()] == shapes
    assert bb.parameter_names() == names


def test_trainable_head_is_exposed_and_loadable():
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": True}))
    assert bb.parameter_names()[-1] == "head"
    assert bb.trainable_parameters()[-1] is bb.head
    values = [p.values.copy() for p in bb.trainable_parameters()]
    values[-1] = values[-1] + 1.0
    bb.load_trainable(values)
    np.testing.assert_array_equal(bb.head.values, values[-1])


def test_frozen_weights_survive_training_steps():
    bb = small_backbone()
    before = bb.frozen_checksum()
    rng = np.random.default_rng(6)
    opt = Adam(bb.trainable_parameters(), lr=1e-3, weight_decay=0.01)
    for _ in range(3):
        batch = rng.normal(size=(4, 8, 6))
        labels = rng.integers(0, 4, size=4)
        opt.zero_grad()
        with Tape() as tape:
            logits = bb.forward(batch)
            loss = tz.cross_entropy(logits, labels)
        tape.backward(loss)
        opt.step()
    assert bb.frozen_checksum() == before


def test_load_trainable_round_trip_and_length_check():
    bb = small_backbone()
    saved = [p.values.copy() for p in bb.trainable_parameters()]
    bb.load_trainable(saved)
    for p, s in zip(bb.trainable_parameters(), saved):
        np.testing.assert_array_equal(p.values, s)
    with pytest.raises(AggregationError):
        bb.load_trainable(saved[:-1])


def test_load_trainable_names_a_bad_head_by_global_index():
    bb = small_backbone(BackboneConfig(**{**SMALL.__dict__,
                                          "trainable_head": True}))
    values = [p.values.copy() for p in bb.trainable_parameters()]
    assert len(values) == 7
    values[6] = values[6].T
    with pytest.raises(AggregationError, match=r"parameter 6 \(head\)"):
        bb.load_trainable(values)


def test_forward_rejects_wrong_batch_shape():
    bb = small_backbone()
    with pytest.raises(DimensionError):
        bb.forward(np.zeros((2, 8, 7)))
    with pytest.raises(DimensionError):
        bb.forward(np.zeros((2, 4, 6)))


def test_layer_probs_are_per_layer_distributions():
    bb = small_backbone()
    bb.forward(np.random.default_rng(7).normal(size=(3, 8, 6)))
    assert len(bb.last_layer_probs) == 2
    for p in bb.last_layer_probs:
        assert p.shape == (4,)
        assert abs(p.values.sum() - 1.0) < 1e-9
