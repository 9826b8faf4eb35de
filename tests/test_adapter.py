import numpy as np
import pytest

from fedmoe import tensor as tz
from fedmoe.adapter import AdapterConfig, MoEAdapter, topk_mask
from fedmoe.backbone import Backbone, BackboneConfig
from fedmoe.errors import (AggregationError, ConfigurationError, DimensionError,
                           UsageError)
from fedmoe.metrics import LoadMatrix
from fedmoe.tensor import Adam, Tape, Tensor, parameter

from oracles import (finite_difference_grads, lora_adapter, route,
                     softmax_direct)


def brute_force_topk(logits, k):
    """Independent selection rule: largest logits, lowest index on ties."""
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return sorted(order[:k])


def make_adapter(dim, experts, rank, k, rng=None, **kwargs):
    """An adapter of M = experts stacked experts of one rank, budget k."""
    adapter = MoEAdapter(dim, AdapterConfig(experts=experts, rank=rank,
                                            **kwargs), rng)
    adapter.set_budget(k)
    return adapter


def identity_router_adapter(m, k, **kwargs):
    """Adapter whose routing logits equal the input token (d = M)."""
    adapter = make_adapter(m, m, 2, k, **kwargs)
    adapter.WR.values[...] = np.eye(m)
    return adapter


# -- routing -------------------------------------------------------------------


def test_route_uniform_logits_full_activation():
    adapter = make_adapter(4, 4, 1, k=4)
    weights, selected = route(adapter, np.array([0.3, -0.1, 0.8, 0.0]))
    np.testing.assert_allclose(weights, 0.25, atol=1e-15)  # router starts at 0
    assert selected == [0, 1, 2, 3]


def test_route_k1_is_one_hot_at_argmax():
    adapter = identity_router_adapter(4, k=1)
    weights, selected = route(adapter, np.array([0.1, 3.0, -1.0, 0.0]))
    np.testing.assert_array_equal(weights, [0.0, 1.0, 0.0, 0.0])
    assert selected == [1]


def test_route_k2_matches_softmax_over_selected():
    adapter = identity_router_adapter(4, k=2)
    weights, selected = route(adapter, np.array([2.0, 1.0, 0.0, -1.0]))
    assert selected == [0, 1]
    np.testing.assert_allclose(weights[:2], softmax_direct([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(weights, [0.7311, 0.2689, 0.0, 0.0], atol=1e-4)


def test_route_breaks_ties_toward_lowest_index():
    adapter = identity_router_adapter(4, k=2)
    weights, selected = route(adapter, np.array([1.0, 1.0, 1.0, 0.0]))
    assert selected == [0, 1]
    np.testing.assert_allclose(weights, [0.5, 0.5, 0.0, 0.0], atol=1e-15)


def test_route_contract_on_random_tokens():
    rng = np.random.default_rng(7)
    adapter = make_adapter(12, 8, 1, k=3)
    adapter.WR.values[...] = rng.normal(size=(8, 12))
    for _ in range(200):
        x = rng.normal(size=12)
        weights, selected = route(adapter, x)
        nonzero = np.flatnonzero(weights)
        assert len(nonzero) == 3
        assert abs(weights.sum() - 1.0) <= 1e-12
        logits = adapter.WR.values[0] @ x
        assert selected == brute_force_topk(logits, 3)
        assert sorted(nonzero.tolist()) == selected


def test_route_rejects_uniform_mode():
    adapter = make_adapter(4, 2, 2, k=2, gating_mode="uniform_one")
    with pytest.raises(UsageError):
        route(adapter, np.zeros(4))


def test_topk_mask_selects_per_row():
    z = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
    mask = topk_mask(z, 2)
    np.testing.assert_array_equal(mask, [[True, False, True], [True, True, False]])


# -- forward -------------------------------------------------------------------


def test_zero_initialized_adapter_is_exact_identity():
    rng = np.random.default_rng(8)
    adapter = make_adapter(6, 2, 3, k=1, rng=rng)
    backbone_out = rng.normal(size=(5, 6))
    x = rng.normal(size=(5, 6))
    out = adapter.forward(Tensor(backbone_out[None]), Tensor(x[None]))[0]
    np.testing.assert_array_equal(out.values[0], backbone_out)


def test_single_token_forward_keeps_shape():
    adapter = make_adapter(4, 2, 2, k=2)
    out = adapter.forward(Tensor(np.ones((1, 1, 4))),
                          Tensor(np.zeros((1, 1, 4))))[0]
    assert out.shape == (1, 1, 4)


def test_hand_evaluated_two_expert_case():
    # d=2, M=2, K=1; router makes expert 0 win for x = [1, 0]
    adapter = make_adapter(2, 2, 1, k=1, activation="linear")
    adapter.WR.values[...] = [[5.0, 0.0], [0.0, 5.0]]
    adapter.E1.values[0, 0] = [[1.0, 2.0]]
    adapter.E2.values[0, 0] = [[3.0], [4.0]]
    adapter.E1.values[0, 1] = [[100.0, 100.0]]
    adapter.E2.values[0, 1] = [[100.0], [100.0]]
    backbone_out = np.array([0.5, -0.5])
    x = np.array([1.0, 0.0])
    out = adapter.forward(Tensor(backbone_out[None, None]),
                          Tensor(x[None, None]))[0]
    # E1 @ x = 1.0; E2 * 1.0 = [3, 4]; plus the backbone output
    np.testing.assert_allclose(out.values[0, 0], [3.5, 3.5], atol=1e-12)


def test_equal_logits_full_activation_averages_experts():
    rng = np.random.default_rng(9)
    adapter = make_adapter(5, 4, 2, k=4, rng=rng)
    adapter.E2.values[...] = rng.normal(size=adapter.E2.shape)
    x = rng.normal(size=(3, 5))
    out = adapter.forward(Tensor(np.zeros((1, 3, 5))), Tensor(x[None]))[0]
    e1, e2 = adapter.E1.values[0], adapter.E2.values[0]
    want = np.mean([tz._gelu_values(x @ e1[m].T)[1] @ e2[m].T
                    for m in range(4)], axis=0)
    np.testing.assert_allclose(out.values[0], want, atol=1e-12)


def test_permuting_experts_and_router_rows_changes_nothing():
    rng = np.random.default_rng(10)
    adapter = make_adapter(6, 3, 2, k=2, rng=rng)
    adapter.WR.values[...] = rng.normal(size=(3, 6))
    adapter.E2.values[...] = rng.normal(size=adapter.E2.shape)

    perm = [2, 0, 1]
    twin = make_adapter(6, 3, 2, k=2)
    twin.WR.values[...] = adapter.WR.values[:, perm]
    twin.E1.values[...] = adapter.E1.values[:, perm]
    twin.E2.values[...] = adapter.E2.values[:, perm]

    x = rng.normal(size=(4, 6))
    base = rng.normal(size=(4, 6))
    out = adapter.forward(Tensor(base[None]), Tensor(x[None]))[0]
    out_perm = twin.forward(Tensor(base[None]), Tensor(x[None]))[0]
    np.testing.assert_allclose(out_perm.values, out.values, atol=1e-12)

    w, sel = route(adapter, x[0])
    w_perm, sel_perm = route(twin, x[0])
    np.testing.assert_allclose(w_perm, w[perm], atol=1e-15)
    assert sel_perm == sorted(int(np.argsort(perm)[i]) for i in sel)


def test_forward_rejects_mismatched_shapes():
    adapter = make_adapter(4, 1, 2, k=1)
    with pytest.raises(DimensionError):
        adapter.forward(Tensor(np.zeros((1, 2, 4))),
                        Tensor(np.zeros((1, 3, 4))))
    with pytest.raises(DimensionError):
        adapter.forward(Tensor(np.zeros((1, 2, 5))),
                        Tensor(np.zeros((1, 2, 5))))


# -- LoRA equivalence -------------------------------------------------------------


def test_from_lora_single_expert_keeps_factors():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 10))
    b = rng.normal(size=(10, 4))
    adapter = lora_adapter(Tensor(a), Tensor(b), ranks=[4])
    np.testing.assert_array_equal(adapter.E1.values[0, 0], a)
    np.testing.assert_array_equal(adapter.E2.values[0, 0], b)


def test_from_lora_block_sum_reconstructs_dense_product():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 9))
    b = rng.normal(size=(9, 4))
    adapter = lora_adapter(Tensor(a), Tensor(b), ranks=[2, 2])
    total = sum(adapter.E2.values[0, m] @ adapter.E1.values[0, m]
                for m in range(2))
    np.testing.assert_allclose(total, b @ a, atol=1e-12)


@pytest.mark.parametrize("ranks", [[4], [2, 2], [1, 3], [1, 1, 1, 1]])
def test_from_lora_forward_equals_lora_update(ranks):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 8))
    b = rng.normal(size=(8, 4))
    adapter = lora_adapter(Tensor(a), Tensor(b), ranks=ranks)
    for _ in range(10):
        x = rng.normal(size=8)
        base = rng.normal(size=8)
        out = adapter.forward(Tensor(base[None, None]),
                              Tensor(x[None, None]))[0]
        np.testing.assert_allclose(out.values[0, 0], base + b @ (a @ x),
                                   atol=1e-9)


def test_from_lora_zero_factor_is_zero_map():
    b = np.random.default_rng(14).normal(size=(6, 3))
    adapter = lora_adapter(Tensor(np.zeros((3, 6))), Tensor(b), [1, 2])
    x = np.ones(6)
    out = adapter.forward(Tensor(np.zeros((1, 1, 6))),
                          Tensor(x[None, None]))[0]
    np.testing.assert_array_equal(out.values[0, 0], np.zeros(6))


def test_from_lora_validates_ranks_and_shapes():
    a, b = Tensor(np.zeros((4, 8))), Tensor(np.zeros((8, 4)))
    with pytest.raises(ConfigurationError):
        lora_adapter(a, b, ranks=[2, 3])
    with pytest.raises(DimensionError):
        lora_adapter(a, Tensor(np.zeros((4, 8))), ranks=[2, 2])
    with pytest.raises(ConfigurationError):
        lora_adapter(Tensor(np.zeros((9, 8))), Tensor(np.zeros((8, 9))),
                             ranks=[9])


def test_ragged_lora_split_pads_with_exact_zeros_that_never_train():
    """Ranks [1, 3, 2, 2] pad every expert to rank 3: the padding gets
    exactly zero gradient and stays exactly 0 under Adam with weight decay,
    and the forward is base + B A x before and after training."""
    rng = np.random.default_rng(26)
    ranks = [1, 3, 2, 2]
    a, b = rng.normal(size=(8, 10)), rng.normal(size=(10, 8))
    adapter = lora_adapter(Tensor(a), Tensor(b), ranks)
    assert adapter.E1.shape == (1, 4, 3, 10)
    assert adapter.E2.shape == (1, 4, 10, 3)
    pad1 = np.zeros(adapter.E1.shape, dtype=bool)
    pad2 = np.zeros(adapter.E2.shape, dtype=bool)
    for m, r in enumerate(ranks):
        pad1[0, m, r:] = True
        pad2[0, m, :, r:] = True
    x, base, w = (rng.normal(size=(6, 10)) for _ in range(3))

    def lora_factors():
        a_now = np.concatenate([adapter.E1.values[0, m, :r]
                                for m, r in enumerate(ranks)])
        b_now = np.concatenate([adapter.E2.values[0, m, :, :r]
                                for m, r in enumerate(ranks)], axis=1)
        return a_now, b_now

    np.testing.assert_array_equal(lora_factors()[0], a)
    opt = Adam([adapter.E1, adapter.E2], lr=0.05, weight_decay=0.1)
    for _ in range(5):
        opt.zero_grad()
        with Tape() as tape:
            out = adapter.forward(Tensor(base[None]), Tensor(x[None]))[0]
            loss = tz.mul(out, Tensor(w[None])).sum()
        a_now, b_now = lora_factors()
        np.testing.assert_allclose(out.values[0], base + x @ a_now.T @ b_now.T,
                                   atol=1e-9)
        tape.backward(loss)
        assert np.all(adapter.E1.grad[pad1] == 0.0)
        assert np.all(adapter.E2.grad[pad2] == 0.0)
        assert np.any(adapter.E1.grad[~pad1] != 0.0)
        opt.step()
        assert np.all(adapter.E1.values[pad1] == 0.0)
        assert np.all(adapter.E2.values[pad2] == 0.0)
    assert not np.array_equal(lora_factors()[0], a)  # the blocks did train


# -- gradients ---------------------------------------------------------------------


def test_adapter_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    adapter = make_adapter(6, 3, 2, k=2, rng=rng)
    adapter.WR.values[...] = rng.normal(size=(3, 6))
    adapter.E2.values[...] = rng.normal(size=adapter.E2.shape) * 0.1
    x = rng.normal(size=(4, 6))
    base = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))

    def loss_value(_arrays):
        out = adapter.forward(Tensor(base[None]), Tensor(x[None]))[0]
        return tz.mul(out, Tensor(w[None])).sum().item()

    params = adapter.parameters()
    with Tape() as tape:
        out = adapter.forward(Tensor(base[None]), Tensor(x[None]))[0]
        loss = tz.mul(out, Tensor(w[None])).sum()
    tape.backward(loss)
    fd = finite_difference_grads(loss_value, [p.values for p in params])
    for p, want in zip(params, fd):
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-8)


def per_op_mix(adapter, backbone_out, x, weights):
    """The folded mixture as a chain of tape ops on the stacked E1 and E2:
    ``E1cat = E1.reshape(G, M*r, d)``, ``h = x @ E1cat^T``, the activation,
    the activation's blocks weighted by ``weights.reshape(G, T, M, 1)``, and
    one up-projection by ``E2cat``, E2 moved to ``[G, M*r, d]``.  The one-op
    mixture must match it bit for bit."""
    e1, e2 = adapter.E1, adapter.E2
    members, m, d, r = e2.shape
    tokens = x.shape[1]
    h = x @ e1.reshape(members, m * r, d).transpose((0, 2, 1))
    if adapter.experts.activation == "gelu":
        h = tz.gelu(h)
    aw = h.reshape(members, tokens, m, r) * weights.reshape(members, tokens, m, 1)
    e2cat = e2.transpose((0, 1, 3, 2)).reshape(members, m * r, d)
    return backbone_out + aw.reshape(members, tokens, m * r) @ e2cat


def per_expert_mix(adapter, backbone_out, x, weights):
    """The expert mixture as the chain of per-expert tape ops (transpose,
    matmul, gelu, transpose, matmul, take, mul, add) that the one-op mixture
    first replaced, on per-expert leaf tensors copied from the slices of
    the stacked E1 and E2; it sums the experts one by one, so the folded
    mixture matches it up to rounding.  Returns the output and the
    per-expert (E1_m, E2_m) leaves stacked in expert order."""
    pairs = [(parameter(adapter.E1.values[:, m].copy()),
              parameter(adapter.E2.values[:, m].copy()))
             for m in range(adapter.n_experts)]
    out = backbone_out
    for m, (e1, e2) in enumerate(pairs):
        h = x @ e1.transpose((0, 2, 1))
        if adapter.experts.activation == "gelu":
            h = tz.gelu(h)
        out = out + weights[..., m:m + 1] * (h @ e2.transpose((0, 2, 1)))
    return out, pairs


MIXED_RANKS = (2, 1, 3, 2)


def mixture_case(activation, gating_mode, k, seed=24):
    """A random 4-expert adapter with mixed ranks 2, 1, 3, 2 (zero-padded to
    3), inputs and a loss weight."""
    rng = np.random.default_rng(seed)
    adapter = make_adapter(6, 4, 3, k=k, rng=rng, gating_mode=gating_mode,
                           activation=activation)
    adapter.WR.values[...] = rng.normal(size=(4, 6))
    adapter.E1.values[...] = rng.normal(size=adapter.E1.shape)
    adapter.E2.values[...] = rng.normal(size=adapter.E2.shape)
    for m, r in enumerate(MIXED_RANKS):
        adapter.E1.values[0, m, r:] = 0.0
        adapter.E2.values[0, m, :, r:] = 0.0
    arrays = dict(x=rng.normal(size=(5, 6)), base=rng.normal(size=(5, 6)),
                  logits=rng.normal(size=(5, 4)), w=rng.normal(size=(5, 6)))
    return adapter, {key: a[None] for key, a in arrays.items()}


def run_mix(adapter, arrays, inputs_grad, chain=None):
    """Loss ``sum(w * mix(...))`` under a tape, mixing with the one-op
    ``_mix`` or with a ``chain`` (``per_op_mix`` or ``per_expert_mix``);
    returns the output and the gradients of x, backbone_out, router
    logits, E1 and E2 (per-expert leaves' gradients stacked in expert
    order)."""
    x = Tensor(arrays["x"], requires_grad=inputs_grad)
    base = Tensor(arrays["base"], requires_grad=inputs_grad)
    logits = Tensor(arrays["logits"], requires_grad=True)
    adapter.E1.grad = adapter.E2.grad = None
    with Tape() as tape:
        weights, _ = adapter._gate(logits)
        if chain is per_expert_mix:
            out, pairs = per_expert_mix(adapter, base, x, weights)
        else:
            out = (chain or MoEAdapter._mix)(adapter, base, x, weights)
        loss = tz.mul(out, Tensor(arrays["w"])).sum()
    tape.backward(loss)
    if chain is per_expert_mix:
        experts = [np.stack([pair[i].grad for pair in pairs], axis=1)
                   for i in (0, 1)]
    else:
        experts = [adapter.E1.grad.copy(), adapter.E2.grad.copy()]
    return out.values, [x.grad, base.grad, logits.grad] + experts


# activation, gating mode, K, whether x and backbone_out need gradients
MIX_CASES = [(activation, mode, k, inputs_grad)
             for activation in ("gelu", "linear")
             for mode, k in (("topk_softmax", 1), ("topk_softmax", 2),
                             ("topk_softmax", 4), ("uniform_one", 4))
             for inputs_grad in (False, True)]


@pytest.mark.parametrize("activation,gating_mode,k,inputs_grad", MIX_CASES)
def test_one_op_mixture_is_bit_identical_to_per_op_chain(activation, gating_mode,
                                                         k, inputs_grad):
    adapter, arrays = mixture_case(activation, gating_mode, k)
    out, grads = run_mix(adapter, arrays, inputs_grad)
    want_out, want_grads = run_mix(adapter, arrays, inputs_grad, per_op_mix)
    np.testing.assert_array_equal(out, want_out)
    assert len(grads) == len(want_grads) == 5
    for got, want in zip(grads, want_grads):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)
    assert (grads[0] is None) == (not inputs_grad)
    assert (grads[2] is None) == (gating_mode == "uniform_one")


@pytest.mark.parametrize("activation,gating_mode,k,inputs_grad", MIX_CASES)
def test_folded_mixture_matches_per_expert_chain_up_to_rounding(
        activation, gating_mode, k, inputs_grad):
    """Folding the experts into two products only reorders the sum over
    experts: output and gradients agree with the per-expert chain to 1e-12
    relative."""
    adapter, arrays = mixture_case(activation, gating_mode, k)
    out, grads = run_mix(adapter, arrays, inputs_grad)
    want_out, want_grads = run_mix(adapter, arrays, inputs_grad, per_expert_mix)
    np.testing.assert_allclose(out, want_out, rtol=1e-12)
    for got, want in zip(grads, want_grads):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mixture_records_one_tape_op_and_matches_evaluation():
    adapter, arrays = mixture_case("gelu", "topk_softmax", 2)
    x, base = Tensor(arrays["x"], requires_grad=True), Tensor(arrays["base"])
    weights = Tensor(arrays["logits"])
    with Tape() as tape:
        out = adapter._mix(base, x, weights)
    assert len(tape._ops) == 1 and out.requires_grad
    evaluated = adapter._mix(base, x, weights)
    assert not evaluated.requires_grad
    np.testing.assert_array_equal(evaluated.values, out.values)


def test_mixture_input_gradients_match_finite_differences():
    adapter, arrays = mixture_case("gelu", "topk_softmax", 2)
    keys = ["x", "base", "logits"]

    def loss_value(_arrays):
        weights, _ = adapter._gate(Tensor(arrays["logits"]))
        out = adapter._mix(Tensor(arrays["base"]), Tensor(arrays["x"]), weights)
        return float((out.values * arrays["w"]).sum())

    _, grads = run_mix(adapter, arrays, True)
    fd = finite_difference_grads(loss_value, [arrays[k] for k in keys])
    for got, want in zip(grads, fd):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_never_routed_expert_gets_exactly_zero_grad():
    adapter = make_adapter(4, 4, 1, k=2, rng=np.random.default_rng(16))
    # experts 0 and 1 always win; experts 2 and 3 never enter the top-2
    adapter.WR.values[...] = 0.0
    adapter.WR.values[0, 0] = [3.0, 3.0, 3.0, 3.0]
    adapter.WR.values[0, 1] = [2.0, 2.0, 2.0, 2.0]
    x = np.abs(np.random.default_rng(17).normal(size=(6, 4))) + 0.1
    with Tape() as tape:
        out = adapter.forward(Tensor(np.zeros((1, 6, 4))), Tensor(x[None]))[0]
        loss = out.sum()
    tape.backward(loss)
    for m in (2, 3):
        np.testing.assert_array_equal(adapter.E1.grad[0, m], 0.0)
        np.testing.assert_array_equal(adapter.E2.grad[0, m], 0.0)
    assert np.any(adapter.E2.grad[0, 0] != 0.0)


def test_last_mean_probs_is_batch_mean_dense_softmax():
    rng = np.random.default_rng(18)
    adapter = make_adapter(5, 3, 1, k=1, rng=rng)
    adapter.WR.values[...] = rng.normal(size=(3, 5))
    x = rng.normal(size=(7, 5))
    _, probs, dense, selected = adapter.forward(Tensor(np.zeros((1, 7, 5))),
                                                Tensor(x[None]))
    logits = x @ adapter.WR.values[0].T
    want = np.mean([softmax_direct(row) for row in logits], axis=0)
    np.testing.assert_allclose(probs.values[0], want, atol=1e-12)
    assert np.array_equal(probs.values, dense.mean(axis=1))
    for row, mask in zip(logits, selected[0]):
        assert list(np.flatnonzero(mask)) == brute_force_topk(row, 1)


# -- parameter exchange (the backbone loads every adapter's parameters) ----------


def small_backbone(k=1, seed=3):
    cfg = BackboneConfig(layers=2, dim=6, heads=2, seq_len=4)
    bb = Backbone(cfg, AdapterConfig(experts=2, rank=3), classes=3,
                  input_dim=5, frozen_seed=3)
    bb.set_budget(k)
    rng = np.random.default_rng(seed)
    for p in bb.trainable_parameters():
        p.values[...] = rng.normal(size=p.shape)
    return bb


def test_parameter_round_trip_is_bit_identical():
    saved = small_backbone(seed=19).member_params(0)
    bb = small_backbone(seed=20)
    bb.load_trainable(saved)
    for p, s in zip(bb.trainable_parameters(), saved):
        np.testing.assert_array_equal(p.values[0], s)


def test_parameter_order_is_experts_then_router():
    adapter = make_adapter(4, 2, 3, k=1)
    shapes = [p.shape for p in adapter.parameters()]
    assert shapes == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 2, 4)]
    assert adapter.parameter_names() == ["experts.E1", "experts.E2", "router.WR"]


def test_load_transposed_tensor_names_position():
    bb = small_backbone()
    bad = bb.member_params(0)
    bad[2] = bad[2].T
    with pytest.raises(AggregationError,
                       match=r"parameter 2 \(layer0\.router\.WR\)"):
        bb.load_trainable(bad)
    with pytest.raises(AggregationError, match="6 tensors"):
        bb.load_trainable(bad[:-1])


def test_adapters_with_different_k_interoperate():
    first = small_backbone(k=1, seed=20)
    second = small_backbone(k=2, seed=21)
    second.load_trainable(first.member_params(0))
    x = np.random.default_rng(22).normal(size=(3, 4, 5))
    first.forward(x)
    second.forward(x)
    second.set_budget(1)
    np.testing.assert_array_equal(second.forward(x).values,
                                  first.forward(x).values)


def test_load_keeps_tensor_identity_for_optimizer_state():
    bb = small_backbone()
    before = bb.trainable_parameters()
    opt = Adam(before, lr=1e-3)
    bb.load_trainable([np.ones_like(p.values[0]) for p in before])
    assert all(a is b for a, b in zip(before, bb.trainable_parameters()))
    assert all(a is b for a, b in zip(before, opt.params))
    assert all((p.values == 1.0).all() for p in before)


# -- routing records and construction ------------------------------------------------


def test_routing_accumulates_into_load_matrix_over_two_batches():
    rng = np.random.default_rng(23)
    adapter = make_adapter(6, 4, 1, k=2, rng=rng)
    adapter.WR.values[...] = rng.normal(size=(4, 6))
    load = LoadMatrix.zeros(1, 4)
    want = np.zeros(4, dtype=np.int64)
    for tokens in (10, 5):
        x = rng.normal(size=(tokens, 6))
        _, _, dense, selected = adapter.forward(
            Tensor(np.zeros((1, tokens, 6))), Tensor(x[None]))
        load.record(0, selected, dense)
        for row in x @ adapter.WR.values[0].T:
            want[brute_force_topk(row, 2)] += 1
    assert load.tokens[0] == 15
    assert load.counts.sum() == 15 * 2
    np.testing.assert_array_equal(load.counts[0], want)
    assert abs(load.mean_probs()[0].sum() - 1.0) <= 1e-9


def test_stats_not_collected_by_default():
    """The adapter keeps no record of a forward: its attributes are the
    same objects before and after."""
    adapter = make_adapter(4, 2, 2, k=1)
    before = dict(vars(adapter))
    adapter.forward(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 4))))
    with Tape():
        adapter.forward(Tensor(np.zeros((1, 3, 4))),
                        Tensor(np.ones((1, 3, 4))))
    after = vars(adapter)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("kwargs", [
    dict(experts=2, rank=2, k=3),
    dict(experts=2, rank=2, k=0),
    dict(experts=0, rank=2, k=1),
    dict(experts=2, rank=0, k=1),
    dict(experts=2, rank=2, k=1, gating_mode="dense"),
    dict(experts=2, rank=2, k=1, activation="relu"),
])
def test_construction_rejects_bad_config(kwargs):
    with pytest.raises(ConfigurationError):
        make_adapter(4, **kwargs)
