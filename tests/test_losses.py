import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmoe import tensor as tz
from fedmoe.errors import ConfigurationError, InputError, UsageError
from fedmoe.losses import (AuxLossConfig, aux_loss_layer, kl_divergence,
                           total_loss, uniform_target)
from fedmoe.tensor import Tape, Tensor, parameter

from oracles import finite_difference_grads, kl_direct


# -- kl_divergence ----------------------------------------------------------------


def test_kl_of_identical_uniforms_is_zero():
    u = uniform_target(4)
    assert kl_divergence(u, u).item() == 0.0


def test_kl_one_hot_against_uniform_is_log_m():
    p = np.array([0.0, 1.0, 0.0, 0.0])
    got = kl_divergence(p, uniform_target(4)).item()
    assert abs(got - math.log(4.0)) < 1e-12


def test_kl_matches_direct_summation():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    got = kl_divergence(p, uniform_target(4)).item()
    assert abs(got - kl_direct(p, uniform_target(4))) < 1e-12
    assert abs(got - 0.1733) < 1e-4


def test_kl_rejects_bad_distributions():
    u = uniform_target(4)
    with pytest.raises(InputError):
        kl_divergence(np.array([0.5, 0.5, 0.5, -0.5]), u)
    with pytest.raises(InputError):
        kl_divergence(np.array([0.7, 0.7, 0.1, 0.1]), u)
    with pytest.raises(InputError):
        kl_divergence(u, np.array([1.0, 0.0, 0.0, 0.0]))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16))
@example([0.3] * 5)  # p one ulp from uniform: the termwise sum rounds below 0
def test_kl_nonnegative_on_random_distributions(raw):
    p = np.array(raw) / np.sum(raw)
    assert kl_divergence(p, uniform_target(len(raw))).item() >= 0.0


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16))
def test_kl_of_distribution_with_itself_is_zero(raw):
    p = np.array(raw) / np.sum(raw)
    assert kl_divergence(p, p.copy()).item() == 0.0


# -- aux_loss_layer -----------------------------------------------------------------


def test_aux_below_threshold_is_bitwise_zero():
    cfg = AuxLossConfig(theta_th=0.3)
    out = aux_loss_layer(uniform_target(8), cfg)  # theta = 0.125
    assert out.item() == 0.0


def test_aux_one_hot_above_threshold_is_log_m():
    cfg = AuxLossConfig(theta_th=0.3)
    out = aux_loss_layer(np.array([1.0, 0.0, 0.0, 0.0]), cfg)
    assert abs(out.item() - math.log(4.0)) < 1e-12


def test_aux_both_branches_on_the_same_distribution():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    on = aux_loss_layer(p, AuxLossConfig(theta_th=0.3))
    assert abs(on.item() - 0.1733) < 1e-4
    off = aux_loss_layer(p, AuxLossConfig(theta_th=0.6))
    assert off.item() == 0.0


def test_aux_gate_fires_at_exact_threshold():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    assert aux_loss_layer(p, AuxLossConfig(theta_th=0.5)).item() > 0.0


def test_aux_gradient_matches_fd_away_from_gate():
    rng = np.random.default_rng(30)
    z = rng.normal(size=6)
    z[2] += 2.0  # peak: theta well above the 0.3 gate
    cfg = AuxLossConfig(theta_th=0.3)

    def build(ts):
        return aux_loss_layer(tz.softmax(ts[0]), cfg)

    leaf = parameter(z.copy())
    with Tape() as tape:
        loss = build([leaf])
    assert loss.item() > 0.0
    tape.backward(loss)
    fd = finite_difference_grads(lambda arrs: build([Tensor(arrs[0])]).item(),
                                 [z.copy()])
    np.testing.assert_allclose(leaf.grad, fd[0], rtol=1e-4, atol=1e-10)


def test_aux_step_reduces_peak_probability():
    # one gradient step on the aux term alone flattens a peaked router
    rng = np.random.default_rng(31)
    cfg = AuxLossConfig(theta_th=0.01)
    for _ in range(25):
        z = rng.normal(size=5)
        z[int(rng.integers(5))] += 2.0
        leaf = parameter(z.copy())
        with Tape() as tape:
            loss = aux_loss_layer(tz.softmax(leaf), cfg)
        tape.backward(loss)
        stepped = tz.softmax(Tensor(z - 0.05 * leaf.grad)).values
        assert stepped.max() < tz.softmax(Tensor(z)).values.max()


def test_gated_off_layer_contributes_no_gradient():
    leaf = parameter(np.zeros(8))
    cfg = AuxLossConfig(theta_th=0.3)
    with Tape() as tape:
        p = tz.softmax(leaf)  # uniform, theta = 0.125 < 0.3
        loss = aux_loss_layer(p, cfg) + (leaf * 0.0).sum()
    tape.backward(loss)
    np.testing.assert_array_equal(leaf.grad, np.zeros(8))


# -- total_loss ------------------------------------------------------------------


def test_total_loss_lam_zero_is_the_task_sum_and_reads_no_terms():
    task = Tensor(np.array([0.7, 0.2]))
    out, aux = total_loss(task, [Tensor(np.array([9.9, np.nan]))],
                          AuxLossConfig(lam=0.0))
    assert out.item() == 0.7 + 0.2
    assert np.array_equal(aux, [0.0, 0.0])


def test_total_loss_hand_arithmetic():
    cfg = AuxLossConfig(lam=1e-4, layer_reduction="mean")
    task = Tensor(np.array(1.0))
    aux = [Tensor(np.array(0.2)), Tensor(np.array(0.0))]
    assert abs(total_loss(task, aux, cfg)[0].item() - 1.00001) < 1e-12


def test_total_loss_sum_reduction():
    cfg = AuxLossConfig(lam=0.5, layer_reduction="sum")
    task = Tensor(np.array(2.0))
    aux = [Tensor(np.array(0.2)), Tensor(np.array(0.6))]
    assert abs(total_loss(task, aux, cfg)[0].item() - 2.4) < 1e-12


def test_total_loss_backpropagates_to_both_sources():
    z = parameter(np.array([1.0, 0.0, -1.0, 0.5]))
    task_leaf = parameter(np.array(1.5))
    cfg = AuxLossConfig(lam=0.1, theta_th=0.01)
    with Tape() as tape:
        p = tz.softmax(z)
        loss, _ = total_loss(task_leaf * 1.0, [aux_loss_layer(p, cfg)], cfg)
    tape.backward(loss)
    assert task_leaf.grad is not None and float(task_leaf.grad) == 1.0
    assert z.grad is not None and np.any(z.grad != 0.0)


def test_total_loss_requires_terms_when_weighted():
    cfg = AuxLossConfig(lam=0.1)
    with pytest.raises(UsageError):
        total_loss(Tensor(np.array(1.0)), [], cfg)
    with pytest.raises(UsageError):
        total_loss(Tensor(np.array(1.0)), None, cfg)


def test_reduce_aux_mean_of_two_layers_is_the_halved_sum_exactly():
    rng = np.random.default_rng(11)
    task = Tensor(np.array(0.0))
    for _ in range(100):
        a, b = rng.random(2)
        terms = [Tensor(np.array(a)), Tensor(np.array(b))]
        mean = total_loss(task, terms, AuxLossConfig(layer_reduction="mean"))[1]
        assert mean == (a + b) / 2
        assert total_loss(task, terms,
                          AuxLossConfig(layer_reduction="sum"))[1] == a + b


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_total_loss_is_bit_identical_to_the_generic_op_chain(reduction, layers):
    """The one op against the chain it replaced (layer adds, ``1 / layers``,
    ``lam``, the task add and the sum over members): the same loss and the
    same gradient bits in every input, with a constant (shut-gate) term."""
    cfg = AuxLossConfig(lam=0.0123, layer_reduction=reduction)
    rng = np.random.default_rng(12 + layers)
    values = [rng.random(3) for _ in range(layers + 1)]
    runs = []
    for fused in (True, False):
        leaves = [parameter(v.copy()) for v in values]
        terms = [leaf * 1.0 for leaf in leaves[1:]]
        if layers > 1:
            terms[-1] = Tensor(np.zeros(3))
        with Tape() as tape:
            task = leaves[0] * 1.0
            if fused:
                loss, aux = total_loss(task, terms, cfg)
            else:
                aux = terms[0]
                for term in terms[1:]:
                    aux = aux + term
                if reduction == "mean":
                    aux = aux * (1.0 / len(terms))
                loss = (task + cfg.lam * aux).sum()
                aux = aux.values
            tape.backward(loss)
        runs.append([loss.values, aux] + [leaf.grad for leaf in leaves
                                          if leaf.grad is not None])
    assert len(runs[0]) == len(runs[1])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


# -- config validation ----------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(lam=-1e-4),
    dict(theta_th=0.0),
    dict(theta_th=1.2),
    dict(layer_reduction="max"),
])
def test_aux_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        AuxLossConfig(**kwargs)


def test_default_aux_config_matches_documented_band():
    cfg = AuxLossConfig()
    assert cfg.lam == 1e-4
    assert cfg.theta_th == 0.3
    assert cfg.layer_reduction == "mean"
