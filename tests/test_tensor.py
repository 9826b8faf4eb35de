import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import tensor as tz
from fedmoe.errors import DimensionError, InputError, UsageError
from fedmoe.tensor import Adam, Tape, Tensor, parameter

from oracles import (adam_single_step, cross_entropy_direct,
                     finite_difference_grads, kl_direct, softmax_direct)


def check_grads_against_fd(build, arrays, rtol=1e-6, atol=1e-8):
    """Compare tape gradients of ``build(tensors)`` against central FD."""
    leaves = [parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = build(leaves)
    tape.backward(loss)

    def f(arrs):
        return build([Tensor(a) for a in arrs]).item()

    want = finite_difference_grads(f, [a.copy() for a in arrays])
    for leaf, fd in zip(leaves, want):
        np.testing.assert_allclose(leaf.grad, fd, rtol=rtol, atol=atol)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal((a @ b).values, b.values)


def test_matmul_hand_case():
    out = Tensor(np.array([[1.0, 2.0]])) @ Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.values, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"3, 4.*5, 2"):
        tz.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))


def test_matmul_grad_matches_fd():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=(4, 2))
    check_grads_against_fd(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_logits():
    out = tz.softmax(Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.values, 0.25, rtol=0, atol=1e-15)


def test_softmax_is_stable_for_huge_logits():
    out = tz.softmax(Tensor(np.array([1000.0, 0.0])))
    assert np.isfinite(out.values).all()
    np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)


def test_softmax_matches_direct_evaluation():
    got = tz.softmax(Tensor(np.array([2.0, 1.0, 0.0]))).values
    np.testing.assert_allclose(got, softmax_direct([2.0, 1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(got, [0.6652, 0.2447, 0.0900], atol=1e-4)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16),
       st.floats(-50, 50))
def test_softmax_sums_to_one_and_is_shift_invariant(logits, shift):
    x = np.array(logits)
    y = tz.softmax(Tensor(x)).values
    assert abs(y.sum() - 1.0) <= 1e-12
    y_shifted = tz.softmax(Tensor(x + shift)).values
    np.testing.assert_allclose(y_shifted, y, rtol=0, atol=1e-12)


def test_softmax_grad_matches_fd():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(5, 7))
    w = rng.uniform(-1, 1, size=(5, 7))  # weights make the reduction non-trivial
    check_grads_against_fd(lambda ts: tz.mul(tz.softmax(ts[0]), w).sum(), [x])


def test_masked_softmax_zeros_and_renormalizes():
    x = Tensor(np.array([[2.0, 1.0, 0.0, -1.0]]))
    mask = np.array([[True, True, False, False]])
    y = tz.masked_softmax(x, mask).values[0]
    assert y[2] == 0.0 and y[3] == 0.0
    np.testing.assert_allclose(y[:2], softmax_direct([2.0, 1.0]), atol=1e-12)


def test_masked_softmax_grad_matches_fd_and_is_zero_when_excluded():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(4, 6))
    mask = rng.uniform(size=(4, 6)) < 0.5
    mask[:, 0] = True  # every row keeps at least one entry
    w = rng.uniform(-1, 1, size=(4, 6))
    check_grads_against_fd(
        lambda ts: tz.mul(tz.masked_softmax(ts[0], mask), w).sum(), [x])
    leaf = parameter(x)
    with Tape() as tape:
        loss = tz.mul(tz.masked_softmax(leaf, mask), w).sum()
    tape.backward(loss)
    assert (leaf.grad[~mask] == 0.0).all()


def test_masked_softmax_rejects_empty_row():
    with pytest.raises(InputError):
        tz.masked_softmax(Tensor(np.zeros((2, 3))),
                          np.array([[True, False, False],
                                    [False, False, False]]))


# -- cross entropy -------------------------------------------------------------


def test_cross_entropy_uniform_prediction():
    loss = tz.cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
    assert abs(loss.item() - math.log(4.0)) < 1e-12


def test_cross_entropy_large_margin_goes_to_zero():
    logits = Tensor(np.array([[1000.0, 0.0, 0.0]]))
    assert tz.cross_entropy(logits, np.array([0])).item() < 1e-9


def test_cross_entropy_matches_direct_summation():
    logits = np.array([[0.3, -1.2, 2.0], [1.5, 1.5, -0.5]])
    labels = np.array([2, 0])
    got = tz.cross_entropy(Tensor(logits), labels).item()
    assert abs(got - cross_entropy_direct(logits, labels)) < 1e-9


def test_cross_entropy_rejects_out_of_range_labels():
    with pytest.raises(InputError):
        tz.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(3)
    z = rng.uniform(-1, 1, size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    check_grads_against_fd(lambda ts: tz.cross_entropy(ts[0], labels), [z])


# -- relative entropy -----------------------------------------------------------


def test_rel_entropy_matches_direct_sum():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    q = np.full(4, 0.25)
    got = tz.rel_entropy(Tensor(p), q).item()
    assert abs(got - kl_direct(p, q)) < 1e-12
    assert abs(got - 0.1733) < 1e-4


def test_rel_entropy_zero_entries_contribute_nothing():
    p = parameter(np.array([0.5, 0.5, 0.0, 0.0]))
    q = np.full(4, 0.25)
    with Tape() as tape:
        loss = tz.rel_entropy(p, q)
    tape.backward(loss)
    assert abs(loss.item() - math.log(2.0)) < 1e-12
    assert p.grad[2] == 0.0 and p.grad[3] == 0.0


def test_rel_entropy_identical_distributions_is_zero():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert tz.rel_entropy(Tensor(p), p.copy()).item() == 0.0


def test_rel_entropy_round_off_clamps_value_not_gradient():
    p = parameter(np.array([0.3] * 5) / 1.5)  # one ulp from uniform
    q = np.full(5, 0.2)
    assert (p.values * np.log(p.values / q)).sum() < 0.0
    with Tape() as tape:
        loss = tz.rel_entropy(p, q)
    tape.backward(loss)
    assert loss.item() == 0.0
    np.testing.assert_array_equal(p.grad, np.log(p.values / q) + 1.0)


def test_rel_entropy_grad_matches_fd():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    check_grads_against_fd(lambda ts: tz.rel_entropy(ts[0], q), [p])


def test_rel_entropy_rejects_zero_target():
    with pytest.raises(InputError):
        tz.rel_entropy(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]))


# -- backward machinery ----------------------------------------------------------


def test_backward_of_sum_is_all_ones():
    x = parameter(np.arange(12.0).reshape(3, 4))
    with Tape() as tape:
        loss = x.sum()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = parameter(np.array(3.0))
    with Tape() as tape:
        loss = x * x
    tape.backward(loss)
    assert abs(float(x.grad) - 6.0) < 1e-12


def test_backward_twice_accumulates_into_leaves():
    x = parameter(np.array([1.0, 2.0]))
    with Tape() as tape:
        loss = (x * x).sum()
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_backward_rejects_non_scalar():
    x = parameter(np.ones(3))
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(UsageError):
        tape.backward(y)


def test_backward_requires_a_tape():
    with Tape() as tape:
        pass
    with pytest.raises(UsageError, match="not produced under this tape"):
        tape.backward(Tensor(np.array(1.0)) * 1.0)


def test_shared_parameter_accumulates_both_uses():
    rng = np.random.default_rng(4)
    w = rng.uniform(-1, 1, size=(3, 3))
    x = rng.uniform(-1, 1, size=(3, 2))

    def build(ts):
        # w appears twice on the tape: once squared, once linear
        return (ts[0] @ (ts[0] @ Tensor(x))).sum() + (ts[0] @ Tensor(x)).sum()

    check_grads_against_fd(build, [w])


def test_frozen_tensors_get_no_grad():
    frozen = Tensor(np.ones((2, 2)))
    x = parameter(np.ones((2, 2)))
    with Tape() as tape:
        loss = (frozen @ x).sum()
    tape.backward(loss)
    assert frozen.grad is None
    assert x.grad is not None


def test_ops_outside_tape_produce_constants():
    x = parameter(np.ones(3))
    y = x * 2.0
    assert not y.requires_grad and y.tape is None


# -- remaining differentiable ops vs finite differences ---------------------------


def test_gelu_known_values():
    x = np.array([0.0, 100.0, -100.0])
    y = tz.gelu(Tensor(x)).values
    np.testing.assert_allclose(y, [0.0, 100.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name,build,shapes", [
    ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (4,)]),
    ("sub", lambda ts: (ts[0] - ts[1]).sum(), [(2, 5), (2, 5)]),
    ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(4, 3), (4, 3)]),
    ("scalar_mul", lambda ts: (ts[0] * 2.5).sum(), [(3, 3)]),
    ("neg", lambda ts: (-ts[0]).sum(), [(4,)]),
    ("batched_matmul", lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (4, 5)]),
    ("reshape", lambda ts: (ts[0].reshape(6, 2) @ ts[1]).sum(), [(3, 4), (2, 3)]),
    ("transpose", lambda ts: (ts[0].T @ ts[1]).sum(), [(4, 3), (4, 2)]),
    ("take_rows", lambda ts: (ts[0][1:3] * ts[0][0:2]).sum(), [(5, 4)]),
    ("take_column", lambda ts: (ts[0][:, 2:3] * ts[1]).sum(), [(4, 5), (4, 1)]),
    ("mean_all", lambda ts: ts[0].mean(), [(3, 7)]),
    ("mean_axis0", lambda ts: (ts[0].mean(axis=0) * ts[1]).sum(), [(6, 4), (4,)]),
    ("mean_axis1", lambda ts: (ts[0].mean(axis=1) * ts[1]).sum(), [(3, 5), (3,)]),
    ("gelu", lambda ts: (tz.gelu(ts[0]) * ts[1]).sum(), [(4, 4), (4, 4)]),
])
def test_op_grad_matches_fd(name, build, shapes):
    rng = np.random.default_rng(abs(hash(name)) % 2 ** 32)
    arrays = [rng.uniform(-1, 1, size=s) for s in shapes]
    check_grads_against_fd(build, arrays)


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(6, 16)) * 3.0 + 1.0)
    gain = Tensor(np.ones(16))
    bias = Tensor(np.zeros(16))
    y = tz.layer_norm(x, gain, bias).values
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_grad_matches_fd():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(3, 8))
    gain = rng.uniform(0.5, 1.5, size=8)
    bias = rng.uniform(-0.5, 0.5, size=8)
    w = rng.uniform(-1, 1, size=(3, 8))
    check_grads_against_fd(
        lambda ts: tz.mul(tz.layer_norm(ts[0], ts[1], ts[2]), w).sum(),
        [x, gain, bias], rtol=1e-5, atol=1e-7)


def test_layer_norm_rejects_mismatched_gain():
    with pytest.raises(DimensionError):
        tz.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)),
                      Tensor(np.zeros(4)))


# -- optimizer --------------------------------------------------------------------


def adam_rows(values):
    """``[G, P]`` parameter rows with zero moments and step counts."""
    theta = np.array(values, dtype=np.float64)
    return theta, np.zeros_like(theta), np.zeros_like(theta), \
        np.zeros(len(theta), dtype=np.int64)


def test_adam_zero_lr_leaves_parameters_unchanged():
    theta, m, v, t = adam_rows([[1.0, -2.0, 3.0]])
    Adam(lr=0.0, weight_decay=0.01).step(theta, np.full((1, 3), 0.5), m, v, t)
    np.testing.assert_array_equal(theta, [[1.0, -2.0, 3.0]])


def test_adam_single_step_matches_hand_formula():
    theta, m, v, t = adam_rows([[1.0]])
    Adam(lr=0.1).step(theta, np.array([[0.5]]), m, v, t)
    want, _, _, _ = adam_single_step(1.0, 0.5, lr=0.1)
    assert abs(float(theta[0, 0]) - want) < 1e-12


def test_adam_three_steps_match_hand_formula():
    rows = adam_rows([[-0.7]])
    opt = Adam(lr=3e-4, weight_decay=0.01)
    theta, m, v, t = -0.7, 0.0, 0.0, 0
    for grad in (0.3, -0.1, 0.02):
        opt.step(rows[0], np.array([[grad]]), *rows[1:])
        theta, m, v, t = adam_single_step(theta, grad, lr=3e-4,
                                          weight_decay=0.01, m=m, v=v, t=t)
        assert abs(float(rows[0][0, 0]) - theta) < 1e-12


def test_adam_decay_only_shrinks_by_lr_wd():
    theta, m, v, t = adam_rows([[2.0, -4.0]])
    opt = Adam(lr=0.1, weight_decay=0.01)
    opt.step(theta, np.zeros((1, 2)), m, v, t)
    np.testing.assert_allclose(theta, np.array([[2.0, -4.0]]) * (1 - 0.1 * 0.01),
                               rtol=0, atol=1e-15)
    opt.step(theta, np.zeros((1, 2)), m, v, t)
    np.testing.assert_allclose(theta,
                               np.array([[2.0, -4.0]]) * (1 - 0.1 * 0.01) ** 2,
                               rtol=0, atol=1e-15)


def test_adam_rows_of_a_stack_step_bit_for_bit_as_one_row_steps():
    """Each row of a ``[3, P]`` stack, with its own step count, gets the
    bits of a one-row step from the same state."""
    rng = np.random.default_rng(31)
    theta, grad, m = (rng.normal(size=(3, 5)) for _ in range(3))
    v = rng.random((3, 5))
    t = np.array([0, 4, 9])
    alone = [[a[g:g + 1].copy() for a in (theta, grad, m, v, t)]
             for g in range(3)]
    opt = Adam(lr=0.05, weight_decay=0.1)
    opt.step(theta, grad, m, v, t)
    for g, (theta_g, grad_g, m_g, v_g, t_g) in enumerate(alone):
        opt.step(theta_g, grad_g, m_g, v_g, t_g)
        for stacked, one in ((theta, theta_g), (m, m_g), (v, v_g), (t, t_g)):
            np.testing.assert_array_equal(stacked[g:g + 1], one)


def test_adam_step_counts_of_the_wrong_length_raise_and_change_nothing():
    rng = np.random.default_rng(32)
    arrays = [rng.normal(size=(3, 4)) for _ in range(4)]
    t = np.array([2])
    before = [a.copy() for a in arrays] + [t.copy()]
    theta, grad, m, v = arrays
    with pytest.raises(DimensionError, match="1 step counts for 3 parameter rows"):
        Adam(lr=0.1).step(theta, grad, m, v, t)
    for got, want in zip(arrays + [t], before):
        np.testing.assert_array_equal(got, want)
