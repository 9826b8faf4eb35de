"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every forward pass runs inside an active :class:`Tape`, which records one
backward closure per produced tensor.  ``tape.backward(loss)`` replays the
tape in reverse and accumulates gradients into every reachable tensor whose
``requires_grad`` flag is set.  Values are always ``numpy`` arrays of dtype
float64; there is no other precision in the package.

A tensor refers to its tape only weakly, so a step's tape, activations and
backward closures form no cycle and are freed with the last name for the tape.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import DimensionError, InputError, UsageError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Stack of active tapes; ops record onto the innermost one.  Empty stack means
# evaluation mode: ops run on values only and produce constant tensors.
_TAPES: list["Tape"] = []


class Tensor:
    """A numpy float64 array plus an accumulated gradient."""

    __slots__ = ("values", "grad", "requires_grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: weakref.ref[Tape] | None = None

    @property
    def tape(self) -> Tape | None:
        """The live tape that recorded this tensor, or None."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise UsageError("tensor/tensor division is not supported")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self):
        return tsum(self)

    def mean(self, axis: int | None = None):
        return tmean(self, axis)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, axes: tuple[int, ...] | None = None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self)


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


class Tape:
    """Ordered record of one forward pass.

    Use as a context manager around the forward computation, then call
    ``tape.backward(loss)`` on the scalar loss it produced.  A tape may be
    replayed backward more than once; produced-tensor gradients are reset at
    the start of every replay while leaf gradients accumulate across replays.
    """

    __slots__ = ("_ops", "__weakref__")

    def __init__(self):
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        if popped is not self:  # pragma: no cover - guards interleaved misuse
            raise UsageError("tape context exited out of order")

    def _record(self, out: Tensor, back: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, back))

    def backward(self, loss: Tensor) -> None:
        if loss.values.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.tape is not self:
            raise UsageError("loss was not produced under this tape")
        for out, _ in self._ops:
            out.grad = None
        loss.grad = np.ones_like(loss.values)
        for out, back in reversed(self._ops):
            if out.grad is not None:
                back(out.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and some
    input requires grad."""
    return bool(_TAPES) and any(t.requires_grad for t in inputs)


def _emit(values: np.ndarray, inputs: Sequence[Tensor],
          back: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``values`` in a Tensor, recording ``back`` if a tape is active."""
    if _recording(inputs):
        out = Tensor(values, requires_grad=True)
        tape = _TAPES[-1]
        out._tape = weakref.ref(tape)
        tape._record(out, back)
        return out
    return Tensor(values)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _as_pair(a, b) -> tuple[Tensor, Tensor]:
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=np.float64))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=np.float64))
    return a, b


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    try:
        values = a.values + b.values
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _emit(values, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    try:
        values = a.values - b.values
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _emit(values, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    try:
        values = a.values * b.values
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _emit(values, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_pair(a, b)
    if a.ndim < 1 or b.ndim < 2:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} unsupported")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    values = a.values @ b.values

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = g @ np.swapaxes(b.values, -1, -2)
            _accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.values, -1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _emit(values, (a, b), back)


# -- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    try:
        values = a.values.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {old} as {shape}")

    def back(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(old))

    return _emit(values, (a,), back)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    values = np.transpose(a.values, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def back(g: np.ndarray) -> None:
        _accumulate(a, np.transpose(g, inverse))

    return _emit(values, (a,), back)


def take(a: Tensor, key) -> Tensor:
    """Basic indexing/slicing; gradient is scatter-added back."""
    values = a.values[key]

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            buf = np.zeros_like(a.values)
            np.add.at(buf, key, g)
            _accumulate(a, buf)

    return _emit(values, (a,), back)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor) -> Tensor:
    values = a.values.sum()

    def back(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _emit(values, (a,), back)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    values = a.values.mean(axis=axis)
    if axis is None:
        count = a.values.size
    else:
        count = a.shape[axis]

    def back(g: np.ndarray) -> None:
        if axis is None:
            ga = np.broadcast_to(g / count, a.shape).copy()
        else:
            ga = np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy()
        _accumulate(a, ga)

    return _emit(values, (a,), back)


# -- nonlinearities ----------------------------------------------------------


def _gelu_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (erf-based) GELU of an array: its factor ``phi`` and ``x * phi``."""
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return phi, x * phi


def _gelu_slope(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Derivative of GELU at ``x``, given the factor ``phi`` of its forward."""
    return phi + x * _INV_SQRT2PI * np.exp(-0.5 * x * x)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.values
    phi, values = _gelu_values(x)

    def back(g: np.ndarray) -> None:
        _accumulate(a, g * _gelu_slope(x, phi))

    return _emit(values, (a,), back)


def _softmax_values(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of an array over its last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_back(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of softmax with respect to its logits, given the output
    gradient ``g`` and the output ``y`` of its forward."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    y = _softmax_values(a.values)

    def back(g: np.ndarray) -> None:
        _accumulate(a, _softmax_back(g, y))

    return _emit(y, (a,), back)


def masked_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to ``mask``; excluded entries
    are exactly zero in the output and receive exactly zero gradient.

    Equivalent to setting excluded logits to -inf before a softmax.  Every
    row must select at least one entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise DimensionError(
            f"masked_softmax: mask shape {mask.shape} != logits shape {a.shape}")
    if not mask.any(axis=-1).all():
        raise InputError("masked_softmax: a row selects no entries")
    return _masked_softmax(a, mask)


def _masked_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """:func:`masked_softmax` for a boolean ``mask`` already known to fit
    ``a`` and to select in every row, such as a top-K mask."""
    z = np.where(mask, a.values, -np.inf)
    m = z.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(a.values - m), 0.0)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> None:
        _accumulate(a, _softmax_back(g, y))

    return _emit(y, (a,), back)


def _layer_norm_values(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Layer norm of an array over its last axis: the output, the normalized
    input ``xhat`` and the inverse deviation ``inv`` its backward reads.
    Its means are ``np.add.reduce(...) / d``, the bits of ``.mean`` without
    its Python."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_back(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                     inv: np.ndarray) -> np.ndarray:
    """Gradient of layer norm with respect to its input, given the output
    gradient ``g`` and the ``xhat`` and ``inv`` of its forward."""
    d = g.shape[-1]
    gx = g * gain
    term = gx - np.add.reduce(gx, axis=-1, keepdims=True) / d \
        - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d)
    return term * inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learnable gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match feature dim {d}")
    values, xhat, inv = _layer_norm_values(a.values, gain.values, bias.values,
                                           eps)

    def back(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            _accumulate(a, _layer_norm_back(g, gain.values, xhat, inv))

    return _emit(values, (a, gain, bias), back)


# -- losses ------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits`` [batch, C];
    a stack [G, batch, C] with labels [G, batch] gives one mean per member."""
    if logits.ndim < 2:
        raise DimensionError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise DimensionError(
            f"cross_entropy: {labels.shape} labels for logits {logits.shape}")
    n, c = logits.shape[-2:]
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"cross_entropy: labels outside [0, {c})")
    at = labels[..., None]
    z = logits.values
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    values = np.asarray(
        (lse - np.take_along_axis(z, at, axis=-1))[..., 0].mean(axis=-1))

    def back(g: np.ndarray) -> None:
        p = np.exp(z - lse)
        np.put_along_axis(p, at, np.take_along_axis(p, at, axis=-1) - 1.0,
                          axis=-1)
        _accumulate(logits, g[..., None, None] * p / n)

    return _emit(values, (logits,), back)


def rel_entropy(p: Tensor, q: np.ndarray) -> Tensor:
    """KL(p || q) for a probability vector ``p`` and constant target ``q``;
    for rows ``p`` [G, M] and a target [M], one KL per row.

    The value is non-negative: round-off in the termwise sum that lands
    below zero (p one ulp from q, say) is clamped to exactly 0.  The
    gradient is the plain ``log(p/q) + 1`` on the support of ``p`` and does
    not see the clamp.  Zero entries of ``p`` contribute exactly zero
    (0 log 0 = 0) and receive zero gradient.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape not in (p.shape, p.shape[-1:]):
        raise DimensionError(f"rel_entropy: shapes {p.shape} vs {q.shape}")
    if (q <= 0.0).any():
        raise InputError("rel_entropy: target distribution has a zero entry")
    pv = p.values
    pos = pv > 0.0
    ratio = np.where(pos, pv / q, 1.0)
    kl = np.where(pos, pv * np.log(ratio), 0.0).sum(axis=-1)
    values = np.where(kl < 0.0, 0.0, kl)

    def back(g: np.ndarray) -> None:
        _accumulate(p, g[..., None] * np.where(pos, np.log(ratio) + 1.0, 0.0))

    return _emit(values, (p,), back)


# -- optimizer ---------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with decoupled weight decay, as an update rule over rows.

    The optimizer holds no state: :meth:`step` updates ``[G, P]`` parameter
    rows ``theta`` and moment rows ``m`` and ``v`` in place from gradient
    rows ``grad``, and adds one to each row's step count in ``t`` [G].  Every
    update is elementwise and each row gets its own bias correction, so each
    row gets the bits of its own Adam.  The decay step ``theta -= lr * wd *
    theta`` is applied outside the moment estimates, so a row with zero
    gradient still shrinks by exactly ``lr * wd`` per step.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, theta: np.ndarray, grad: np.ndarray, m: np.ndarray,
             v: np.ndarray, t: np.ndarray) -> None:
        """One update of every row; a ``t`` of the wrong length raises
        before anything changes."""
        if len(t) != len(theta):
            raise DimensionError(f"Adam.step: {len(t)} step counts for "
                                 f"{len(theta)} parameter rows")
        t += 1
        b1t = np.array([[1.0 - BETA1 ** int(n)] for n in t])
        b2t = np.array([[1.0 - BETA2 ** int(n)] for n in t])
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * (grad * grad)
        if self.weight_decay:
            theta -= self.lr * self.weight_decay * theta
        theta -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
