"""Sparse mixture-of-experts adapter: stacked experts, router, top-K gating.

The adapter computes a residual correction to a frozen layer's output:
``out = backbone_out + sum_m w_m(x) * E_m(x)``.  The gate, ``topk_softmax``,
weighs the experts by a softmax over the K largest routing logits; the
others get exactly zero.

The M experts live in two stacked tensors, ``E1 [G, M, r, d]`` and
``E2 [G, M, d, r]``, beside the router's ``WR [G, M, d]``: three parameters
per adapter, with the same per-client shapes on every client.

The experts share r, so the mixture is one block low-rank product,
``sum_m w_m E2_m act(E1_m x) = ((w (x) 1_r) * act(x E1cat^T)) @ E2cat`` with
``E1cat = E1.reshape(G, M*r, d)`` and ``E2cat`` the ``E2[:, m]^T`` stacked
to ``[G, M*r, d]``: the sum over experts runs inside the second product.
That moved values by about one ulp from the per-expert loop it replaced.

The leading member axis G is the one shape convention.  A new adapter is a
stack of one; clients that train in lock step load as a stack of G members,
with one budget K per member.  The inputs are ``[G, tokens, d]`` and every
matmul runs per member over that member's own tokens, so a member's values
and gradients are bit for bit those of the same client loaded alone.

``forward`` returns its routing with its output: the token mean of the
dense softmax, which the auxiliary loss reads, and the softmax and top-K
mask the expert-load counts read.  The adapter stores none of them; the
backbone keeps the books, and places parameters.  The router's matmul is
one op; one softmax gives the top-K weights and the token mean, one op
each.  The tests hold all three to the bits of the generic ops' chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor, parameter

GATING_MODES = ("topk_softmax",)
ACTIVATIONS = ("linear", "gelu")

EXPERT_INIT_STD = 0.02  # down-projections start small; up-projections start at 0


@dataclass(frozen=True)
class AdapterConfig:
    """The ``adapter.*`` section: M experts sharing one rank r.

    Every client's adapter has this structure, which is what lets their
    uploads be averaged; clients differ only in their budget K_n.
    """

    experts: int = 8
    rank: int = 2               # shared per-expert intermediate rank
    gating_mode: str = "topk_softmax"
    activation: str = "gelu"

    def __post_init__(self):
        if self.experts < 1:
            raise ConfigurationError("adapter.experts must be >= 1")
        if self.rank < 1:
            raise ConfigurationError("adapter.rank must be >= 1")
        if self.gating_mode not in GATING_MODES:
            raise ConfigurationError(
                f"adapter.gating_mode must be one of {GATING_MODES}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"adapter.activation must be one of {ACTIVATIONS}")


def topk_mask(logits: np.ndarray, k) -> np.ndarray:
    """Boolean mask of the k largest entries along the last axis: each
    entry's rank in its row against ``k``, an int or an array that
    broadcasts against the rows (one K per stacked member).

    Ties are broken toward the lowest index: a stable argsort of the negated
    logits keeps earlier entries ahead of equal later ones.  The ranks are
    that order's inverse permutation, its own argsort.
    """
    order = np.argsort(-logits, axis=-1, kind="stable")
    return np.argsort(order, axis=-1) < k


def _t(a: np.ndarray) -> np.ndarray:
    """The transposed view of each matrix in ``a`` (``a.T`` for a matrix)."""
    return np.swapaxes(a, -1, -2)


class ExpertNetwork:
    """The M two-layer experts R^d -> R^d of one adapter, as a stacked bank.

    Expert m maps through rank r with ``E1[:, m]`` and ``E2[:, m]``; a LoRA
    split with ragged ranks zero-pads each expert to the largest one.  As
    the experts share r, their down-projections fold into one product by
    ``E1cat``, which rounds differently from the per-expert loop it replaced.
    """

    def __init__(self, e1: Tensor, e2: Tensor, activation: str):
        self.E1 = e1   # [G, M, r, d]
        self.E2 = e2   # [G, M, d, r]
        self.activation = activation

    def forward(self, x: np.ndarray) -> tuple[
            np.ndarray, np.ndarray | None, np.ndarray]:
        """``h = x E1cat^T`` [G, tokens, M*r] for a [G, tokens, d] array
        (column block m is expert m's), the GELU factor ``phi`` (None for a
        linear expert) and the activation ``a``; values only."""
        e1 = self.E1.values
        h = x @ _t(e1.reshape(e1.shape[0], -1, e1.shape[-1]))
        if self.activation == "gelu":
            phi, a = tz._gelu_values(h)
        else:
            phi, a = None, h
        return h, phi, a


class MoEAdapter:
    """M stacked experts plus a router ``WR [G, M, d]``, gated by top-K
    softmax; built as a stack of one.  ``k`` is the budget, always
    ``[G, 1, 1]`` int64 (one K per member, or one K for them all), set by
    :meth:`set_budget`; a new adapter routes to all M."""

    def __init__(self, dim: int, cfg: AdapterConfig,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.n_experts = cfg.experts
        m, r = cfg.experts, cfg.rank
        self.E1 = parameter(rng.normal(0.0, EXPERT_INIT_STD,
                                       size=(1, m, r, dim)))
        self.E2 = parameter(np.zeros((1, m, dim, r)))
        self.WR = parameter(np.zeros((1, m, dim)))
        self.experts = ExpertNetwork(self.E1, self.E2, cfg.activation)
        self.set_budget(cfg.experts)

    # -- routing ---------------------------------------------------------------

    def set_budget(self, k) -> None:
        """The budget: one K per loaded member, or one K for them all, each
        an integer in [1, M]; a rejected budget leaves the old one in place."""
        k = np.reshape(k, (-1, 1, 1))  # against [G, tokens, M] ranks
        members = self.WR.shape[0]
        if len(k) not in (1, members):
            raise ConfigurationError(
                f"{len(k)} budgets given for a stack of {members}")
        bad = ~((k >= 1) & (k <= self.n_experts) & (k % 1 == 0))
        if bad.any():
            i = int(np.argmax(bad.ravel()))
            raise ConfigurationError(
                f"member {i}: budget K = {k.ravel()[i]} is not an integer in "
                f"[1, {self.n_experts}]")
        self.k = k.astype(np.int64)

    def _gate(self, logits: Tensor) -> tuple[
            Tensor, Tensor, np.ndarray, np.ndarray]:
        """``(weights, probs, dense, selected)`` of [G, tokens, M] logits
        from one ``e = exp(z - max z)``: the top-K weights, ``e`` on the
        selected experts renormalized, and the [G, M] token mean of the
        dense ``e / sum(e)``, one op each; the dense values; the mask.
        The row maximum is always selected, so the tests hold both ops to
        the bits of ``masked_softmax`` and ``tmean(softmax)``."""
        z = logits.values
        selected = topk_mask(z, self.k)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        top = np.where(selected, e, 0.0)
        weights = top / top.sum(axis=-1, keepdims=True)
        dense = e / e.sum(axis=-1, keepdims=True)
        tokens = z.shape[-2]

        def back_weights(g: np.ndarray) -> None:
            tz._accumulate(logits, tz._softmax_back(g, weights))

        def back_probs(g: np.ndarray) -> None:
            tz._accumulate(logits, tz._softmax_back(
                np.expand_dims(g, -2) / tokens, dense))

        return (tz._emit(weights, (logits,), back_weights),
                tz._emit(np.add.reduce(dense, axis=-2) / tokens, (logits,),
                         back_probs),
                dense, selected)

    def _route(self, x: Tensor) -> Tensor:
        """The routing logits ``x @ WR^T`` [G, tokens, M] as one op.  Its
        backward adds into ``x``, then ``WR``, with the bits of the
        transpose and matmul ops it replaced."""
        wr = self.WR
        out = x.values @ _t(wr.values)

        def back(g: np.ndarray) -> None:
            if x.requires_grad:
                tz._accumulate(x, g @ wr.values)
            if wr.requires_grad:
                tz._accumulate(wr, _t(_t(x.values) @ g))

        return tz._emit(out, (x, wr), back)

    # -- forward ----------------------------------------------------------------

    def forward(self, backbone_out: Tensor, x: Tensor) -> tuple[
            Tensor, Tensor, np.ndarray, np.ndarray]:
        """``backbone_out + sum_m w_m(x) * E_m(x)`` for [G, tokens, d]
        inputs, member g's tokens against member g's parameters.

        Returns ``(out, probs, dense, selected)``: the output, the
        differentiable [G, M] token mean of the routing logits' dense
        softmax, that softmax's [G, tokens, M] values, and the boolean
        [G, tokens, M] mask of the experts the gate selected.  The adapter
        keeps no record of the call; the caller keeps the books.
        """
        members = self.WR.shape[0]
        if x.ndim != 3 or x.shape[0] != members or x.shape[-1] != self.dim:
            raise DimensionError(f"adapter input shape {x.shape}, width "
                                 f"{self.dim}, members {members}")
        if backbone_out.shape != x.shape:
            raise DimensionError(
                f"backbone output {backbone_out.shape} != input {x.shape}")

        weights, probs, dense, selected = self._gate(self._route(x))
        return self._mix(backbone_out, x, weights), probs, dense, selected

    def _mix(self, backbone_out: Tensor, x: Tensor, weights: Tensor) -> Tensor:
        """``backbone_out + sum_m weights[..., m:m+1] * E_m(x)`` as one op.

        The experts fold into two products: ``a`` from
        ``ExpertNetwork.forward``, weighted per expert as
        ``aw = a.reshape(G, tokens, M, r) * w[..., None]``, then
        ``aw @ E2cat``.  Values and gradients are bit-identical to the chain
        of tape ops for that formula, and differ by rounding only from the
        per-expert loop it replaced, which summed the experts one by one.
        """
        xv, w = x.values, weights.values
        e1, e2 = self.E1, self.E2
        members, m, d, r = e2.shape
        h, phi, a = self.experts.forward(xv)
        a4 = a.reshape(*a.shape[:-1], m, r)
        aw = (a4 * w[..., None]).reshape(a.shape)
        e2cat = _t(e2.values).reshape(members, m * r, d)
        out = aw @ e2cat
        out += backbone_out.values
        inputs = [backbone_out, x, weights, e1, e2]

        def back(g: np.ndarray) -> None:
            if backbone_out.requires_grad:
                tz._accumulate(backbone_out, g)
            gaw = (g @ _t(e2cat)).reshape(a4.shape)
            if e2.requires_grad:
                tz._accumulate(e2, _t((_t(aw) @ g).reshape(members, m, r, d)))
            if weights.requires_grad:
                tz._accumulate(weights, (gaw * a4).sum(axis=-1))
            gh = (gaw * w[..., None]).reshape(a.shape)
            if phi is not None:
                gh = gh * tz._gelu_slope(h, phi)
            if x.requires_grad:
                tz._accumulate(x, gh @ e1.values.reshape(members, m * r, d))
            if e1.requires_grad:
                tz._accumulate(e1, _t(_t(xv) @ gh).reshape(e1.shape))

        return tz._emit(out, inputs, back)

    # -- parameter exchange --------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        """The stacked experts (E1 then E2), router last."""
        return [self.E1, self.E2, self.WR]

    def parameter_names(self) -> list[str]:
        return ["experts.E1", "experts.E2", "router.WR"]
