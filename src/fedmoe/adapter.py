"""Sparse mixture-of-experts adapter: experts, router, top-K gating.

The adapter computes a residual correction to a frozen layer's output:
``out = backbone_out + sum_m w_m(x) * E_m(x)``.  In ``topk_softmax`` mode the
weights are a softmax over the K largest routing logits (others exactly
zero); in ``uniform_one`` mode every expert contributes with weight exactly 1,
which makes a linear adapter equal to a dense low-rank update ``B @ A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import AggregationError, ConfigurationError, DimensionError, UsageError
from .tensor import Tensor, parameter

GATING_MODES = ("topk_softmax", "uniform_one")
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


def topk_mask(logits: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries along the last axis.

    Ties are broken toward the lowest index: a stable argsort of the negated
    logits keeps earlier entries ahead of equal later ones.
    """
    order = np.argsort(-logits, axis=-1, kind="stable")
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


@dataclass
class RoutingStats:
    """Running per-expert activation tallies for a stretch of batches."""

    counts: np.ndarray
    prob_sums: np.ndarray
    tokens_seen: int = 0

    @classmethod
    def empty(cls, n_experts: int) -> "RoutingStats":
        return cls(counts=np.zeros(n_experts, dtype=np.int64),
                   prob_sums=np.zeros(n_experts, dtype=np.float64))

    def update(self, selected: np.ndarray, dense_probs: np.ndarray) -> None:
        self.counts += selected.sum(axis=0)
        self.prob_sums += dense_probs.sum(axis=0)
        self.tokens_seen += selected.shape[0]

    @property
    def mean_probs(self) -> np.ndarray:
        """Token-averaged dense routing distribution (the layer's P)."""
        if self.tokens_seen == 0:
            raise UsageError("no tokens recorded yet")
        return self.prob_sums / self.tokens_seen

    def reset(self) -> None:
        self.counts[:] = 0
        self.prob_sums[:] = 0.0
        self.tokens_seen = 0


class ExpertNetwork:
    """Two-layer feed-forward expert mapping R^d -> R^d through rank r_m."""

    def __init__(self, e1: Tensor, e2: Tensor, activation: str):
        self.E1 = e1   # [r, d]
        self.E2 = e2   # [d, r]
        self.activation = activation

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None,
                                              np.ndarray, np.ndarray]:
        """Apply the expert to a [tokens, d] array, values only.

        Returns the pre-activation ``h = x E1^T``, the GELU factor ``phi``
        (None for a linear expert), the activation ``a`` and the output
        ``y = a E2^T``; the mixture op's backward reads the first three.
        """
        h = x @ self.E1.values.T
        if self.activation == "gelu":
            phi, a = tz._gelu_values(h)
        else:
            phi, a = None, h
        return h, phi, a, a @ self.E2.values.T


class Router:
    """Learnable routing matrix; one logit row per expert."""

    def __init__(self, wr: Tensor):
        self.WR = wr

    def logits(self, x: Tensor) -> Tensor:
        return x @ self.WR.T


class MoEAdapter:
    """M experts plus a router, gated by top-K softmax or uniform weights."""

    def __init__(self, dim: int, ranks: list[int], k: int,
                 gating_mode: str = "topk_softmax", activation: str = "gelu",
                 rng: np.random.Generator | None = None):
        n_experts = len(ranks)
        if n_experts < 1:
            raise ConfigurationError("adapter needs at least one expert")
        if any(r < 1 for r in ranks):
            raise ConfigurationError(f"expert ranks must be positive, got {ranks}")
        if not 1 <= k <= n_experts:
            raise ConfigurationError(
                f"active expert count K={k} outside [1, {n_experts}]")
        if gating_mode not in GATING_MODES:
            raise ConfigurationError(f"unknown gating mode {gating_mode!r}")
        if activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown expert activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.n_experts = n_experts
        self.ranks = list(ranks)
        self.k = k
        self.gating_mode = gating_mode
        self.experts = [
            ExpertNetwork(
                parameter(rng.normal(0.0, EXPERT_INIT_STD, size=(r, dim))),
                parameter(np.zeros((dim, r))),
                activation,
            )
            for r in ranks
        ]
        self.router = Router(parameter(np.zeros((n_experts, dim))))
        self.stats = RoutingStats.empty(n_experts)
        self.collect_stats = False
        # Differentiable token-mean dense routing distribution of the most
        # recent forward; the auxiliary loss reads it inside the same tape.
        self.last_mean_probs: Tensor | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_lora(cls, a: Tensor, b: Tensor, ranks: list[int]) -> "MoEAdapter":
        """Split a LoRA pair (A [r, d], B [d, r]) into linear experts.

        Expert m takes the m-th row block of A and column block of B; with
        uniform unit gating the adapter's correction equals ``B @ A @ x``.
        """
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        r, d = a.shape
        if b.shape != (d, r):
            raise DimensionError(f"B shape {b.shape} does not pair with A {a.shape}")
        if sum(ranks) != r:
            raise ConfigurationError(f"ranks {ranks} do not sum to LoRA rank {r}")
        if r > d:
            raise ConfigurationError(f"LoRA rank {r} exceeds width {d}")
        adapter = cls(dim=d, ranks=ranks, k=len(ranks), gating_mode="uniform_one",
                      activation="linear")
        offset = 0
        for expert, rm in zip(adapter.experts, ranks):
            expert.E1.values[...] = a.values[offset:offset + rm, :]
            expert.E2.values[...] = b.values[:, offset:offset + rm]
            offset += rm
        return adapter

    # -- routing ---------------------------------------------------------------

    def _gate(self, logits: Tensor) -> tuple[Tensor, np.ndarray]:
        """Differentiable [tokens, M] weights plus the boolean selection."""
        if self.gating_mode == "uniform_one":
            selected = np.ones(logits.shape, dtype=bool)
            return Tensor(np.ones(logits.shape)), selected
        selected = topk_mask(logits.values, self.k)
        return tz.masked_softmax(logits, selected), selected

    # -- forward ----------------------------------------------------------------

    def forward(self, backbone_out: Tensor, x: Tensor) -> Tensor:
        """``backbone_out + sum_m w_m(x) * E_m(x)`` for [tokens, d] inputs."""
        single = x.ndim == 1
        if single:
            x = x.reshape(1, self.dim)
            backbone_out = backbone_out.reshape(1, self.dim)
        if x.ndim != 2 or x.shape[-1] != self.dim:
            raise DimensionError(f"adapter input shape {x.shape}, width {self.dim}")
        if backbone_out.shape != x.shape:
            raise DimensionError(
                f"backbone output {backbone_out.shape} != input {x.shape}")

        logits = self.router.logits(x)
        weights, selected = self._gate(logits)
        dense = tz.softmax(logits)
        self.last_mean_probs = dense.mean(axis=0)
        if self.collect_stats:
            self.stats.update(selected, dense.values)

        out = self._mix(backbone_out, x, weights)
        return out.reshape(self.dim) if single else out

    def _mix(self, backbone_out: Tensor, x: Tensor, weights: Tensor) -> Tensor:
        """``backbone_out + sum_m weights[:, m:m+1] * E_m(x)`` as one tape op.

        The forward adds the experts in index order; the backward walks them
        from M-1 down to 0.  Both do the arithmetic of the equivalent chain
        of per-expert ops in the same order and with the same operand
        layouts, so values and gradients are bit-identical to it.
        """
        xv, w = x.values, weights.values
        inputs = [backbone_out, x, weights]
        for expert in self.experts:
            inputs += (expert.E1, expert.E2)
        recording = tz._recording(inputs)
        parts = []  # per-expert (h, phi, a, y), kept only for the backward
        out = backbone_out.values.copy()
        for m, expert in enumerate(self.experts):
            part = expert.forward(xv)
            y = part[3]
            if recording:
                parts.append(part)
                out += w[:, m:m + 1] * y
            else:  # nothing reads y again, so weight it in place
                out += np.multiply(w[:, m:m + 1], y, out=y)
        if not recording:
            return Tensor(out)

        def back(g: np.ndarray) -> None:
            gw = np.zeros_like(w) if weights.requires_grad else None
            for m in reversed(range(self.n_experts)):
                e1, e2 = self.experts[m].E1, self.experts[m].E2
                h, phi, a, y = parts[m]
                if gw is not None:
                    gw[:, m:m + 1] = (g * y).sum(axis=1, keepdims=True)
                gy = g * w[:, m:m + 1]
                if x.requires_grad or e1.requires_grad:
                    gh = gy @ e2.values
                    if phi is not None:
                        gh = gh * tz._gelu_slope(h, phi)
                if e2.requires_grad:
                    tz._accumulate(e2, (a.T @ gy).T)
                if x.requires_grad:
                    tz._accumulate(x, gh @ e1.values)
                if e1.requires_grad:
                    tz._accumulate(e1, (xv.T @ gh).T)
            if gw is not None:
                tz._accumulate(weights, gw)
            if backbone_out.requires_grad:
                tz._accumulate(backbone_out, g)

        return tz._emit(out, inputs, back)

    # -- parameter exchange --------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        """Experts by index (E1 then E2), router last."""
        out: list[Tensor] = []
        for expert in self.experts:
            out.append(expert.E1)
            out.append(expert.E2)
        out.append(self.router.WR)
        return out

    def parameter_names(self) -> list[str]:
        names = []
        for m in range(self.n_experts):
            names.append(f"expert{m}.E1")
            names.append(f"expert{m}.E2")
        names.append("router.WR")
        return names

    def load_parameters(self, values: list[np.ndarray]) -> None:
        """Copy a flat parameter list into place (optimizer bindings survive)."""
        params = self.parameters()
        names = self.parameter_names()
        if len(values) != len(params):
            raise AggregationError(
                f"expected {len(params)} tensors, got {len(values)}")
        for i, (p, v, name) in enumerate(zip(params, values, names)):
            v = np.asarray(v, dtype=np.float64)
            if v.shape != p.values.shape:
                raise AggregationError(
                    f"parameter {i} ({name}): shape {v.shape} does not match "
                    f"{p.values.shape}")
            p.values[...] = v

    def expert_parameter_count(self) -> int:
        """Trainable entries in the experts alone (excludes the router)."""
        return sum(e.E1.values.size + e.E2.values.size for e in self.experts)

    def parameter_count(self) -> int:
        return sum(p.values.size for p in self.parameters())
