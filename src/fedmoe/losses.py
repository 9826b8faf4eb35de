"""Task loss plus the thresholded load-balancing penalty.

Each adapter layer yields a batch-mean routing distribution P.  When that
distribution concentrates past a threshold (its max entry reaching
``theta_th``), the layer contributes KL(P || uniform) to an auxiliary term
that pushes routing back toward balance; below the threshold the layer
contributes exactly zero.  Clients that train as a stack give one P per
member, as rows, and every term is then per member.  The total objective is
``task + lam * aux``, with ``aux`` the per-layer terms' sum or mean, summed
over members by :func:`total_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigurationError, InputError, UsageError
from .tensor import Tensor

LAYER_REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class AuxLossConfig:
    """Auxiliary-loss knobs: weight, activation threshold, layer reduction."""

    lam: float = 1e-4
    theta_th: float = 0.3
    layer_reduction: str = "mean"

    def __post_init__(self):
        if self.lam < 0.0:
            raise ConfigurationError(f"aux.lambda must be >= 0, got {self.lam}")
        if not 0.0 < self.theta_th <= 1.0:
            raise ConfigurationError(
                f"aux.theta_th must lie in (0, 1], got {self.theta_th}")
        if self.layer_reduction not in LAYER_REDUCTIONS:
            raise ConfigurationError(
                f"aux.layer_reduction must be one of {LAYER_REDUCTIONS}, "
                f"got {self.layer_reduction!r}")


def uniform_target(n_experts: int) -> np.ndarray:
    """The balanced routing target: 1/M per expert."""
    if n_experts < 1:
        raise ConfigurationError("need at least one expert")
    return np.full(n_experts, 1.0 / n_experts)


def _check_distribution(name: str, values: np.ndarray) -> None:
    """A probability vector, or rows of them ([G, M], one per member)."""
    if values.ndim not in (1, 2):
        raise InputError(f"{name} must be a vector or rows of vectors, got "
                         f"shape {values.shape}")
    if (values < 0.0).any():
        raise InputError(f"{name} has negative entries")
    sums = values.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-6
    if off.any():
        raise InputError(f"{name} sums to {sums[off].flat[0]:.8f}, not 1")


def kl_divergence(p_local, p_global) -> Tensor:
    """KL(P_l || P_g) with 0 log 0 = 0; differentiable in P_l.

    ``p_local`` may be a Tensor on the active tape, and may hold one
    distribution per row, giving one KL per row; ``p_global`` is a vector
    treated as a constant and must be strictly positive.  The value is
    non-negative, with round-off below zero clamped to exactly 0; the
    gradient is the plain ``log(P_l / P_g) + 1`` on the support of P_l.
    """
    p = p_local if isinstance(p_local, Tensor) else Tensor(p_local)
    q = p_global.values if isinstance(p_global, Tensor) else np.asarray(
        p_global, dtype=np.float64)
    _check_distribution("P_l", p.values)
    _check_distribution("P_g", q)
    return tz.rel_entropy(p, q)  # rejects a P_g with a zero entry


def aux_loss_layer(p_local, cfg: AuxLossConfig) -> Tensor:
    """One layer's auxiliary term: KL to uniform if the gate fires, else 0.

    The gate compares theta = max(P_l) against cfg.theta_th on values only;
    gradients flow through the KL term, never through the gate itself.
    Given rows [G, M] (one per stacked member), each row has its own gate
    and term: a row whose gate stays shut is exactly 0, with zero gradient.
    """
    p = p_local if isinstance(p_local, Tensor) else Tensor(p_local)
    _check_distribution("P_l", p.values)
    fires = ~(p.values.max(axis=-1) < cfg.theta_th)
    if not fires.any():
        return Tensor(np.zeros(fires.shape))
    kl = kl_divergence(p, uniform_target(p.shape[-1]))
    return kl if fires.all() else kl * fires


def total_loss(task: Tensor, aux_terms: list[Tensor], cfg: AuxLossConfig
               ) -> tuple[Tensor, np.ndarray]:
    """The scalar a step differentiates, ``sum_g task_g + lam * aux_g``, as
    one op, and ``aux``: the per-layer terms combined by
    ``cfg.layer_reduction``, their sum or their mean (the sum times
    ``1 / layers``), one value per member.  At lam = 0 the loss is the sum
    of ``task``, ``aux`` is zero and no terms are read.

    Values and gradients have the bits of the chain of generic ops the op
    replaced: the layer adds, the ``1 / layers`` and ``lam`` products, the
    ``task`` add and the sum over members.
    """
    if cfg.lam == 0.0:
        return task.sum(), np.zeros(task.shape)
    if not aux_terms:
        raise UsageError("aux weighting is on but no per-layer terms were given")
    aux = aux_terms[0].values
    for term in aux_terms[1:]:
        aux = aux + term.values
    scale = 1.0 / len(aux_terms) if cfg.layer_reduction == "mean" else None
    if scale is not None:
        aux = aux * scale
    loss = np.asarray((task.values + aux * cfg.lam).sum())
    inputs = [task, *aux_terms]

    def back(g: np.ndarray) -> None:
        gt = np.broadcast_to(g, task.shape)
        if task.requires_grad:
            tz._accumulate(task, gt)
        ga = gt * cfg.lam
        if scale is not None:
            ga = ga * scale
        for term in aux_terms:
            if term.requires_grad:
                tz._accumulate(term, ga)

    return tz._emit(loss, inputs, back), aux
