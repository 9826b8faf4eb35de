"""Independent numerical oracles and test-only helpers shared by the suite.

Everything here is deliberately implemented without the package's autodiff
machinery so that it can serve as a second opinion on it.
"""

import csv
import math

import numpy as np

from fedmoe.adapter import AdapterConfig, MoEAdapter
from fedmoe.backbone import ParameterLayout
from fedmoe.config import ExperimentConfig
from fedmoe.errors import AggregationError, ConfigurationError, DimensionError
from fedmoe.tensor import Tensor


def aggregate_uploads(uploads):
    """``aggregate`` over ``[(per-tensor list, shard size)]`` uploads: each
    list flattened into one row of a layout named ``t0``, ``t1``, ..."""
    from fedmoe.federation import aggregate

    shapes = [np.shape(p) for p in uploads[0][0]]
    layout = ParameterLayout.of([f"t{j}" for j in range(len(shapes))], shapes)
    rows = np.stack([layout.flatten(params) for params, _ in uploads])
    return aggregate(rows, [size for _, size in uploads], layout)


def finite_difference_grads(f, arrays, step=1e-5):
    """Central-difference gradients of a scalar function.

    ``f`` maps the list of numpy arrays to a python float and is evaluated
    2 * total_size times; ``arrays`` are perturbed in place and restored.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = f(arrays)
            flat[i] = keep - step
            lo = f(arrays)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def softmax_direct(logits):
    """Softmax via plain math.exp, sharing no stabilization tricks with the
    implementation under test."""
    exps = [math.exp(float(v)) for v in logits]
    total = sum(exps)
    return np.array([e / total for e in exps])


def cross_entropy_direct(logits, labels):
    """Mean NLL via per-row direct summation."""
    total = 0.0
    for row, label in zip(logits, labels):
        p = softmax_direct(row)
        total += -math.log(p[int(label)])
    return total / len(labels)


def kl_direct(p, q):
    """KL(p || q) with the 0 log 0 = 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += float(pi) * math.log(float(pi) / float(qi))
    return total


def adam_single_step(theta, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                     weight_decay=0.0, m=0.0, v=0.0, t=0):
    """One hand-evaluated Adam step (decoupled weight decay) on a scalar."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    theta = theta - lr * weight_decay * theta
    theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
    return theta, m, v, t


def route(adapter, x):
    """Gate one token of a top-K-softmax adapter in plain numpy.

    Returns the length-M weight vector and the sorted selected indices: the
    K largest router logits (ties toward the lowest index) share a softmax,
    every other expert gets exactly zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (adapter.dim,):
        raise DimensionError(f"token shape {x.shape}, expected ({adapter.dim},)")
    logits = adapter.WR.values[0] @ x
    k = int(np.ravel(adapter.k)[0])
    chosen = sorted(sorted(range(len(logits)),
                           key=lambda i: (-logits[i], i))[:k])
    top = max(logits[i] for i in chosen)
    exps = {i: math.exp(logits[i] - top) for i in chosen}
    total = sum(exps.values())
    weights = np.zeros(len(logits))
    for i, e in exps.items():
        weights[i] = e / total
    return weights, chosen


def lora_adapter(a, b, ranks):
    """Split a LoRA pair (A [r, d], B [d, r]) into linear experts: the
    paper's claim that one MoE adapter shape absorbs a LoRA configuration.

    Expert m takes the m-th row block of A and column block of B, in the
    leading ``ranks[m]`` rows of ``E1[0, m]`` and columns of ``E2[0, m]``;
    the rest is zero.  Mixed with unit weights (:func:`unit_mix`), the
    adapter's correction equals ``B @ A @ x``.
    """
    a = a.values if isinstance(a, Tensor) else np.asarray(a)
    b = b.values if isinstance(b, Tensor) else np.asarray(b)
    r, d = a.shape
    if b.shape != (d, r):
        raise DimensionError(f"B shape {b.shape} does not pair with A {a.shape}")
    if not ranks or min(ranks) < 1 or sum(ranks) != r:
        raise ConfigurationError(
            f"ranks {ranks} are not a positive split of LoRA rank {r}")
    if r > d:
        raise ConfigurationError(f"LoRA rank {r} exceeds width {d}")
    cfg = AdapterConfig(experts=len(ranks), rank=max(ranks),
                        activation="linear")
    adapter = MoEAdapter(d, cfg)
    adapter.E1.values[...] = 0.0
    offset = 0
    for m, rm in enumerate(ranks):
        adapter.E1.values[0, m, :rm] = a[offset:offset + rm, :]
        adapter.E2.values[0, m, :, :rm] = b[:, offset:offset + rm]
        offset += rm
    return adapter


def unit_gate(logits):
    """Gate [G, tokens, M] ``logits`` as ``MoEAdapter._gate`` does, but with
    every expert selected at weight exactly 1: a constant, so the router
    gets no gradient."""
    return Tensor(np.ones(logits.shape)), np.ones(logits.shape, dtype=bool)


def unit_mix(adapter, backbone_out, x):
    """``adapter``'s mixture of [G, tokens, d] tensors with every expert at
    weight exactly 1."""
    weights = Tensor(np.ones(x.shape[:-1] + (adapter.n_experts,)))
    return adapter._mix(backbone_out, x, weights)


def load_members(backbone, *members):
    """Load per-client parameter lists as a stack of G members: each list
    is checked as ``load_trainable`` checks one (an error names the member),
    then their flat rows are stacked and bound."""
    for j, values in enumerate(members):
        try:
            backbone.load_trainable(values)
        except AggregationError as exc:
            raise AggregationError(f"member {j}: {exc}") from None
    backbone.bind(np.stack([backbone.layout.flatten(v) for v in members]))


def with_overrides(cfg, overrides):
    """A new config with raw-string overrides applied on ``cfg``."""
    return ExperimentConfig.resolve(dict(cfg.to_items()), overrides)


def export_partition_csv(shards, path):
    """Write a partition as `index, client_id` rows, sorted by index."""
    pairs = sorted((int(i), client) for client, s in enumerate(shards)
                   for i in s)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "client_id"])
        writer.writerows(pairs)
