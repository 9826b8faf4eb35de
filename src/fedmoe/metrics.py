"""Expert-load accounting and evaluation: who handled the traffic, and how
far each layer's utilization sits from uniform."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .adapter import RoutingStats
from .backbone import Backbone
from .data import LabeledDataset
from .errors import InputError, UsageError
from .losses import kl_divergence, uniform_target


@dataclass
class LoadMatrix:
    """Per-layer, per-expert activation counts from an evaluation pass."""

    counts: np.ndarray      # [layers, experts], selection counts
    prob_sums: np.ndarray   # [layers, experts], summed dense routing probs
    tokens: np.ndarray      # [layers], tokens seen per layer

    @classmethod
    def from_stats(cls, stats: list[RoutingStats]) -> "LoadMatrix":
        if not stats:
            raise UsageError("no layer stats given")
        return cls(counts=np.stack([s.counts for s in stats]),
                   prob_sums=np.stack([s.prob_sums for s in stats]),
                   tokens=np.array([s.tokens_seen for s in stats]))

    @property
    def layers(self) -> int:
        return self.counts.shape[0]

    @property
    def experts(self) -> int:
        return self.counts.shape[1]

    def frequencies(self) -> np.ndarray:
        """Row-normalized counts; all-zero rows stay at zero."""
        totals = self.counts.sum(axis=1, keepdims=True)
        return np.divide(self.counts, totals, where=totals > 0,
                         out=np.zeros_like(self.counts, dtype=np.float64))

    def mean_probs(self) -> np.ndarray:
        """Token-mean dense routing distribution per layer."""
        tokens = self.tokens[:, None]
        return np.divide(self.prob_sums, tokens, where=tokens > 0,
                         out=np.zeros_like(self.prob_sums))

    def __add__(self, other: "LoadMatrix") -> "LoadMatrix":
        if self.counts.shape != other.counts.shape:
            raise InputError(f"load shapes differ: {self.counts.shape} "
                             f"vs {other.counts.shape}")
        return LoadMatrix(self.counts + other.counts,
                          self.prob_sums + other.prob_sums,
                          self.tokens + other.tokens)


@dataclass
class UtilizationReport:
    per_layer: list[float]   # KL(frequency row || uniform); NaN for empty rows
    mean_kl: float
    warnings: list[str]


def utilization_kl(load: LoadMatrix) -> UtilizationReport:
    """Per-layer KL of the selection frequencies against uniform, plus the
    mean over layers (empty layers are excluded with a warning)."""
    target = uniform_target(load.experts)
    freq = load.frequencies()
    per_layer: list[float] = []
    warnings: list[str] = []
    live: list[float] = []
    for layer in range(load.layers):
        if load.counts[layer].sum() == 0:
            per_layer.append(math.nan)
            warnings.append(f"layer {layer}: no tokens recorded; "
                            "excluded from mean")
            continue
        kl = kl_divergence(freq[layer], target).item()
        per_layer.append(kl)
        live.append(kl)
    mean = float(np.mean(live)) if live else math.nan
    return UtilizationReport(per_layer, mean, warnings)


def export_heatmap_csv(load: LoadMatrix, path) -> None:
    """Write `layer, expert, count, frequency` rows sorted by (layer, expert)."""
    freq = load.frequencies()
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "expert", "count", "frequency"])
            for layer in range(load.layers):
                for expert in range(load.experts):
                    writer.writerow([layer, expert,
                                     int(load.counts[layer, expert]),
                                     f"{freq[layer, expert]:.12g}"])
    except OSError as exc:
        raise OSError(f"cannot write heatmap to {path}: {exc}") from exc


def export_mean_probs_csv(load: LoadMatrix, path) -> None:
    """The routing-probability view of the same traffic: `layer, expert,
    mean_prob` (token-mean dense softmax, the aux-loss perspective)."""
    probs = load.mean_probs()
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "expert", "mean_prob"])
            for layer in range(load.layers):
                for expert in range(load.experts):
                    writer.writerow([layer, expert,
                                     f"{probs[layer, expert]:.12g}"])
    except OSError as exc:
        raise OSError(f"cannot write probabilities to {path}: {exc}") from exc


def evaluate_accuracy(backbone: Backbone, params: list[np.ndarray] | None,
                      test: LabeledDataset, batch_size: int = 512) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    ``params`` (when given) are loaded into the backbone first — pass the
    aggregated global parameters to score the shared model.  Runs without a
    tape and leaves each adapter's routing stats populated for the
    evaluation pass, ready for a LoadMatrix.
    """
    if len(test) < 1:
        raise InputError("test set is empty")
    if params is not None:
        backbone.load_trainable(params)
    backbone.reset_stats()
    correct = 0
    for start in range(0, len(test), batch_size):
        batch = test.features[start:start + batch_size]
        labels = test.labels[start:start + batch_size]
        logits = backbone.forward(batch, collect_stats=True)
        correct += int((logits.values.argmax(axis=1) == labels).sum())
    return correct / len(test)
