"""Expert-load accounting and evaluation: who handled the traffic, and how
far each layer's utilization sits from uniform.

A :class:`LoadMatrix` holds one row per layer.  ``Backbone.forward`` tallies
each layer's routing into its row when given one, so an evaluation pass (or
any other stretch of batches) fills one matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .backbone import Backbone
from .data import LabeledDataset
from .errors import InputError
from .losses import kl_divergence, uniform_target


@dataclass
class LoadMatrix:
    """Per-layer, per-expert activation counts over a stretch of batches."""

    counts: np.ndarray      # [layers, experts], selection counts
    prob_sums: np.ndarray   # [layers, experts], summed dense routing probs
    tokens: np.ndarray      # [layers], tokens seen per layer

    @classmethod
    def zeros(cls, layers: int, experts: int) -> "LoadMatrix":
        return cls(counts=np.zeros((layers, experts), dtype=np.int64),
                   prob_sums=np.zeros((layers, experts), dtype=np.float64),
                   tokens=np.zeros(layers, dtype=np.int64))

    def record(self, layer: int, selected: np.ndarray,
               dense_probs: np.ndarray) -> None:
        """Add one batch's [..., tokens, experts] selection mask and dense
        routing probabilities to row ``layer``, tallied over every leading
        axis (a stack's members included)."""
        experts = selected.shape[-1]
        self.counts[layer] += selected.reshape(-1, experts).sum(axis=0)
        self.prob_sums[layer] += dense_probs.reshape(-1, experts).sum(axis=0)
        self.tokens[layer] += selected.size // experts

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


def _write_rows(path, what: str, header: list[str], rows) -> None:
    """One CSV of ``header`` then ``rows``; a failed write names ``path``."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def export_heatmap_csv(load: LoadMatrix, path) -> None:
    """Write `layer, expert, count, frequency` rows sorted by (layer, expert)."""
    freq = load.frequencies()
    _write_rows(path, "heatmap", ["layer", "expert", "count", "frequency"],
                ([layer, expert, int(load.counts[layer, expert]),
                  f"{freq[layer, expert]:.12g}"]
                 for layer, expert in np.ndindex(freq.shape)))


def export_mean_probs_csv(load: LoadMatrix, path) -> None:
    """The routing-probability view of the same traffic: `layer, expert,
    mean_prob` (token-mean dense softmax, the aux-loss perspective)."""
    probs = load.mean_probs()
    _write_rows(path, "probabilities", ["layer", "expert", "mean_prob"],
                ([layer, expert, f"{probs[layer, expert]:.12g}"]
                 for layer, expert in np.ndindex(probs.shape)))


def evaluate_accuracy(backbone: Backbone, params: list[np.ndarray],
                      test: LabeledDataset, batch_size: int = 512,
                      load: LoadMatrix | None = None) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    ``params``, one client's flat list (the aggregated global parameters, to
    score the shared model), are loaded into the backbone as a stack of one.
    Runs without a tape; a given ``load`` tallies the pass's routing, one
    row per layer.
    """
    if len(test) < 1:
        raise InputError("test set is empty")
    if batch_size < 1:
        raise InputError(f"evaluation batch_size = {batch_size} must be >= 1")
    backbone.load_trainable(params)
    correct = 0
    for start in range(0, len(test), batch_size):
        rows = slice(start, start + batch_size)
        logits = backbone.forward([test.features], load, rows=[rows])
        labels = test.labels[rows]
        correct += int((logits.values[0].argmax(axis=1) == labels).sum())
    return correct / len(test)
