"""Synthetic classification data, CSV loading, and heterogeneity partitioners,
configured by the ``data.*`` section (``DataConfig``).

Partitioning supports the three client-skew regimes used throughout: a
per-class Dirichlet split (lower alpha = more skew), the one-label extreme
(each client sees a single class), and a uniform IID split.

Each function draws from its own ``default_rng(seed)`` in a fixed order,
which the golden run hashes depend on.  ``synth_dataset`` draws the class
means, then each class's noise, class 0 first, then one permutation of the
examples.  ``train_test_split`` draws a permutation of each class's indices;
its first ``round(test_fraction * count)``, kept in [1, count - 1], go to
test.  ``partition`` draws for ``iid`` one permutation of all indices, cut as
``np.array_split`` cuts; for the other schemes, per class, a permutation of
its indices, then for ``dirichlet`` a ``dirichlet(alpha * ones(clients))``
draw p, cut at ``floor(cumsum(p)[:-1] * count)``, while ``one_label`` cuts it
as ``np.array_split`` does over the clients i with i % C == c.  Client i takes
piece i, class by class.  Then each empty shard, lowest id first, takes one
example from the largest shard (the lowest id wins ties): the one at position
``integers(len(donor))`` in the order the donor received what it still holds.
Every shard comes back sorted ascending.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

PARTITION_SCHEMES = ("dirichlet", "one_label", "iid")


@dataclass
class LabeledDataset:
    """Feature tensor [n, seq, d_in] with integer labels in [0, C)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 3:
            raise InputError(f"features must be [n, seq, d_in], "
                             f"got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 1:
            raise InputError("dataset is empty")
        if self.labels.shape != (n,):
            raise InputError(f"{self.labels.shape} labels for {n} examples")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise InputError(
                f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx],
                              self.class_count)


@dataclass(frozen=True)
class DataConfig:
    """The ``data.*`` section: where the examples come from, the test split,
    and the partition scheme that spreads the rest over the clients."""

    source: str = "synthetic"    # "synthetic" | "csv"
    csv_path: str = ""
    n: int = 2000
    classes: int = 4
    input_dim: int = 16
    separation: float = 3.0
    partition: str = "one_label"
    alpha: float = 1.0
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigurationError("data.source must be synthetic or csv")
        if self.source == "csv" and not self.csv_path:
            raise ConfigurationError("data.csv_path required for csv source")
        if self.source == "synthetic":
            if self.classes < 2:
                raise ConfigurationError("data.classes must be >= 2")
            if self.n < self.classes:
                raise ConfigurationError("data.n must cover every class")
            if self.separation <= 0:
                raise ConfigurationError("data.separation must be > 0")
        if self.input_dim < 1:
            raise ConfigurationError("data.input_dim must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("data.test_fraction outside (0, 1)")
        if self.partition not in PARTITION_SCHEMES:
            raise ConfigurationError(
                f"data.partition must be one of {PARTITION_SCHEMES}, "
                f"got {self.partition!r}")
        if self.partition == "dirichlet" and self.alpha <= 0.0:
            raise ConfigurationError(
                f"data.alpha must be > 0 for the dirichlet partition, "
                f"got {self.alpha}")


def synth_dataset(n: int, classes: int, seq_len: int, input_dim: int,
                  separation: float, seed: int) -> LabeledDataset:
    """Gaussian blobs: one random mean per class, noise scaled by 1/separation.

    Class counts differ by at most one (remainder goes to the low classes).
    """
    if min(n, classes, seq_len, input_dim) < 1 or separation <= 0.0:
        raise ConfigurationError("all synthetic-data parameters must be positive")
    if n < classes:
        raise ConfigurationError(f"need at least one example per class "
                                 f"({n} examples, {classes} classes)")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(classes, seq_len, input_dim))
    counts = _even_counts(n, classes)
    features = np.empty((n, seq_len, input_dim))
    for block, mean in zip(np.split(features, np.cumsum(counts)[:-1]), means):
        rng.standard_normal(out=block)  # the values normal(size=...) draws
        block /= separation
        block += mean
    order = rng.permutation(n)
    labels = np.repeat(np.arange(classes), counts)
    return LabeledDataset(features[order], labels[order], classes)


def _even_counts(total: int, parts: int) -> np.ndarray:
    """The sizes of ``np.array_split``'s ``parts`` pieces of ``total``."""
    counts = np.full(parts, total // parts)
    counts[:total % parts] += 1
    return counts


def load_csv(path, seq_len: int, input_dim: int) -> LabeledDataset:
    """Read a feature-matrix CSV: header row, features..., integer label last.

    Each data row carries seq_len * input_dim feature values followed by the
    class label; features are reshaped row-major to [seq_len, input_dim].
    """
    width = seq_len * input_dim
    features, labels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 1:
                raise InputError(f"{path}:{lineno}: expected {width + 1} "
                                 f"columns, got {len(row)}")
            try:
                values = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            col = next((j for j, v in enumerate(values) if not math.isfinite(v)),
                       None)
            if col is not None:
                name = f" ({header[col]!r})" if col < len(header) else ""
                raise InputError(f"{path}:{lineno}: column {col + 1}{name} is "
                                 f"{row[col]!r}, not a finite number")
            features.append(values)
            labels.append(label)
    if not features:
        raise InputError(f"{path}: no data rows")
    labels = np.array(labels, dtype=np.int64)
    if labels.min() < 0:
        raise InputError(f"{path}: negative class label")
    feats = np.array(features).reshape(len(features), seq_len, input_dim)
    return LabeledDataset(feats, labels, int(labels.max()) + 1)


def train_test_split(ds: LabeledDataset, test_fraction: float, seed: int
                     ) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split.

    A class with two or more examples keeps at least one on each side.  A
    class with a single example (possible from CSV input) goes wholly to
    train, so the test side can lack a class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError(
            f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    is_test = np.zeros(len(ds), dtype=bool)
    for c in range(ds.class_count):
        idx = rng.permutation(np.flatnonzero(ds.labels == c))
        n_test = int(round(test_fraction * len(idx)))
        is_test[idx[:min(max(n_test, 1), len(idx) - 1)]] = True
    return (ds.subset(np.flatnonzero(~is_test)),
            ds.subset(np.flatnonzero(is_test)))


def partition(ds: LabeledDataset, cfg: DataConfig, clients: int,
              seed: int) -> list[np.ndarray]:
    """Disjoint index shards covering the dataset, one per client, drawn by
    ``cfg.partition`` as the module docstring sets out."""
    n = len(ds)
    if not 1 <= clients <= n:
        raise ConfigurationError(
            f"cannot spread {n} examples over {clients} clients")
    if cfg.partition == "one_label" and clients < ds.class_count:
        raise ConfigurationError(
            f"one_label needs at least {ds.class_count} clients to cover "
            f"every class, got {clients}")
    rng = np.random.default_rng(seed)
    # Example order[k] goes to client takers[k]; each client receives its
    # examples in the order they stand here.
    if cfg.partition == "iid":
        order = rng.permutation(n)
        takers = np.repeat(np.arange(clients), _even_counts(n, clients))
    else:
        class_orders, class_takers = [], []
        for c in range(ds.class_count):
            idx = rng.permutation(np.flatnonzero(ds.labels == c))
            if cfg.partition == "dirichlet":
                p = rng.dirichlet(np.full(clients, cfg.alpha))
                cuts = (np.cumsum(p)[:-1] * len(idx)).astype(int)
                taker = np.searchsorted(cuts, np.arange(len(idx)), "right")
            else:  # one_label
                ids = np.arange(c, clients, ds.class_count)
                taker = np.repeat(ids, _even_counts(len(idx), len(ids)))
            class_orders.append(idx)
            class_takers.append(taker)
        order = np.concatenate(class_orders)
        takers = np.concatenate(class_takers)
    # owner[e] is example e's client; a small unsigned dtype makes the
    # stable argsort below a radix sort.
    owner = np.empty(n, dtype=np.min_scalar_type(clients - 1))
    owner[order] = takers
    sizes = np.bincount(owner, minlength=clients)

    # Re-seed empty shards with one example pulled from the largest shard.
    # The sizes sum to n >= clients, so the donor always has two or more.
    received = {}
    for i in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        if donor not in received:
            received[donor] = list(order[takers == donor])
        shard = received[donor]
        moved = shard.pop(int(rng.integers(len(shard))))
        owner[moved] = i
        sizes[donor] -= 1
        sizes[i] += 1
    grouped = np.argsort(owner, kind="stable")
    ends = np.cumsum(sizes).tolist()
    return [grouped[a:b] for a, b in zip([0] + ends[:-1], ends)]
