"""Synchronous federated training over adapter parameters.

Every round: broadcast the global adapter parameters, train each client
locally on its own shard, average the uploads weighted by shard size, then
evaluate the new global model on the held-out test set.  Only adapter
parameters (and the head, when trainable) move over the wire.

An experiment builds one frozen backbone and shares it: clients train on it
lock-step by lock-step and the server evaluates on it.  Client n is row n
of the :class:`ClientStore`: its shard (an index array into the training
set), its budget K_n, its latest parameters in the backbone's flat
``layout``, its Adam moments and its Adam step count.  The round functions
take the store and client ids, so the store's rows are the uploads, in
client-id order, by construction.  :class:`ClientState` is a read-only
handle on one row, built only for an experiment's result.

The round's :func:`schedule` keys every client's step s (counted across its
epochs) by its batch's row count r, and cuts each (s, r) group, in
client-id order, into lock-steps of at most ``STACK_ROWS // r`` members
(at least one).  A lock-step gathers its members' ``theta``, ``m``, ``v``
and ``t`` rows of the store (the only owner of optimizer state), binds the
backbone's trainable tensors and their gradients as views of ``theta`` and
a zeroed ``[G, P]`` buffer, records one tape, runs one backward, takes one
Adam step over the rows with per-member bias correction, and scatters the
four arrays back.  Each member keeps its own shuffle stream, budget, loss,
aux gate, moments and step count, and has the same batch shape as the
others, so it gets the bits it would get training alone.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tz
from . import __version__
from .backbone import Backbone, ParameterLayout
from .config import ExperimentConfig
from .data import LabeledDataset, load_csv, partition, synth_dataset, train_test_split
from .errors import AggregationError, ConfigurationError, InputError, UsageError
from .losses import aux_loss_layer, total_loss
from .metrics import (LoadMatrix, UtilizationReport, evaluate_accuracy,
                      export_heatmap_csv, export_mean_probs_csv,
                      utilization_kl)
from .tensor import Adam

METRICS_COLUMNS = ("round", "client_id", "task_loss", "aux_loss",
                   "accuracy", "mean_util_kl")

CHECKPOINT_MAGIC = "fedmoe-checkpoint 1"

# Example rows one lock-step may hold across its members: the step's
# activations, and so peak memory, grow with them.
STACK_ROWS = 128


# ---------------------------------------------------------------------------
# state


@dataclass
class ClientStore:
    """Every client, one row per client id: its shard ``shards[n]`` (sorted
    rows of ``train``), its budget ``budgets [N]``, its parameters
    ``theta`` [N, P] in ``layout`` order, its Adam moments ``m`` and ``v``
    [N, P] and its Adam step count ``t`` [N]."""

    layout: ParameterLayout
    train: LabeledDataset
    shards: list[np.ndarray]
    budgets: np.ndarray
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def sizes(self) -> list[int]:
        return [len(shard) for shard in self.shards]


@dataclass(frozen=True, eq=False)
class ClientState:
    """Read-only handle on client ``client_id``'s row of ``store``."""

    store: ClientStore
    client_id: int

    @property
    def shard(self) -> np.ndarray:
        return self.store.shards[self.client_id]

    @property
    def k_n(self) -> int:
        return int(self.store.budgets[self.client_id])

    def adapter_params(self) -> list[np.ndarray]:
        """Copies of the client's latest upload, or of the initial adapter
        values before its first round."""
        return [v.copy() for v in
                self.store.layout.views(self.store.theta[self.client_id])]


@dataclass
class ServerState:
    global_params: list[np.ndarray]
    round_index: int = 0


@dataclass
class RoundReport:
    round_index: int
    task_losses: np.ndarray  # [N]: client n's mean over its round's steps
    aux_losses: np.ndarray   # [N]: mean reduced aux value (before lambda)
    task_loss: float   # shard-size-weighted mean of client task losses
    aux_loss: float
    accuracy: float
    eval_k: int
    utilization: UtilizationReport
    load: LoadMatrix


# ---------------------------------------------------------------------------
# round primitives


def broadcast(server: ServerState, store: ClientStore) -> None:
    """Copy the global parameters into every client's store row."""
    store.theta[:] = store.layout.flatten(server.global_params)


def schedule(sizes: list[int], batch_size: int, epochs: int
             ) -> list[tuple[int, int, list[int]]]:
    """The round's lock-steps for clients with shards of ``sizes``, as
    ``(step, rows, members)`` with members as positions in ``sizes``.

    Client i's step s (counted across epochs) takes ``rows`` examples.
    Lock-steps run in (step, rows) order, so each client's steps come in
    order; each (step, rows) group is cut, in position order, into
    lock-steps of at most ``max(1, STACK_ROWS // rows)`` members.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, n in enumerate(sizes):
        epoch = [min(batch_size, n - start) for start in range(0, n, batch_size)]
        for s, r in enumerate(epoch * epochs):
            groups.setdefault((s, r), []).append(i)
    steps = []
    for (s, r), members in sorted(groups.items()):
        width = max(1, STACK_ROWS // r)
        steps.extend((s, r, members[i:i + width])
                     for i in range(0, len(members), width))
    return steps


def local_train(store: ClientStore, ids, backbone: Backbone,
                cfg: ExperimentConfig, round_index: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round's local pass of the clients ``ids`` on the shared backbone,
    as the :func:`schedule`'s lock-steps; each client's parameters, moments
    and step count are updated in its store row.  Returns each client's
    mean task loss, mean aux loss and step count, in the order of ``ids``.

    Each client's shuffle stream is seeded by (run seed, round, client id),
    so a replay of the same experiment revisits identical batches, in any
    lock-step or alone.  A non-finite loss stops the round before its
    lock-step's update, naming the client, the round and the client's step.
    """
    ids = np.asarray(ids, dtype=np.int64)
    shards = [store.shards[n] for n in ids]
    for n, shard in zip(ids, shards):
        if len(shard) == 0:
            raise ConfigurationError(f"client {n}: empty shard cannot train")
    fed, aux_cfg = cfg.federation, cfg.aux
    if fed.reset_optimizer:
        store.m[ids] = store.v[ids] = 0.0
        store.t[ids] = 0
    budgets = store.budgets[ids]
    features, labels = store.train.features, store.train.labels
    # each client's visiting order over the round's epochs, as training rows
    orders = []
    for n, shard in zip(ids, shards):
        rng = np.random.default_rng((cfg.seeds.run, round_index, int(n)))
        orders.append(shard[np.concatenate(
            [rng.permutation(len(shard)) for _ in range(fed.epochs)])])
    cursor = np.zeros(len(ids), dtype=np.int64)
    task_sum = np.zeros(len(ids))
    aux_sum = np.zeros(len(ids))
    steps = np.zeros(len(ids), dtype=np.int64)
    opt = Adam(fed.lr, fed.weight_decay)
    for s, r, members in schedule([len(shard) for shard in shards],
                                  fed.batch_size, fed.epochs):
        rows = np.stack([orders[i][cursor[i]:cursor[i] + r] for i in members])
        rows_of = ids[members]
        theta, m, v, t = (store.theta[rows_of], store.m[rows_of],
                          store.v[rows_of], store.t[rows_of])
        grad = np.zeros_like(theta)
        backbone.bind(theta, grad)
        backbone.set_budget(budgets[members])
        with tz.Tape() as tape:
            logits = backbone.forward(features, rows)
            task = tz.cross_entropy(logits, labels[rows])
            terms = ([aux_loss_layer(p, aux_cfg)
                      for p in backbone.last_layer_probs]
                     if aux_cfg.lam > 0.0 else [])
            loss, aux = total_loss(task, terms, aux_cfg)
            tape.backward(loss)
        task_values = task.values
        if not (np.isfinite(task_values).all() and np.isfinite(aux).all()):
            g = int(np.argmin(np.isfinite(task_values) & np.isfinite(aux)))
            raise AggregationError(
                f"client {rows_of[g]}, round {round_index}, step {s}: loss "
                f"is not finite (task {task_values[g]}, aux {aux[g]})")
        opt.step(theta, grad, m, v, t)
        store.theta[rows_of], store.m[rows_of] = theta, m
        store.v[rows_of], store.t[rows_of] = v, t
        cursor[members] += r
        task_sum[members] += task_values
        aux_sum[members] += aux
        steps[members] += 1
    return task_sum / steps, aux_sum / steps, steps


def aggregate(rows: np.ndarray, sizes: list[int], layout: ParameterLayout
              ) -> list[np.ndarray]:
    """Shard-size-weighted average of the upload ``rows`` [N, P], client n's
    at row n, as per-tensor views of one flat vector.

    Anchored on the first row (out = v0 + sum_n w_n (v_n - v0)), summed in
    row order, so a consensus round reproduces the upload bit for bit.
    """
    if len(rows) == 0:
        raise UsageError("aggregate requires at least one upload")
    if len(sizes) != len(rows):
        raise UsageError(f"aggregate given {len(rows)} uploads and "
                         f"{len(sizes)} shard sizes")
    for n, size in enumerate(sizes):
        if size <= 0:
            raise AggregationError(
                f"client {n}: shard size {size} is not positive")
    finite = np.isfinite(rows)
    if not finite.all():
        n, column = np.argwhere(~finite)[0]
        j = layout.index_at(column)
        raise AggregationError(f"client {n}: parameter {j} "
                               f"({layout.names[j]}) is not finite")
    total = sum(sizes)
    weights = [size / total for size in sizes]
    drift = abs(sum(weights) - 1.0)
    if drift > 1e-12:
        raise AggregationError(f"aggregation weights sum off by {drift:.3g}")
    ref = rows[0]
    out = ref.copy()
    for w, row in zip(weights[1:], rows[1:]):
        out += w * (row - ref)
    return layout.views(out)


def run_round(server: ServerState, store: ClientStore, backbone: Backbone,
              test: LabeledDataset, cfg: ExperimentConfig) -> RoundReport:
    """broadcast -> local training -> aggregate -> evaluate, all on the one
    shared backbone; every client of the store trains, and its rows are the
    uploads in the order ``aggregate`` anchors on."""
    round_index = server.round_index
    broadcast(server, store)
    task, aux, _ = local_train(store, np.arange(len(store.shards)), backbone,
                               cfg, round_index)
    sizes = store.sizes()
    server.global_params = aggregate(store.theta, sizes, store.layout)
    server.round_index = round_index + 1

    weights = np.array(sizes, dtype=np.float64)
    weights /= weights.sum()

    eval_k = cfg.sparsity.eval_budget(store.budgets)
    backbone.set_budget(eval_k)
    load = LoadMatrix.zeros(cfg.backbone.layers, cfg.adapter.experts)
    accuracy = evaluate_accuracy(backbone, server.global_params, test,
                                 load=load)
    util = utilization_kl(load)

    return RoundReport(round_index=round_index, task_losses=task,
                       aux_losses=aux, task_loss=float(np.dot(weights, task)),
                       aux_loss=float(np.dot(weights, aux)),
                       accuracy=accuracy, eval_k=eval_k, utilization=util,
                       load=load)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(names: list[str], arrays: list[np.ndarray], path) -> None:
    """Text header (name, shape, offset, bytes) + little-endian float64 blob."""
    if len(names) != len(arrays):
        raise UsageError("save_checkpoint: names and arrays disagree")
    header = io.StringIO()
    header.write(f"{CHECKPOINT_MAGIC}\n")
    header.write(f"tensors {len(names)}\n")
    payload = bytearray()
    for name, arr in zip(names, arrays):
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        shape = ",".join(str(s) for s in arr.shape)
        header.write(f"{name} {shape} {len(payload)} {len(data)}\n")
        payload.extend(data)
    header.write("end\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        fh.write(bytes(payload))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint back into an ordered name -> float64 array map.

    The tensors must tile the payload exactly, in header order, with nothing
    left over; any other file fails with an ``InputError`` naming the file
    and, where there is one, the tensor.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    stream = io.BytesIO(blob)

    def line() -> str:
        raw = stream.readline()
        if not raw:
            raise InputError(f"{path}: truncated checkpoint header")
        try:
            return raw.decode("ascii").rstrip("\n")
        except UnicodeDecodeError:
            raise InputError(f"{path}: non-ASCII checkpoint header") from None

    if line() != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint file")
    tag, _, count_text = line().partition(" ")
    if tag != "tensors" or not count_text.isdigit():
        raise InputError(f"{path}: malformed tensor count")
    entries = []
    for _ in range(int(count_text)):
        parts = line().split(" ")
        if len(parts) != 4:
            raise InputError(f"{path}: malformed tensor record {parts!r}")
        name, shape_text, offset_text, nbytes_text = parts
        dims = shape_text.split(",") if shape_text else []
        if not all(t.isdigit() for t in (*dims, offset_text, nbytes_text)):
            raise InputError(f"{path}: tensor {name}: malformed record "
                             f"{' '.join(parts)!r}")
        entries.append((name, tuple(int(t) for t in dims), int(offset_text),
                        int(nbytes_text)))
    if line() != "end":
        raise InputError(f"{path}: missing header terminator")
    payload = blob[stream.tell():]
    out: dict[str, np.ndarray] = {}
    expected_offset = 0
    for name, shape, offset, nbytes in entries:
        if name in out:
            raise InputError(f"{path}: tensor {name} appears twice")
        if nbytes != 8 * math.prod(shape):
            raise InputError(f"{path}: tensor {name}: {nbytes} bytes do not "
                             f"hold float64 shape {shape}")
        if offset != expected_offset:
            raise InputError(f"{path}: tensor {name} at offset {offset} "
                             f"overlaps or leaves a gap (expected "
                             f"{expected_offset})")
        raw = payload[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise InputError(f"{path}: payload truncated for tensor {name}")
        out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        expected_offset += nbytes
    if len(payload) != expected_offset:
        raise InputError(f"{path}: {len(payload) - expected_offset} trailing "
                         "bytes after the last tensor")
    return out


# ---------------------------------------------------------------------------
# metrics file


def _cell(value: float) -> str:
    return f"{value:.12g}"


def write_metrics_csv(reports: list[RoundReport], path) -> None:
    """Per-round rows: one per client plus a ``global`` summary row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for report in reports:
            for n, (task, aux) in enumerate(zip(report.task_losses,
                                                report.aux_losses)):
                writer.writerow([report.round_index, n, _cell(task),
                                 _cell(aux), "", ""])
            writer.writerow([report.round_index, "global",
                             _cell(report.task_loss), _cell(report.aux_loss),
                             _cell(report.accuracy),
                             _cell(report.utilization.mean_kl)])


# ---------------------------------------------------------------------------
# whole experiments


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    server: ServerState
    clients: list[ClientState]
    eval_backbone: Backbone      # the one backbone every client trained on
    test: LabeledDataset
    parameter_names: list[str]
    run_dir: Path | None


def _load_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    d = cfg.data
    if d.source == "csv":
        return load_csv(d.csv_path, cfg.backbone.seq_len, d.input_dim)
    return synth_dataset(d.n, d.classes, cfg.backbone.seq_len, d.input_dim,
                         d.separation, cfg.seeds.data)


def build_clients(cfg: ExperimentConfig, train: LabeledDataset,
                  backbone: Backbone) -> ClientStore:
    """One new store over the training set's partition, with K_n from
    ``SparsitySection.budgets`` and every row of ``theta`` holding the
    backbone's initial adapter values."""
    shards = partition(train, cfg.data, cfg.federation.clients, cfg.seeds.data)
    layout = backbone.layout
    initial = layout.flatten(backbone.member_params(0))
    shape = (len(shards), layout.width)
    return ClientStore(layout=layout, train=train, shards=shards,
                       budgets=np.array(cfg.sparsity.budgets(len(shards)),
                                        dtype=np.int64),
                       theta=np.broadcast_to(initial, shape).copy(),
                       m=np.zeros(shape), v=np.zeros(shape),
                       t=np.zeros(len(shards), dtype=np.int64))


def run_experiment(cfg: ExperimentConfig,
                   run_dir: Path | str | None = None) -> ExperimentResult:
    """Run the full round schedule; write run artifacts when a dir is given.

    Artifacts: ``config.txt`` (canonical, replayable), ``metrics.csv``,
    ``checkpoint.bin`` (final global parameters), ``metadata.txt``, and the
    final round's ``heatmap.csv`` / ``mean_probs.csv``.
    """
    dataset = _load_dataset(cfg)
    train, test = train_test_split(dataset, cfg.data.test_fraction,
                                   cfg.seeds.data)
    backbone = Backbone(cfg.backbone, cfg.adapter,
                        classes=train.class_count,
                        input_dim=cfg.data.input_dim,
                        frozen_seed=cfg.seeds.frozen)
    store = build_clients(cfg, train, backbone)
    server = ServerState(global_params=backbone.member_params(0))
    # Only the split copies are read from here on.  Released at the split,
    # the raw features cost `wide` 4.5 MB of page faults per set-up.
    del dataset

    reports = []
    for _ in range(cfg.federation.rounds):
        reports.append(run_round(server, store, backbone, test, cfg))

    out = Path(run_dir) if run_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        cfg.write(out / "config.txt")
        write_metrics_csv(reports, out / "metrics.csv")
        names = backbone.parameter_names()
        save_checkpoint(names, server.global_params, out / "checkpoint.bin")
        if reports:
            export_heatmap_csv(reports[-1].load, out / "heatmap.csv")
            export_mean_probs_csv(reports[-1].load, out / "mean_probs.csv")
        _write_metadata(cfg, store, backbone, test, out / "metadata.txt")
    clients = [ClientState(store, n) for n in range(len(store.shards))]
    return ExperimentResult(reports=reports, server=server, clients=clients,
                            eval_backbone=backbone, test=test,
                            parameter_names=backbone.parameter_names(),
                            run_dir=out)


def _write_metadata(cfg: ExperimentConfig, store: ClientStore,
                    backbone: Backbone, test: LabeledDataset, path) -> None:
    lines = [
        f"version = {__version__}",
        f"config_hash = {cfg.hash_id()}",
        f"eval_k = {cfg.sparsity.eval_budget(store.budgets)}",
        "weight_decay_mode = decoupled",
        f"frozen_checksum = {backbone.frozen_checksum()}",
        f"classes = {store.train.class_count}",
        f"train_examples = {len(store.train)}",
        f"test_examples = {len(test)}",
        f"shard_sizes = {','.join(map(str, store.sizes()))}",
        f"client_k = {','.join(map(str, store.budgets))}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
