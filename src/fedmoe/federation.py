"""Synchronous federated training over adapter parameters.

Every round: broadcast the global adapter parameters, train each client
locally on its own shard, average the uploads weighted by shard size, then
evaluate the new global model on the held-out test set.  Only adapter
parameters (and the head, when trainable) move over the wire.

An experiment builds one frozen backbone and shares it: clients train on it
lock-step by lock-step and the server evaluates on it.  A client is a record
of its shard (an index array into the training set) and its budget K_n.
Its state is one row of the :class:`ClientStore`: its latest parameters, in
the backbone's flat ``layout``, its Adam moments and its Adam step count.
``ClientState.params`` and the uploads are views of that row.

The round's :func:`schedule` keys every client's step s (counted across its
epochs) by its batch's row count r, and cuts each (s, r) group, in
client-id order, into lock-steps of at most ``STACK_ROWS // r`` members
(at least one).  A lock-step gathers its members' rows of the store, binds
the backbone's trainable tensors and their gradients as views of the
gathered ``[G, P]`` buffers, records one tape, runs one backward, takes one
Adam step with per-member bias correction, and scatters the rows back.
Each member keeps its own shuffle stream, budget, loss, aux gate, moments
and step count, and has the same batch shape as the others, so it gets the
bits it would get training alone.
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
    """Every client's state, one row per client id: parameters ``theta``
    [N, P] in ``layout`` order, Adam moments ``m`` and ``v`` [N, P] and Adam
    step counts ``t`` [N]; and the training set the shards index."""

    layout: ParameterLayout
    train: LabeledDataset
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: np.ndarray


@dataclass
class ClientState:
    """One participant: private shard (rows of ``store.train``), sparsity
    budget, and its row of the store."""

    client_id: int
    shard: np.ndarray
    k_n: int
    store: ClientStore

    @property
    def params(self) -> list[np.ndarray]:
        """The client's latest upload, or the initial adapter values before
        its first round: per-tensor views of its store row."""
        return self.store.layout.views(self.store.theta[self.client_id])

    def adapter_params(self) -> list[np.ndarray]:
        return [v.copy() for v in self.params]


@dataclass
class ServerState:
    global_params: list[np.ndarray]
    round_index: int = 0


@dataclass
class ClientRoundMetrics:
    client_id: int
    task_loss: float   # mean over the round's optimization steps
    aux_loss: float    # mean reduced aux value (before the lambda weight)
    steps: int


@dataclass
class RoundReport:
    round_index: int
    clients: list[ClientRoundMetrics]
    task_loss: float   # shard-size-weighted mean of client task losses
    aux_loss: float
    accuracy: float
    eval_k: int
    utilization: UtilizationReport
    load: LoadMatrix


# ---------------------------------------------------------------------------
# round primitives


def broadcast(server: ServerState, clients: list[ClientState]) -> None:
    """Copy the global parameters into every client's store row: one row
    copy."""
    if clients:
        store = clients[0].store
        ids = [c.client_id for c in clients]
        store.theta[ids] = store.layout.flatten(server.global_params)


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


def local_train(clients: list[ClientState], backbone: Backbone,
                cfg: ExperimentConfig, round_index: int
                ) -> list[ClientRoundMetrics]:
    """One round's local pass of ``clients`` on the shared backbone, as the
    :func:`schedule`'s lock-steps; each client's parameters, moments and
    step count are updated in its store row.  Returns each client's loss
    averages, in the order given.

    Each client's shuffle stream is seeded by (run seed, round, client id),
    so a replay of the same experiment revisits identical batches, in any
    lock-step or alone.  A non-finite loss stops the round before its
    lock-step's update, naming the client, the round and the client's step.
    """
    for client in clients:
        if len(client.shard) == 0:
            raise ConfigurationError(
                f"client {client.client_id}: empty shard cannot train")
    store = clients[0].store
    fed, aux_cfg = cfg.federation, cfg.aux
    ids = np.array([c.client_id for c in clients])
    if fed.reset_optimizer:
        store.m[ids] = store.v[ids] = 0.0
        store.t[ids] = 0
    budgets = np.array([c.k_n for c in clients])
    features, labels = store.train.features, store.train.labels
    # each client's visiting order over the round's epochs, as training rows
    orders = []
    for client in clients:
        rng = np.random.default_rng((cfg.seeds.run, round_index,
                                     client.client_id))
        n = len(client.shard)
        orders.append(client.shard[np.concatenate(
            [rng.permutation(n) for _ in range(fed.epochs)])])
    cursor = np.zeros(len(clients), dtype=np.int64)
    task_sum = np.zeros(len(clients))
    aux_sum = np.zeros(len(clients))
    steps = np.zeros(len(clients), dtype=np.int64)
    for s, r, members in schedule([len(c.shard) for c in clients],
                                  fed.batch_size, fed.epochs):
        rows = np.stack([orders[i][cursor[i]:cursor[i] + r] for i in members])
        rows_of = ids[members]
        theta = tz.parameter(store.theta[rows_of])
        theta.grad = np.zeros_like(theta.values)
        backbone.bind(theta.values, theta.grad)
        backbone.set_budget(budgets[members])
        with tz.Tape() as tape:
            logits = backbone.forward([features] * len(members), rows=rows)
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
        opt = Adam([theta], lr=fed.lr, weight_decay=fed.weight_decay,
                   m=[store.m[rows_of]], v=[store.v[rows_of]],
                   t=store.t[rows_of])
        opt.step()
        store.theta[rows_of] = theta.values
        store.m[rows_of], store.v[rows_of] = opt.m[0], opt.v[0]
        store.t[rows_of] = opt.t
        cursor[members] += r
        task_sum[members] += task_values
        aux_sum[members] += aux
        steps[members] += 1
    return [ClientRoundMetrics(c.client_id, float(task_sum[i] / steps[i]),
                               float(aux_sum[i] / steps[i]), int(steps[i]))
            for i, c in enumerate(clients)]


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


def resolve_eval_k(cfg: ExperimentConfig, clients: list[ClientState]) -> int:
    """Evaluation budget: configured value, else the widest client budget."""
    if cfg.sparsity.eval_k:
        return cfg.sparsity.eval_k
    return max(c.k_n for c in clients)


def run_round(server: ServerState, clients: list[ClientState],
              backbone: Backbone, test: LabeledDataset,
              cfg: ExperimentConfig) -> RoundReport:
    """broadcast -> local training -> aggregate -> evaluate, all on the one
    shared backbone.  ``clients`` are every client of their store, in
    client-id order, so the store's rows are the uploads in the order
    ``aggregate`` anchors on."""
    round_index = server.round_index
    store = clients[0].store
    if [c.client_id for c in clients] != list(range(len(store.theta))):
        raise UsageError("run_round needs every client of the store, in "
                         "client-id order")
    broadcast(server, clients)
    fragments = local_train(clients, backbone, cfg, round_index)
    sizes = [len(c.shard) for c in clients]
    server.global_params = aggregate(store.theta, sizes, store.layout)
    server.round_index = round_index + 1

    weights = np.array(sizes, dtype=np.float64)
    weights /= weights.sum()
    task = float(np.dot(weights, [f.task_loss for f in fragments]))
    aux = float(np.dot(weights, [f.aux_loss for f in fragments]))

    eval_k = resolve_eval_k(cfg, clients)
    backbone.set_budget(eval_k)
    load = LoadMatrix.zeros(cfg.backbone.layers, cfg.adapter.experts)
    accuracy = evaluate_accuracy(backbone, server.global_params, test,
                                 load=load)
    util = utilization_kl(load)

    return RoundReport(round_index=round_index, clients=fragments,
                       task_loss=task, aux_loss=aux, accuracy=accuracy,
                       eval_k=eval_k, utilization=util, load=load)


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
            for frag in report.clients:
                writer.writerow([report.round_index, frag.client_id,
                                 _cell(frag.task_loss), _cell(frag.aux_loss),
                                 "", ""])
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
                  backbone: Backbone) -> list[ClientState]:
    """Partition the training set into client records, with K_n from
    ``SparsitySection.budgets``, over one new store whose every row holds
    the backbone's initial adapter values."""
    shards = partition(train, cfg.data, cfg.federation.clients, cfg.seeds.data)
    budgets = cfg.sparsity.budgets(len(shards))
    layout = backbone.layout
    initial = layout.flatten(backbone.member_params(0))
    shape = (len(shards), layout.width)
    store = ClientStore(layout=layout, train=train,
                        theta=np.broadcast_to(initial, shape).copy(),
                        m=np.zeros(shape), v=np.zeros(shape),
                        t=np.zeros(len(shards), dtype=np.int64))
    return [ClientState(client_id=i, shard=np.asarray(indices), k_n=k_n,
                        store=store)
            for i, (indices, k_n) in enumerate(zip(shards, budgets))]


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
    clients = build_clients(cfg, train, backbone)
    server = ServerState(global_params=backbone.member_params(0))

    reports = []
    for _ in range(cfg.federation.rounds):
        reports.append(run_round(server, clients, backbone, test, cfg))

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
        _write_metadata(cfg, clients, backbone, train, test,
                        out / "metadata.txt")
    return ExperimentResult(reports=reports, server=server, clients=clients,
                            eval_backbone=backbone, test=test,
                            parameter_names=backbone.parameter_names(),
                            run_dir=out)


def _write_metadata(cfg: ExperimentConfig, clients: list[ClientState],
                    backbone: Backbone, train: LabeledDataset,
                    test: LabeledDataset, path) -> None:
    lines = [
        f"version = {__version__}",
        f"config_hash = {cfg.hash_id()}",
        f"eval_k = {resolve_eval_k(cfg, clients)}",
        "weight_decay_mode = decoupled",
        f"frozen_checksum = {backbone.frozen_checksum()}",
        f"classes = {train.class_count}",
        f"train_examples = {len(train)}",
        f"test_examples = {len(test)}",
        f"shard_sizes = {','.join(str(len(c.shard)) for c in clients)}",
        f"client_k = {','.join(str(c.k_n) for c in clients)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
