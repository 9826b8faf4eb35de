"""Synchronous federated training over adapter parameters.

Every round: broadcast the global adapter parameters, train each client
locally on its own shard, average the uploads weighted by shard size, then
evaluate the new global model on the held-out test set.  Only adapter
parameters (and the head, when trainable) move over the wire.

An experiment builds one frozen backbone and shares it: clients train on it
stack by stack and the server evaluates on it.  A client is a record of its
shard, its budget K_n and its latest parameters.  Clients whose shards have
the same size form stacks of at most ``STACK_ROWS // batch_size`` members,
and a stack trains in lock step: each step gathers every member's next
batch, records one tape, runs one backward and takes one Adam step over the
stacked parameters.  Each member keeps its own shuffle stream, budget, loss,
aux gate and Adam moments, and gets the bits it would get training alone;
the stack owns the moments.  ``local_train`` loads a stack into the shared
model, trains it, and writes each member's result back.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tz
from . import __version__
from .backbone import Backbone
from .config import ExperimentConfig
from .data import LabeledDataset, load_csv, partition, synth_dataset, train_test_split
from .errors import AggregationError, ConfigurationError, InputError, UsageError
from .losses import aux_loss_layer, reduce_aux, total_loss
from .metrics import (LoadMatrix, UtilizationReport, evaluate_accuracy,
                      export_heatmap_csv, export_mean_probs_csv,
                      utilization_kl)
from .tensor import Adam

METRICS_COLUMNS = ("round", "client_id", "task_loss", "aux_loss",
                   "accuracy", "mean_util_kl")

CHECKPOINT_MAGIC = "fedmoe-checkpoint 1"

# Example rows one lock-step may hold across a stack's members: the step's
# activations, and so peak memory, grow with them.
STACK_ROWS = 128


# ---------------------------------------------------------------------------
# state


@dataclass
class ClientState:
    """One participant: private shard, sparsity budget, latest parameters.

    ``params`` is the client's latest upload, or the initial adapter values
    before its first round.
    """

    client_id: int
    shard: LabeledDataset
    k_n: int
    params: list[np.ndarray]

    def adapter_params(self) -> list[np.ndarray]:
        return [v.copy() for v in self.params]


@dataclass
class ClientStack:
    """Clients with equal shard sizes that train in lock step.

    ``optimizer`` is bound to the shared backbone's trainable tensors while
    the stack is loaded; member i's Adam moments are index i of its stacked
    ``m`` and ``v``.
    """

    members: list[ClientState]
    optimizer: Adam | None = None


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
    """Copy the global parameters into every client record (values, not refs)."""
    for client in clients:
        client.params = [v.copy() for v in server.global_params]


def stack_clients(clients: list[ClientState],
                  batch_size: int) -> list[ClientStack]:
    """Sort the clients by (shard size, client id) and cut each run of equal
    shard sizes into stacks of at most ``STACK_ROWS // batch_size`` (at
    least 1) members."""
    width = max(1, STACK_ROWS // batch_size)
    ordered = sorted(clients, key=lambda c: (len(c.shard), c.client_id))
    stacks = []
    for _, run in itertools.groupby(ordered, key=lambda c: len(c.shard)):
        run = list(run)
        stacks.extend(ClientStack(run[i:i + width])
                      for i in range(0, len(run), width))
    return stacks


def local_train(stack: ClientStack, backbone: Backbone, cfg: ExperimentConfig,
                round_index: int
                ) -> list[tuple[list[np.ndarray], ClientRoundMetrics]]:
    """One stack's local pass on the shared backbone; returns, per member in
    stack order, copies of its updated params (also written back to
    ``params``) and its loss averages.

    Each member's shuffle stream is seeded by (run seed, round, client id),
    so a replay of the same experiment revisits identical batches, in a
    stack or alone.
    """
    members = stack.members
    n = len(members[0].shard)
    for client in members:
        if len(client.shard) == 0:
            raise ConfigurationError(
                f"client {client.client_id}: empty shard cannot train")
        if len(client.shard) != n:
            raise UsageError(
                f"client {client.client_id}: shard size {len(client.shard)} "
                f"differs from its stack's {n}")
    fed, aux_cfg = cfg.federation, cfg.aux
    backbone.load_trainable(*(c.params for c in members))
    backbone.set_budget([c.k_n for c in members])

    trainable = backbone.trainable_parameters()
    if stack.optimizer is None or fed.reset_optimizer:
        stack.optimizer = Adam(trainable, lr=fed.lr,
                               weight_decay=fed.weight_decay)
    opt = stack.optimizer

    rngs = [np.random.default_rng((cfg.seeds.run, round_index, c.client_id))
            for c in members]
    features = [c.shard.features for c in members]
    task_sum = np.zeros(len(members))
    aux_sum = np.zeros(len(members))
    steps = 0
    for _ in range(fed.epochs):
        orders = [rng.permutation(n) for rng in rngs]
        for start in range(0, n, fed.batch_size):
            rows = [order[start:start + fed.batch_size] for order in orders]
            labels = [c.shard.labels[r] for c, r in zip(members, rows)]
            opt.zero_grad()
            with tz.Tape() as tape:
                logits = backbone.forward(features, rows=rows)
                task = tz.cross_entropy(logits, np.stack(labels))
                aux = None
                if aux_cfg.lam > 0.0:
                    aux = reduce_aux([aux_loss_layer(p, aux_cfg)
                                      for p in backbone.last_layer_probs],
                                     aux_cfg)
                tape.backward(total_loss(task, aux, aux_cfg).sum())
            task_values = task.values
            aux_values = (aux.values if aux is not None
                          else np.zeros(len(members)))
            for client, t, a in zip(members, task_values, aux_values):
                if not (math.isfinite(t) and math.isfinite(a)):
                    raise AggregationError(
                        f"client {client.client_id}, round {round_index}, "
                        f"step {steps}: loss is not finite (task {t}, aux "
                        f"{a})")
            opt.step()
            task_sum += task_values
            aux_sum += aux_values
            steps += 1
    results = []
    for i, client in enumerate(members):
        client.params = backbone.member_params(i)
        metrics = ClientRoundMetrics(client.client_id,
                                     float(task_sum[i] / steps),
                                     float(aux_sum[i] / steps), steps)
        results.append((client.adapter_params(), metrics))
    return results


def aggregate(uploads: list[tuple[list[np.ndarray], int]]) -> list[np.ndarray]:
    """Shard-size-weighted average of parameter uploads.

    Anchored on the first upload (out = v0 + sum_n w_n (v_n - v0)) so a
    consensus round reproduces the upload bit for bit.
    """
    if not uploads:
        raise UsageError("aggregate requires at least one upload")
    ref, _ = uploads[0]
    total = 0
    for n, (params, size) in enumerate(uploads):
        if size <= 0:
            raise AggregationError(
                f"client {n}: shard size {size} is not positive")
        if len(params) != len(ref):
            raise AggregationError(
                f"client {n}: uploaded {len(params)} tensors, expected "
                f"{len(ref)}")
        for j, (p, r) in enumerate(zip(params, ref)):
            if p.shape != r.shape:
                raise AggregationError(
                    f"client {n}: parameter {j} shape {p.shape} does not "
                    f"match {r.shape}")
            if not np.isfinite(p).all():
                raise AggregationError(
                    f"client {n}: parameter {j} is not finite")
        total += size
    weights = [size / total for (_, size) in uploads]
    drift = abs(sum(weights) - 1.0)
    if drift > 1e-12:
        raise AggregationError(f"aggregation weights sum off by {drift:.3g}")
    out = [np.array(r, dtype=np.float64, copy=True) for r in ref]
    for w, (params, _) in zip(weights[1:], uploads[1:]):
        for j, p in enumerate(params):
            out[j] += w * (p - ref[j])
    return out


def resolve_eval_k(cfg: ExperimentConfig, clients: list[ClientState]) -> int:
    """Evaluation budget: configured value, else the widest client budget."""
    if cfg.sparsity.eval_k:
        return cfg.sparsity.eval_k
    return max(c.k_n for c in clients)


def run_round(server: ServerState, stacks: list[ClientStack],
              backbone: Backbone, test: LabeledDataset,
              cfg: ExperimentConfig) -> RoundReport:
    """broadcast -> local training, stack by stack -> aggregate -> evaluate,
    all on the one shared backbone.  Uploads reach ``aggregate`` in client-id
    order, since its anchor is the first upload."""
    round_index = server.round_index
    clients = sorted((c for s in stacks for c in s.members),
                     key=lambda c: c.client_id)
    broadcast(server, clients)
    trained = {}
    for stack in stacks:
        for client, result in zip(stack.members,
                                  local_train(stack, backbone, cfg,
                                              round_index)):
            trained[client.client_id] = result
    uploads = [(trained[c.client_id][0], len(c.shard)) for c in clients]
    fragments = [trained[c.client_id][1] for c in clients]
    server.global_params = aggregate(uploads)
    server.round_index = round_index + 1

    sizes = np.array([len(c.shard) for c in clients], dtype=np.float64)
    weights = sizes / sizes.sum()
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
    """Partition the training set into client records that start from the
    backbone's initial adapter values, with K_n from
    ``SparsitySection.budgets``."""
    shards = partition(train, cfg.data, cfg.federation.clients, cfg.seeds.data)
    budgets = cfg.sparsity.budgets(len(shards))
    initial = backbone.member_params(0)
    return [ClientState(client_id=i, shard=train.subset(indices), k_n=k_n,
                        params=[v.copy() for v in initial])
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
    stacks = stack_clients(clients, cfg.federation.batch_size)
    server = ServerState(global_params=backbone.member_params(0))

    reports = []
    for _ in range(cfg.federation.rounds):
        reports.append(run_round(server, stacks, backbone, test, cfg))

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
