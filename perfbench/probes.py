"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps public functions and methods of the ``fedmoe``
modules for the length of a ``with`` block.  Each call records a span
(name, start, end, parent) in memory; the per-layer metrics are sums over
those spans plus a few counts read from call arguments and results.  A
probe whose target no longer exists is skipped, and every metric that needs
it is reported as absent.
"""

from __future__ import annotations

import csv
import functools
import gc
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Public functions of fedmoe.tensor that are not ops.
NOT_OPS = {"parameter", "backward"}
# The ops declared in BENCHMARK.json; ops added later are traced and printed
# but stay out of the result line until the benchmark declares them.
DECLARED_OPS = ("add", "sub", "mul", "matmul", "reshape", "transpose", "take",
                "tsum", "tmean", "gelu", "softmax", "masked_softmax",
                "layer_norm", "cross_entropy", "rel_entropy")


def _taped(args, kwargs, result) -> int:
    return 1 if getattr(result, "requires_grad", False) else 0


def _tokens(args, kwargs, result) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(x.shape[0])


def _selected(args, kwargs, result) -> int:
    return int(np.count_nonzero(result))


def _samples(args, kwargs, result) -> int:
    return len(args[2] if len(args) > 2 else kwargs["test"])


# span name -> (module, attribute path, counter hook or None)
PROBES: dict[str, tuple[str, str, Callable | None]] = {
    "data.synth_dataset": ("fedmoe.data", "synth_dataset", None),
    "data.train_test_split": ("fedmoe.data", "train_test_split", None),
    "data.partition": ("fedmoe.data", "partition", None),
    "federation.build_clients": ("fedmoe.federation", "build_clients", None),
    "federation.broadcast": ("fedmoe.federation", "broadcast", None),
    "federation.local_train": ("fedmoe.federation", "local_train", None),
    "federation.aggregate": ("fedmoe.federation", "aggregate", None),
    "federation.save_checkpoint": ("fedmoe.federation", "save_checkpoint", None),
    "federation.write_metrics_csv": ("fedmoe.federation", "write_metrics_csv", None),
    "backbone.Backbone.__init__": ("fedmoe.backbone", "Backbone.__init__", None),
    "backbone.Backbone.forward": ("fedmoe.backbone", "Backbone.forward", None),
    "backbone.TransformerBlock.forward": ("fedmoe.backbone",
                                          "TransformerBlock.forward", None),
    "adapter.MoEAdapter.forward": ("fedmoe.adapter", "MoEAdapter.forward", None),
    "adapter.topk_mask": ("fedmoe.adapter", "topk_mask", _selected),
    "adapter.ExpertNetwork.forward": ("fedmoe.adapter", "ExpertNetwork.forward",
                                      _tokens),
    "losses.aux_loss_layer": ("fedmoe.losses", "aux_loss_layer", None),
    "losses.kl_divergence": ("fedmoe.losses", "kl_divergence", None),
    "tensor.Tape.backward": ("fedmoe.tensor", "Tape.backward", None),
    "tensor.Adam.step": ("fedmoe.tensor", "Adam.step", None),
    "metrics.evaluate_accuracy": ("fedmoe.metrics", "evaluate_accuracy", _samples),
    "metrics.utilization_kl": ("fedmoe.metrics", "utilization_kl", None),
}


def tensor_ops() -> list[str]:
    """Public functions defined in fedmoe.tensor that build tensors."""
    module = importlib.import_module("fedmoe.tensor")
    return sorted(name for name, obj in vars(module).items()
                  if callable(obj) and not name.startswith("_")
                  and not isinstance(obj, type) and name not in NOT_OPS
                  and getattr(obj, "__module__", None) == module.__name__)


def all_probes() -> dict[str, tuple[str, str, Callable | None]]:
    probes = dict(PROBES)
    for op in sorted(set(tensor_ops()) | set(DECLARED_OPS)):
        probes[f"tensor.{op}"] = ("fedmoe.tensor", op, _taped)
    return probes


class Tracer:
    """Installs the probes on enter and removes them on exit."""

    def __init__(self, probes: dict | None = None):
        self.probes = all_probes() if probes is None else probes
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self.gc_seconds = 0.0
        self.gc_objects = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.origin = 0.0

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (module_name, path, hook) in self.probes.items():
            target = self._resolve(module_name, path)
            if target is None:
                self.missing.append(name)
                continue
            owner, attr, original = target
            wrapped = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
            else:
                # Rebind every fedmoe name that refers to the function, so
                # `from .data import partition` call sites are traced too.
                for module in [m for key, m in sys.modules.items()
                               if key == "fedmoe" or key.startswith("fedmoe.")]:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)
        gc.callbacks.append(self._on_gc)
        self.origin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, hook):
        spans, stack, counts, broken = (self.spans, self._stack, self.counts,
                                        self.broken)
        clock = time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                try:
                    counts[name] += hook(args, kwargs, result)
                except Exception:  # the target's signature changed
                    broken.add(name)
            return result

        return probe

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_objects += info.get("collected", 0)

    # -- results --------------------------------------------------------------

    def summary(self) -> "Summary":
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        edge: dict[tuple[str, str], float] = defaultdict(float)
        edge_calls: dict[tuple[str, str], int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                key = (self.spans[parent][0], name)
                edge[key] += end - start
                edge_calls[key] += 1
        return Summary(dict(total), dict(calls), dict(edge), dict(edge_calls),
                       dict(self.counts), set(self.missing) | self.broken,
                       self.gc_seconds, self.gc_objects)

    def write_spans(self, path) -> None:
        """One row per span: id, name, start and end (s from trace start), parent."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            for idx, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([idx, name, f"{start - self.origin:.9f}",
                                 f"{end - self.origin:.9f}", parent])


@dataclass
class Summary:
    total: dict[str, float]
    calls: dict[str, int]
    edge: dict[tuple[str, str], float]
    edge_calls: dict[tuple[str, str], int]
    counts: dict[str, int]
    missing: set[str]
    gc_seconds: float
    gc_objects: int

    def t(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)


# -- per-layer metrics --------------------------------------------------------

LT = "federation.local_train"
EVAL = "metrics.evaluate_accuracy"
BB = "backbone.Backbone.forward"
BLOCK = "backbone.TransformerBlock.forward"
ADAPTER = "adapter.MoEAdapter.forward"
TOPK = "adapter.topk_mask"
EXPERT = "adapter.ExpertNetwork.forward"
AUX = "losses.aux_loss_layer"
KL = "losses.kl_divergence"
STEP = "tensor.Adam.step"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]
    value: Callable[[Summary], float]


def _total(name):
    return lambda s: s.t(name)


def _calls(name):
    return lambda s: s.n(name)


def _ratio(a, b):
    return a / b if b else 0.0


def _taped_per_step(s: Summary) -> float:
    taped = sum(v for k, v in s.counts.items() if k.startswith("tensor."))
    return _ratio(taped, s.n(STEP))


def layer_metrics(ops=DECLARED_OPS) -> list[LayerMetric]:
    m = [
        LayerMetric("data.synth_s", "s", "lower", ("data.synth_dataset",),
                    _total("data.synth_dataset")),
        LayerMetric("data.split_s", "s", "lower", ("data.train_test_split",),
                    _total("data.train_test_split")),
        LayerMetric("data.partition_s", "s", "lower", ("data.partition",),
                    _total("data.partition")),
        LayerMetric("federation.build_clients_s", "s", "lower",
                    ("federation.build_clients",),
                    _total("federation.build_clients")),
        LayerMetric("federation.broadcast_s", "s", "lower",
                    ("federation.broadcast",), _total("federation.broadcast")),
        LayerMetric("federation.local_train_s", "s", "lower", (LT,), _total(LT)),
        LayerMetric("federation.local_train_calls", "count", "lower", (LT,),
                    _calls(LT)),
        LayerMetric("federation.steps", "count", "lower", (STEP,), _calls(STEP)),
        LayerMetric("federation.step_ms", "ms", "lower", (LT, STEP),
                    lambda s: 1e3 * _ratio(s.t(LT), s.n(STEP))),
        LayerMetric("federation.aggregate_s", "s", "lower",
                    ("federation.aggregate",), _total("federation.aggregate")),
        LayerMetric("federation.artifacts_s", "s", "lower",
                    ("federation.save_checkpoint", "federation.write_metrics_csv"),
                    lambda s: s.t("federation.save_checkpoint")
                    + s.t("federation.write_metrics_csv")),
        LayerMetric("backbone.instances", "count", "lower",
                    ("backbone.Backbone.__init__",),
                    _calls("backbone.Backbone.__init__")),
        LayerMetric("backbone.build_s", "s", "lower",
                    ("backbone.Backbone.__init__",),
                    _total("backbone.Backbone.__init__")),
        LayerMetric("backbone.forward_train_s", "s", "lower", (LT, BB),
                    lambda s: s.edge.get((LT, BB), 0.0)),
        LayerMetric("backbone.forward_eval_s", "s", "lower", (EVAL, BB),
                    lambda s: s.edge.get((EVAL, BB), 0.0)),
        LayerMetric("backbone.block_self_s", "s", "lower", (BLOCK, ADAPTER),
                    lambda s: s.t(BLOCK) - s.edge.get((BLOCK, ADAPTER), 0.0)),
        LayerMetric("adapter.forward_s", "s", "lower", (ADAPTER,), _total(ADAPTER)),
        LayerMetric("adapter.topk_s", "s", "lower", (TOPK,), _total(TOPK)),
        LayerMetric("adapter.expert_tokens", "count", "lower", (EXPERT,),
                    lambda s: s.counts.get(EXPERT, 0)),
        LayerMetric("adapter.routed_pairs", "count", "higher", (TOPK,),
                    lambda s: s.counts.get(TOPK, 0)),
        LayerMetric("adapter.routed_fraction", "ratio", "higher", (TOPK, EXPERT),
                    lambda s: _ratio(s.counts.get(TOPK, 0),
                                     s.counts.get(EXPERT, 0))),
        LayerMetric("losses.aux_s", "s", "lower", (AUX,), _total(AUX)),
        LayerMetric("losses.aux_terms", "count", "lower", (AUX,), _calls(AUX)),
        LayerMetric("losses.aux_fired", "count", "lower", (AUX, KL),
                    lambda s: s.edge_calls.get((AUX, KL), 0)),
        LayerMetric("tensor.ops_per_step", "ops/step", "lower", (STEP,),
                    _taped_per_step),
    ]
    for op in ops:
        m.append(LayerMetric(f"tensor.op.{op}_s", "s", "lower",
                             (f"tensor.{op}",), _total(f"tensor.{op}")))
        m.append(LayerMetric(f"tensor.op.{op}_calls", "count", "lower",
                             (f"tensor.{op}",), _calls(f"tensor.{op}")))
    m += [
        LayerMetric("tensor.backward_s", "s", "lower", ("tensor.Tape.backward",),
                    _total("tensor.Tape.backward")),
        LayerMetric("tensor.adam_step_s", "s", "lower", (STEP,), _total(STEP)),
        LayerMetric("tensor.gc_s", "s", "lower", (), lambda s: s.gc_seconds),
        LayerMetric("tensor.gc_objects", "count", "lower", (),
                    lambda s: s.gc_objects),
        LayerMetric("metrics.evaluate_s", "s", "lower", (EVAL,), _total(EVAL)),
        LayerMetric("metrics.eval_samples", "count", "higher", (EVAL,),
                    lambda s: s.counts.get(EVAL, 0)),
        LayerMetric("metrics.utilization_s", "s", "lower",
                    ("metrics.utilization_kl",), _total("metrics.utilization_kl")),
    ]
    return m


def measure(summary: Summary) -> dict[str, tuple[float, str]]:
    """Every per-layer metric whose probes all resolved: name -> (value, unit)."""
    ops = sorted(set(DECLARED_OPS) | set(tensor_ops()))
    return {m.name: (float(m.value(summary)), m.unit) for m in layer_metrics(ops)
            if not summary.missing.intersection(m.needs)}
