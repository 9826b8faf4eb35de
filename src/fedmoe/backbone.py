"""Small frozen transformer encoder hosting one MoE adapter per block.

All attention/FFN/layer-norm weights (and the input projection, positional
table, and classification head) are drawn once from ``frozen_seed`` and never
trained; every client in a federation shares them bit-for-bit.  The only
trainable parameters are the per-block adapters — plus the head when
``trainable_head`` is set.

Each block is post-norm; the adapter runs parallel to the FFN and augments
its output before the residual add:

    h   = LN1(h + Attention(h))
    out = LN2(h + FFN(h) + sum_m w_m(h) * E_m(h))

Each frozen sublayer, ``LN1(h + Attention(h))``, ``FFN(h)`` and ``LN2(h +
aug)``, is one tape op whose hand-written backward reaches only its inputs,
since the weights never train.  Each gradient is its plain expression, bit
for bit the chain of per-op tape ops it replaced, on one condition: a [b, s,
d] gradient from attention's heads is made C-contiguous before its matmul.

Nothing upstream of block 0's adapter trains, so ``forward(features,
rows)`` computes block 0's prefix, ``h1 = LN1(x @ w_in + pos +
Attention(.))`` and ``f1 = FFN(h1)``, once per features array and caches it:
n * S * d * 2 float64 values for the backbone's life, built 128 rows at a
time.  A federation passes the whole training set's features, so there is
one prefix for the training set, built at the first training forward, and
one for the test set.  The frozen weights must never change, nor a
dataset's features once the backbone has read them.

The backbone keeps the routing books.  Each forward stores every layer's
token-mean dense routing distribution in ``last_layer_probs`` (the auxiliary
loss reads it inside the same tape) and, given a ``LoadMatrix``, tallies the
layer's selections and probabilities into its row.  Mean-pooling and the
head are one tape op, with the bits of the generic ops it replaced.

Every trainable tensor carries a leading member axis: the model holds a
stack of G >= 1 members, G = 1 as built.  ``layout`` places the trainable
tensors side by side in one flat row of P values per member, and ``bind``
loads a stack of G as views of a [G, P] buffer, with their gradients as
views of another, so an optimizer step over the buffer updates the model.
``load_trainable`` binds one client's parameter list as a stack of one, and
``member_params(i)`` reads member i back in per-client shapes.  ``forward``
takes one features array and ``rows``, a [G, batch] index array (or a
slice, read from the cache as a view, for a stack of one).  The frozen
sublayers run once over the members' rows one after another, which gives
each example the bits it gets alone, since their matmuls work one example
at a time.  The adapters and the head work member by member, each over
that member's own rows, so the logits are ``[G, batch, C]`` and each
layer's routing distribution is ``[G, M]``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as tz
from .adapter import AdapterConfig, MoEAdapter
from .errors import AggregationError, ConfigurationError, DimensionError
from .tensor import Tensor, parameter

if TYPE_CHECKING:
    from .metrics import LoadMatrix


@dataclass(frozen=True)
class BackboneConfig:
    """The ``backbone.*`` section: the frozen encoder's shape."""

    layers: int = 2
    dim: int = 32
    heads: int = 4
    seq_len: int = 8
    trainable_head: bool = False

    def __post_init__(self):
        for name in ("layers", "dim", "heads", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"backbone.{name} must be >= 1")
        if self.dim % self.heads != 0:
            raise ConfigurationError(
                f"backbone.dim = {self.dim} not divisible by "
                f"backbone.heads = {self.heads}")


class TransformerBlock:
    """Post-norm encoder block with an adapter parallel to its FFN."""

    def __init__(self, dim: int, heads: int, adapter: MoEAdapter,
                 rng: np.random.Generator):
        scale = dim ** -0.5
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Tensor(rng.normal(0.0, scale, size=(dim, dim)))
        self.wk = Tensor(rng.normal(0.0, scale, size=(dim, dim)))
        self.wv = Tensor(rng.normal(0.0, scale, size=(dim, dim)))
        self.wo = Tensor(rng.normal(0.0, scale, size=(dim, dim)))
        self.w1 = Tensor(rng.normal(0.0, scale, size=(dim, 2 * dim)))
        self.w2 = Tensor(rng.normal(0.0, (2 * dim) ** -0.5, size=(2 * dim, dim)))
        self.ln1_gain = Tensor(np.ones(dim))
        self.ln1_bias = Tensor(np.zeros(dim))
        self.ln2_gain = Tensor(np.ones(dim))
        self.ln2_bias = Tensor(np.zeros(dim))
        self.adapter = adapter

    def frozen_tensors(self) -> list[Tensor]:
        return [self.wq, self.wk, self.wv, self.wo, self.w1, self.w2,
                self.ln1_gain, self.ln1_bias, self.ln2_gain, self.ln2_bias]

    def _attend(self, h: Tensor) -> Tensor:
        """``LN1(h + Attention(h))`` as one tape op.

        The backward reaches ``h`` only: the residual first, then the v, k
        and q branches, the order in which the chain of per-op tape ops it
        replaced added into ``h``.  It is bit for bit the chain's provided
        each branch's [b, s, d] gradient is C-contiguous before its matmul, as
        the chain's buffers were; ``merge_heads`` makes it so.  The backward
        keeps only the q, k, v and softmax arrays and the layer norm's
        ``xhat`` and ``inv``; off the tape nothing is kept.
        """
        b, s, d = h.shape
        nh, hd = self.heads, self.head_dim
        scale = hd ** -0.5
        hv = h.values
        q = (hv @ self.wq.values).reshape(b, s, nh, hd).transpose((0, 2, 1, 3))
        k = (hv @ self.wk.values).reshape(b, s, nh, hd).transpose((0, 2, 1, 3))
        v = (hv @ self.wv.values).reshape(b, s, nh, hd).transpose((0, 2, 1, 3))
        kt = k.transpose((0, 1, 3, 2))
        p = tz._softmax_values((q @ kt) * scale)
        ctx = p @ v
        r = hv + ctx.transpose((0, 2, 1, 3)).reshape(b, s, d) @ self.wo.values
        out, xhat, inv = tz._layer_norm_values(r, self.ln1_gain.values,
                                               self.ln1_bias.values)
        if not tz._recording((h,)):
            return Tensor(out)

        def merge_heads(g: np.ndarray) -> np.ndarray:
            """A [b, heads, s, hd] gradient as a C-contiguous [b, s, d] one;
            on the k branch a plain reshape would be a strided view."""
            g = np.ascontiguousarray(g.transpose((0, 2, 1, 3)))
            return g.reshape(b, s, d)

        def back(g: np.ndarray) -> None:
            gr = tz._layer_norm_back(g, self.ln1_gain.values, xhat, inv)
            tz._accumulate(h, gr)
            gctx = (gr @ np.swapaxes(self.wo.values, -1, -2)).reshape(
                b, s, nh, hd).transpose((0, 2, 1, 3))
            gp = gctx @ np.swapaxes(v, -1, -2)
            gv = merge_heads(np.swapaxes(p, -1, -2) @ gctx)
            gqk = tz._softmax_back(gp, p) * scale
            gq = merge_heads(gqk @ k)
            gkt = np.swapaxes(q, -1, -2) @ gqk
            gk = merge_heads(gkt.transpose((0, 1, 3, 2)))
            for gm, w in ((gv, self.wv), (gk, self.wk), (gq, self.wq)):
                tz._accumulate(h, gm @ np.swapaxes(w.values, -1, -2))

        return tz._emit(out, (h,), back)

    def _ffn(self, h: Tensor) -> Tensor:
        """``gelu(h @ w1) @ w2`` as one tape op whose backward reaches ``h``
        only.  Its operands are already C-contiguous, so the plain
        expressions give the bits of the three per-op tape ops it replaced."""
        pre = h.values @ self.w1.values
        phi, act = tz._gelu_values(pre)
        out = act @ self.w2.values
        if not tz._recording((h,)):
            return Tensor(out)

        def back(g: np.ndarray) -> None:
            gact = g @ np.swapaxes(self.w2.values, -1, -2)
            gpre = gact * tz._gelu_slope(pre, phi)
            tz._accumulate(h, gpre @ np.swapaxes(self.w1.values, -1, -2))

        return tz._emit(out, (h,), back)

    def _norm2(self, h: Tensor, aug: Tensor) -> Tensor:
        """``LN2(h + aug)`` as one tape op whose backward adds into ``h``,
        then ``aug``, as the residual add it replaced did."""
        r = h.values + aug.values
        out, xhat, inv = tz._layer_norm_values(r, self.ln2_gain.values,
                                               self.ln2_bias.values)
        if not tz._recording((h, aug)):
            return Tensor(out)

        def back(g: np.ndarray) -> None:
            gr = tz._layer_norm_back(g, self.ln2_gain.values, xhat, inv)
            for t in (h, aug):
                if t.requires_grad:
                    tz._accumulate(t, gr)

        return tz._emit(out, (h, aug), back)

    def prefix(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """The block up to its adapter: ``LN1(h + Attention(h))``, its FFN."""
        h = self._attend(h)
        return h, self._ffn(h)

    def forward(self, h: Tensor, ffn: Tensor | None = None
                ) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
        """The block's output plus its adapter's routing (see
        :meth:`MoEAdapter.forward`): the [G, M] token-mean dense softmax,
        the dense [G, tokens, M] values and the boolean top-K mask.  ``h``
        holds the G members' examples one after another.  Given ``ffn``,
        ``h`` and ``ffn`` are the block's :meth:`prefix`, computed ahead."""
        if ffn is None:
            h, ffn = self.prefix(h)
        members = self.adapter.WR.shape[0]
        aug, probs, dense, selected = self.adapter.forward(
            ffn.reshape(members, -1, self.dim),
            h.reshape(members, -1, self.dim))
        return self._norm2(h, aug.reshape(h.shape)), probs, dense, selected


@dataclass(frozen=True)
class ParameterLayout:
    """Where each trainable tensor sits in a flat parameter row of width
    P: its name, its columns and its per-client shape, in
    :meth:`Backbone.parameter_names` order."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]   # each tensor's first column, then P

    @classmethod
    def of(cls, names: list[str], shapes: list[tuple[int, ...]]
           ) -> "ParameterLayout":
        sizes = (math.prod(s) for s in shapes)
        return cls(tuple(names), tuple(shapes),
                   tuple(itertools.accumulate(sizes, initial=0)))

    @property
    def width(self) -> int:
        return self.offsets[-1]

    def views(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each tensor's view of ``rows`` [..., P], in per-client shapes
        behind the leading axes."""
        lead = rows.shape[:-1]
        return [rows[..., a:b].reshape(lead + shape) for a, b, shape in
                zip(self.offsets, self.offsets[1:], self.shapes)]

    def flatten(self, tensors: list[np.ndarray]) -> np.ndarray:
        """One client's per-tensor list as a new [P] row."""
        return np.concatenate([np.ravel(t) for t in tensors])

    def index_at(self, column: int) -> int:
        """The index of the tensor holding flat ``column``."""
        return int(np.searchsorted(self.offsets, column, side="right")) - 1


class Backbone:
    """Frozen encoder stack + classification head over mean-pooled states."""

    def __init__(self, cfg: BackboneConfig, adapter_cfg: AdapterConfig, *,
                 classes: int, input_dim: int, frozen_seed: int):
        """``classes``, ``input_dim`` and ``frozen_seed`` come from the data
        and seeds.  Every adapter routes to all M experts until
        :meth:`set_budget` says otherwise."""
        if classes < 1 or input_dim < 1:
            raise ConfigurationError(
                f"classes = {classes} and input_dim = {input_dim} must be >= 1")
        self.cfg = cfg
        self.input_dim = input_dim
        rng = np.random.default_rng(frozen_seed)
        self.w_in = Tensor(rng.normal(0.0, input_dim ** -0.5,
                                      size=(input_dim, cfg.dim)))
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(cfg.seq_len, cfg.dim)))
        self.blocks = [
            TransformerBlock(cfg.dim, cfg.heads,
                             MoEAdapter(cfg.dim, adapter_cfg, rng), rng)
            for _ in range(cfg.layers)
        ]
        head = rng.normal(0.0, cfg.dim ** -0.5, size=(cfg.dim, classes))
        self.head = (parameter(head[None]) if cfg.trainable_head
                     else Tensor(head))
        self.layout = ParameterLayout.of(
            self.parameter_names(),
            [p.shape[1:] for p in self.trainable_parameters()])
        # Token-mean routing distributions of the latest forward, per layer.
        self.last_layer_probs: list[Tensor] = []
        # id(features) -> (features, h1, f1): block 0's prefix per dataset.
        self._prefixes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def adapters(self) -> list[MoEAdapter]:
        return [b.adapter for b in self.blocks]

    def set_budget(self, k) -> None:
        """Every adapter's budget: one K per member, or one K for them all,
        each an integer in [1, M] (see :meth:`MoEAdapter.set_budget`)."""
        for adapter in self.adapters:
            adapter.set_budget(k)

    def forward(self, features: np.ndarray, rows,
                load: LoadMatrix | None = None) -> Tensor:
        """Logits [G, batch, C] of the loaded stack of G members over
        ``features[rows]``: ``rows`` is a [G, batch] index array, member g's
        rows in row g, or a slice for a stack of one.  Block 0's prefix
        comes from the cache.  Each layer's token-mean dense routing,
        [G, M], goes to ``last_layer_probs``; a given ``load`` also tallies
        the routing."""
        members = self.adapters[0].WR.shape[0]
        if not isinstance(rows, slice):
            expected = (f"expected ({members}, batch): one row of indices "
                        f"per member of the stack")
            try:
                rows = np.asarray(rows)
            except ValueError:  # rows of unequal lengths
                raise DimensionError(f"ragged rows, {expected}") from None
            if rows.ndim != 2 or len(rows) != members:
                raise DimensionError(f"rows of shape {rows.shape}, {expected}")
            rows = rows.reshape(-1)
        elif members != 1:
            raise DimensionError(f"a slice is for a stack of one, not {members}")
        h1, f1 = self._cached_prefix(features)
        h, ffn = Tensor(h1[rows]), Tensor(f1[rows])
        self.last_layer_probs = []
        for layer, block in enumerate(self.blocks):
            h, probs, dense, selected = block.forward(
                h, ffn if layer == 0 else None)
            self.last_layer_probs.append(probs)
            if load is not None:
                load.record(layer, selected, dense)
        return self._pool_head(h, members)

    def _pool_head(self, h: Tensor, members: int) -> Tensor:
        """Logits [G, batch, C]: ``h`` mean-pooled over tokens, each
        member's rows against its own head, as one op.  Its backward has
        the bits of the token-mean, reshape and matmul ops it replaced."""
        head, hv = self.head, h.values
        tokens = hv.shape[1]
        pooled = (np.add.reduce(hv, axis=1) / tokens).reshape(
            members, -1, self.cfg.dim)
        out = pooled @ head.values
        if not tz._recording((h, head)):
            return Tensor(out)

        def back(g: np.ndarray) -> None:
            if h.requires_grad:
                gp = (g @ np.swapaxes(head.values, -1, -2)).reshape(
                    hv.shape[0], 1, -1)
                tz._accumulate(h, np.broadcast_to(gp / tokens, hv.shape))
            if head.requires_grad:
                tz._accumulate(head, np.swapaxes(pooled, -1, -2) @ g)

        return tz._emit(out, (h, head), back)

    def _cached_prefix(self, features: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``h1`` and ``f1`` [n, S, d] for every row of ``features``, read-only,
        built in chunks of 128 rows on first use: each example's prefix is
        computed alone, so the chunk size bounds the temporaries and moves no
        bit.  The entry holds the array itself, so its id cannot be reused
        while the entry lives."""
        entry = self._prefixes.get(id(features))
        if entry is None:
            seq_len, input_dim = self.cfg.seq_len, self.input_dim
            if features.shape[1:] != (seq_len, input_dim):
                raise DimensionError(f"features shape {features.shape}, "
                                     f"expected (*, {seq_len}, {input_dim})")
            n = len(features)
            h1, f1 = (np.empty((n, seq_len, self.cfg.dim)) for _ in range(2))
            for start in range(0, n, 128):
                chunk = slice(start, start + 128)
                x = Tensor(features[chunk]) @ self.w_in + self.pos
                h, ffn = self.blocks[0].prefix(x)
                h1[chunk], f1[chunk] = h.values, ffn.values
            h1.flags.writeable = f1.flags.writeable = False
            entry = self._prefixes[id(features)] = (features, h1, f1)
        return entry[1], entry[2]

    # -- parameter accounting -----------------------------------------------

    def trainable_parameters(self) -> list[Tensor]:
        """Each adapter's E1, E2, WR in layer order (head last when trainable)."""
        params: list[Tensor] = []
        for block in self.blocks:
            params.extend(block.adapter.parameters())
        if self.cfg.trainable_head:
            params.append(self.head)
        return params

    def parameter_names(self) -> list[str]:
        names: list[str] = []
        for i, block in enumerate(self.blocks):
            names.extend(f"layer{i}.{n}" for n in block.adapter.parameter_names())
        if self.cfg.trainable_head:
            names.append("head")
        return names

    def bind(self, values: np.ndarray, grads: np.ndarray | None = None
             ) -> None:
        """Load a stack of G members as views: each trainable tensor's
        values become its columns of ``values`` [G, P] (see ``layout``),
        and its gradient its columns of ``grads`` when given (the tape then
        accumulates into them), else None.  The tensors stay the same
        objects."""
        grad_views = (self.layout.views(grads) if grads is not None
                      else [None] * len(self.layout.names))
        for p, v, g in zip(self.trainable_parameters(),
                           self.layout.views(values), grad_views):
            p.values, p.grad = v, g

    def load_trainable(self, values: list[np.ndarray]) -> None:
        """Copy one client's flat list (same order as trainable_parameters,
        per-client shapes) into a new [1, P] buffer and :meth:`bind` it as
        a stack of one."""
        shapes = self.layout.shapes
        if len(values) != len(shapes):
            raise AggregationError(
                f"expected {len(shapes)} tensors, got {len(values)}")
        for i, (v, shape) in enumerate(zip(values, shapes)):
            if np.shape(v) != shape:
                raise AggregationError(
                    f"parameter {i} ({self.layout.names[i]}): shape "
                    f"{np.shape(v)} does not match {shape}")
        self.bind(self.layout.flatten(values)[None])

    def member_params(self, i: int) -> list[np.ndarray]:
        """Copies of member i's trainable tensors in per-client shapes, in
        the order of :meth:`parameter_names`."""
        return [p.values[i].copy() for p in self.trainable_parameters()]

    def frozen_tensors(self) -> list[Tensor]:
        out = [self.w_in, self.pos]
        for block in self.blocks:
            out.extend(block.frozen_tensors())
        if not self.cfg.trainable_head:
            out.append(self.head)
        return out

    def frozen_checksum(self) -> str:
        """SHA-256 over every frozen tensor; stable across a whole experiment."""
        digest = hashlib.sha256()
        for t in self.frozen_tensors():
            digest.update(np.ascontiguousarray(t.values).tobytes())
        return digest.hexdigest()
