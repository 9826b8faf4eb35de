"""The benchmark's workloads: fully pinned experiment configs.

Every config key is written out here, so a change to the program's defaults
or presets cannot move the benchmark.  Only the three ``seeds.*`` keys come
from the command line's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Everything not specific to a workload: the acceptance-grid training recipe
# (``DIRECTIONAL_BASE`` in tests/test_acceptance.py) with aux on.
_COMMON = {
    "adapter.activation": "gelu",
    "adapter.experts": "8",
    "adapter.gating_mode": "topk_softmax",
    "adapter.rank": "2",
    "aux.lambda": "1e-4",
    "aux.layer_reduction": "mean",
    "aux.theta_th": "0.3",
    "backbone.dim": "32",
    "backbone.heads": "4",
    "backbone.layers": "2",
    "backbone.seq_len": "2",
    "backbone.trainable_head": "false",
    "data.alpha": "1.0",
    "data.classes": "4",
    "data.csv_path": "",
    "data.input_dim": "2",
    "data.n": "2000",
    "data.partition": "one_label",
    "data.separation": "3.0",
    "data.source": "synthetic",
    "data.test_fraction": "0.5",
    "federation.batch_size": "32",
    "federation.clients": "4",
    "federation.epochs": "4",
    "federation.lr": "0.01",
    "federation.reset_optimizer": "false",
    "federation.rounds": "3",
    "federation.weight_decay": "0.1",
    "output.dir": "",
    "sparsity.eval_k": "0",
    "sparsity.high_fraction": "0.5",
    "sparsity.k": "2",
    "sparsity.k_high": "4",
    "sparsity.k_low": "1",
    "sparsity.mode": "fixed",
}

SEED_KEYS = ("seeds.run", "seeds.data", "seeds.frozen")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    # Smaller overrides for the quick mode the benchmark's own tests use.
    quick: dict
    # Final accuracy must reach 1/classes + margin.  Each margin is about half
    # the smallest gap to chance seen over a sweep of seeds (see README.md).
    margin: float

    def config_items(self, seed: int, quick: bool = False) -> dict[str, str]:
        items = dict(_COMMON)
        items.update(self.overrides)
        if quick:
            items.update(self.quick)
        for key in SEED_KEYS:
            items[key] = str(seed)
        return items


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="grid",
            why="acceptance-grid recipe, 4 one-label clients, M=8 K=2, aux on: "
                "tiny steps, so the tape, the expert loop and Adam dominate",
            overrides={},
            quick={"data.n": "400", "federation.rounds": "1",
                   "federation.epochs": "2"},
            margin=0.10,
        ),
        Workload(
            name="wide",
            why="B=128 S=8 on 10 Dirichlet(1.0) clients, M=K=2 r=8, aux off: "
                "1,024 tokens per op, frozen attention, FFN and evaluation dominate",
            overrides={
                "adapter.experts": "2", "adapter.rank": "8",
                "aux.lambda": "0",
                "backbone.seq_len": "8",
                "data.classes": "10", "data.input_dim": "16", "data.n": "4000",
                "data.partition": "dirichlet", "data.alpha": "1.0",
                "federation.batch_size": "128", "federation.clients": "10",
                "federation.epochs": "2", "federation.lr": "0.03",
                "sparsity.k": "2", "sparsity.k_high": "2",
            },
            quick={"data.n": "600", "federation.rounds": "1"},
            margin=0.35,
        ),
        Workload(
            name="crowd",
            why="256 Dirichlet(0.3) clients of a few dozen examples, K=4 or 1 by "
                "capability, aux on: per-client models, bookkeeping and memory",
            overrides={
                "backbone.trainable_head": "true",
                "data.n": "7680", "data.partition": "dirichlet",
                "data.alpha": "0.3", "data.test_fraction": "0.2",
                "federation.clients": "256", "federation.epochs": "1",
                "federation.lr": "0.1", "federation.rounds": "2",
                "sparsity.mode": "capability",
            },
            quick={"data.n": "960", "federation.clients": "32",
                   "federation.rounds": "1"},
            margin=0.15,
        ),
    )
}
