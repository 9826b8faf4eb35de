"""Acceptance suite: one test per shipping criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion.  Each test states its tolerance and time budget; the
directional training criteria (6, 7) share one grid of federated runs
built by the module-scoped fixture below.
"""

import csv
import itertools
import time

import numpy as np
import pytest

from fedmoe import cli
from fedmoe import tensor as tz
from fedmoe.adapter import AdapterConfig, MoEAdapter, topk_mask
from fedmoe.backbone import Backbone, BackboneConfig
from fedmoe.config import ExperimentConfig
from fedmoe.federation import load_checkpoint, run_experiment, save_checkpoint
from fedmoe.losses import (AuxLossConfig, aux_loss_layer, kl_divergence,
                           total_loss, uniform_target)
from fedmoe.tensor import Tensor

from oracles import (aggregate_uploads, finite_difference_grads, kl_direct,
                     lora_adapter, route)


# ---------------------------------------------------------------------------
# criterion 1 — low-rank adapter <-> expert-split equivalence


def rank_splits(total: int, parts: int):
    """All ordered positive integer splits of ``total`` into ``parts``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in rank_splits(total - first, parts - 1):
            yield (first, *rest)


def test_criterion_01_lora_split_equivalence():
    """50 random (A, B), d=16, r=8, every split into M in {1,2,4,8}:
    adapter output equals base + B.A.x for 100 inputs within 1e-9, < 5 s."""
    start = time.monotonic()
    d, r = 16, 8
    rng = np.random.default_rng(101)
    splits = [s for m in (1, 2, 4, 8) for s in rank_splits(r, m)]
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(r, d))
        b = rng.normal(size=(d, r))
        x = rng.normal(size=(100, d))
        base = x @ rng.normal(size=(d, d))
        want = base + x @ a.T @ b.T
        for ranks in splits:
            adapter = lora_adapter(a, b, list(ranks))
            out = adapter.forward(Tensor(base[None]), Tensor(x[None]))[0]
            got = out.values[0]
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"max abs deviation {worst:.3g}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2 — routing contract


def test_criterion_02_routing_contract():
    """10,000 tokens, M=8, K in {1,2,4}: exactly K nonzero weights summing
    to 1 within 1e-12, selected set equals brute-force top-K, < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    d, m, tokens = 16, 8, 10_000
    x = rng.normal(size=(tokens, d))
    wr = rng.normal(size=(m, d))
    logits = x @ wr.T
    for k in (1, 2, 4):
        mask = topk_mask(logits, k)
        weights = tz.masked_softmax(Tensor(logits), mask).values
        nonzero = weights > 0.0
        assert (nonzero.sum(axis=1) == k).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0,
                                   atol=1e-12)
        brute = np.sort(np.argsort(-logits, axis=1, kind="stable")[:, :k],
                        axis=1)
        selected = np.sort(np.argsort(~nonzero, axis=1,
                                      kind="stable")[:, :k], axis=1)
        np.testing.assert_array_equal(selected, brute)
        # spot-check a plain per-token routing oracle against the same math
        adapter = MoEAdapter(d, AdapterConfig(experts=m, rank=1))
        adapter.set_budget(k)
        adapter.WR.values[...] = wr
        for t in rng.choice(tokens, size=50, replace=False):
            token_weights, chosen = route(adapter, x[t])
            np.testing.assert_allclose(token_weights, weights[t],
                                       rtol=1e-12, atol=1e-15)
            assert list(chosen) == list(brute[t])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 3 — end-to-end gradient correctness


def test_criterion_03_end_to_end_gradients():
    """L=2, d=16, M=4, K=2: analytic grads of the total loss match central
    finite differences (step 1e-5) within relative error 1e-4, < 60 s."""
    start = time.monotonic()
    rng = np.random.default_rng(303)
    backbone = Backbone(BackboneConfig(layers=2, dim=16, heads=4, seq_len=4),
                        AdapterConfig(experts=4, rank=2), classes=4,
                        input_dim=8, frozen_seed=3)
    backbone.set_budget(2)
    # generic parameter values: live gradients everywhere, no routing ties
    for adapter in backbone.adapters:
        adapter.WR.values[...] = rng.normal(0.0, 0.5, adapter.WR.shape)
        adapter.E2.values[...] = rng.normal(0.0, 0.1, adapter.E2.shape)
    batch = rng.normal(size=(8, 4, 8))
    labels = rng.integers(0, 4, size=8)[None]  # a stack of one member
    cfg = AuxLossConfig(lam=1e-4, theta_th=0.3)
    params = backbone.trainable_parameters()

    def loss_value(_perturbed_in_place) -> float:
        logits = backbone.forward(batch)
        task = tz.cross_entropy(logits, labels)
        terms = [aux_loss_layer(p, cfg) for p in backbone.last_layer_probs]
        return total_loss(task, terms, cfg)[0].item()

    with tz.Tape() as tape:
        logits = backbone.forward(batch)
        task = tz.cross_entropy(logits, labels)
        terms = [aux_loss_layer(p, cfg) for p in backbone.last_layer_probs]
        tape.backward(total_loss(task, terms, cfg)[0])
    analytic = [p.grad.copy() for p in params]
    fd = finite_difference_grads(loss_value, [p.values for p in params],
                                 step=1e-5)
    worst = 0.0
    for got, want in zip(analytic, fd):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-7)
        meaningful = np.abs(want) > 1e-6
        if meaningful.any():
            rel = np.abs(got - want)[meaningful] / np.abs(want)[meaningful]
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"max relative error {worst:.3g}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 4 — auxiliary-loss branches


def test_criterion_04_aux_loss_branches():
    """The three stated aux examples hold (values to 1e-4, the gated branch
    bitwise) and KL nonnegativity holds on 1,000 random distributions."""
    p = [0.5, 0.25, 0.125, 0.125]
    kl = kl_divergence(np.array(p), uniform_target(4)).item()
    assert kl == pytest.approx(0.1733, abs=1e-4)
    assert kl == pytest.approx(kl_direct(p, [0.25] * 4), abs=1e-12)

    fired = aux_loss_layer(np.array(p), AuxLossConfig(theta_th=0.3))
    assert fired.item() == pytest.approx(0.1733, abs=1e-4)

    gated = aux_loss_layer(np.array(p), AuxLossConfig(theta_th=0.6))
    assert gated.item() == 0.0  # exactly zero, not merely small

    rng = np.random.default_rng(404)
    for _ in range(1000):
        m = int(rng.integers(2, 17))
        dist = rng.dirichlet(np.full(m, 0.5))
        value = kl_divergence(dist, uniform_target(m)).item()
        assert value >= -1e-12


# ---------------------------------------------------------------------------
# criterion 5 — aggregation algebra


def test_criterion_05_aggregation_algebra():
    """Consensus idempotence, linearity, weight normalization, and the
    {1,3}-size example all hold within 1e-12."""
    rng = np.random.default_rng(505)
    shapes = [(3, 4), (2,), (2, 2, 2)]
    consensus = [rng.normal(size=s) for s in shapes]
    out = aggregate_uploads([([p.copy() for p in consensus], s)
                             for s in (1, 3, 5)])
    for got, want in zip(out, consensus):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    sizes = [5, 1, 9]
    ups_a = [([rng.normal(size=s) for s in shapes], n) for n in sizes]
    ups_b = [([rng.normal(size=s) for s in shapes], n) for n in sizes]
    alpha, beta = 0.3, -2.2
    mixed = [([alpha * pa + beta * pb for pa, pb in zip(a, b)], n)
             for (a, n), (b, _) in zip(ups_a, ups_b)]
    lhs = aggregate_uploads(mixed)
    rhs = [alpha * x + beta * y
           for x, y in zip(aggregate_uploads(ups_a),
                           aggregate_uploads(ups_b))]
    for got, want in zip(lhs, rhs):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    weights = np.array(sizes) / sum(sizes)
    assert abs(weights.sum() - 1.0) <= 1e-12

    out = aggregate_uploads([([np.array([0.0])], 1), ([np.array([4.0])], 3)])
    assert abs(out[0][0] - 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# criteria 6 and 7 — directional federated-training claims (shared runs)

DIRECTIONAL_SEEDS = (0, 1, 2, 3, 4)

# pinned by the claim: C=4, n=2000, separation 3.0, N=4, one_label,
# L=2, d=32, M=8, K=2, T=20; everything else is the tuned training recipe
DIRECTIONAL_BASE = {
    "data.n": "2000", "data.classes": "4", "data.separation": "3.0",
    "federation.clients": "4", "federation.rounds": "20",
    "backbone.layers": "2", "backbone.dim": "32",
    "adapter.experts": "8", "sparsity.k": "2",
    "data.input_dim": "2", "backbone.seq_len": "2",
    "data.test_fraction": "0.5",
    "federation.lr": "0.01", "federation.epochs": "4",
    "federation.batch_size": "32", "federation.weight_decay": "0.1",
}

AUX_ON = {"aux.lambda": "1e-4", "aux.theta_th": "0.3"}
AUX_OFF = {"aux.lambda": "0"}


def _directional_run(partition: str, aux: dict, seed: int):
    overrides = dict(DIRECTIONAL_BASE)
    overrides.update(aux)
    if partition.startswith("dirichlet"):
        overrides["data.partition"] = "dirichlet"
        overrides["data.alpha"] = partition.split(":")[1]
    else:
        overrides["data.partition"] = partition
    for key in ("seeds.run", "seeds.data", "seeds.frozen"):
        overrides[key] = str(seed)
    cfg = ExperimentConfig.resolve(overrides)
    started = time.monotonic()
    result = run_experiment(cfg)
    final = result.reports[-1]
    return {"accuracy": final.accuracy,
            "mean_util_kl": final.utilization.mean_kl,
            "seconds": time.monotonic() - started}


@pytest.fixture(scope="module")
def directional_grid():
    """Final-round metrics for every (partition, aux, seed) the directional
    criteria need; the one_label runs are shared between criteria 6 and 7."""
    grid = {}
    for seed in DIRECTIONAL_SEEDS:
        grid["one_label", "on", seed] = _directional_run("one_label",
                                                         AUX_ON, seed)
        grid["one_label", "off", seed] = _directional_run("one_label",
                                                          AUX_OFF, seed)
        for partition in ("dirichlet:0.1", "dirichlet:1.0", "iid"):
            grid[partition, "on", seed] = _directional_run(partition,
                                                           AUX_ON, seed)
    return grid


def test_criterion_06_load_balancing_direction(directional_grid):
    """Aux-on (lambda=1e-4, theta_th=0.3) vs aux-off on one_label, 5 seeds:
    (a) lower final mean utilization KL on average; (b) final accuracy
    within 1 point of aux-off on average and strictly higher in the
    majority of seeds.  Budget: its 10 runs in < 10 min."""
    on = [directional_grid["one_label", "on", s] for s in DIRECTIONAL_SEEDS]
    off = [directional_grid["one_label", "off", s] for s in DIRECTIONAL_SEEDS]

    mean_kl_on = np.mean([r["mean_util_kl"] for r in on])
    mean_kl_off = np.mean([r["mean_util_kl"] for r in off])
    assert mean_kl_on < mean_kl_off, \
        f"(a) mean util KL on={mean_kl_on:.4f} vs off={mean_kl_off:.4f}"

    acc_on = np.array([r["accuracy"] for r in on])
    acc_off = np.array([r["accuracy"] for r in off])
    assert acc_on.mean() >= acc_off.mean() - 0.01, \
        f"(b) mean accuracy on={acc_on.mean():.4f} off={acc_off.mean():.4f}"
    wins = int((acc_on > acc_off).sum())
    assert wins > len(DIRECTIONAL_SEEDS) // 2, \
        f"(b) aux-on strictly higher in only {wins}/5 seeds"

    spent = sum(r["seconds"] for r in on + off)
    assert spent < 600.0, f"criterion-6 runs took {spent:.0f}s"


def test_criterion_07_heterogeneity_ordering(directional_grid):
    """Mean final accuracy is non-decreasing along
    one_label -> Dirichlet(0.1) -> Dirichlet(1.0) -> IID over 5 seeds,
    with the whole shared grid under 30 min."""
    order = ("one_label", "dirichlet:0.1", "dirichlet:1.0", "iid")
    means = [np.mean([directional_grid[p, "on", s]["accuracy"]
                      for s in DIRECTIONAL_SEEDS]) for p in order]
    for left, right, a, b in zip(order, order[1:], means, means[1:]):
        assert a <= b, (f"accuracy decreased {left} -> {right}: "
                        f"{a:.4f} -> {b:.4f} (all means: "
                        f"{[f'{m:.4f}' for m in means]})")

    spent = sum(r["seconds"] for r in directional_grid.values())
    assert spent < 1800.0, f"directional grid took {spent:.0f}s"


# ---------------------------------------------------------------------------
# criterion 8 — structural compatibility under adaptive K


def test_criterion_08_adaptive_k_round(tmp_path):
    """A round with per-client K in {1,4} completes, aggregation succeeds,
    and the written global checkpoint loads into every client."""
    cfg = ExperimentConfig.resolve({
        "data.n": "240", "data.input_dim": "6", "backbone.dim": "16",
        "backbone.seq_len": "4", "backbone.heads": "2",
        "adapter.experts": "4", "federation.clients": "4",
        "federation.rounds": "1", "federation.batch_size": "32",
        "sparsity.mode": "capability", "sparsity.k_high": "4",
        "sparsity.k_low": "1", "sparsity.high_fraction": "0.5",
    })
    result = run_experiment(cfg, tmp_path / "run")
    assert sorted({c.k_n for c in result.clients}) == [1, 4]
    assert len(result.reports) == 1  # the round completed end to end

    loaded = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    model = result.eval_backbone
    for client in result.clients:
        model.set_budget(client.k_n)
        model.load_trainable(
            [loaded[name] for name in model.parameter_names()])
        for tensor, want in zip(model.trainable_parameters(),
                                result.server.global_params):
            np.testing.assert_array_equal(tensor.values[0], want)


# ---------------------------------------------------------------------------
# criterion 9 — budget-matched rank-vs-experts sweep


def test_criterion_09_budget_matched_sweep(tmp_path):
    """cmd_sweep over (rank 2, 8 experts), (4, 4), (8, 2) emits a summary
    CSV whose cells have exactly equal per-layer expert parameter budgets."""
    code = cli.main([
        "sweep", "--out", str(tmp_path),
        "--grid", "adapter.rank,adapter.experts=2:8,4:4,8:2",
        "--aux.lambda", "0",        # a 2-expert cell cannot use threshold 0.3
        "--sparsity.k_high", "2", "--sparsity.k_low", "1",
        "--data.n", "240", "--data.input_dim", "6",
        "--backbone.seq_len", "4", "--backbone.heads", "2",
        "--federation.rounds", "1", "--federation.batch_size", "32",
    ])
    assert code == 0
    sweep_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    with open(sweep_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["adapter.rank"], r["adapter.experts"]) for r in rows] \
        == [("2", "8"), ("4", "4"), ("8", "2")]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["final_accuracy"] != "" for r in rows)

    budgets = []
    for row in rows:
        rank, experts = int(row["adapter.rank"]), int(row["adapter.experts"])
        adapter = MoEAdapter(32, AdapterConfig(experts=experts, rank=rank))
        budgets.append(adapter.E1.values.size + adapter.E2.values.size)
    assert budgets[0] == budgets[1] == budgets[2]


# ---------------------------------------------------------------------------
# criterion 10 — replay determinism


def test_criterion_10_replay_determinism(tmp_path):
    """Two runs from the same resolved config write byte-identical
    metrics CSVs."""
    overrides = {
        "data.n": "320", "data.input_dim": "6", "backbone.dim": "16",
        "backbone.seq_len": "4", "backbone.heads": "2",
        "adapter.experts": "4", "sparsity.k": "2",
        "federation.clients": "4", "federation.rounds": "3",
        "federation.batch_size": "32", "aux.theta_th": "0.3",
    }
    cfg = ExperimentConfig.resolve(overrides)
    run_experiment(cfg, tmp_path / "first")
    run_experiment(cfg, tmp_path / "second")
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert first == second and len(first) > 0
