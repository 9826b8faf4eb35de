"""Correctness checks on one experiment, computed apart from the program.

Each check reads the run's artifacts with its own parser, or recomputes a
quantity in plain numpy or ``math``, and raises :class:`CheckFailed` naming
what disagrees.  None of them compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

EPS = np.finfo(np.float64).eps
# metrics.csv, heatmap.csv and mean_probs.csv print 12 significant digits.
PRINTED_REL = 1e-11


class CheckFailed(Exception):
    pass


# -- artifact readers ---------------------------------------------------------


def parse_checkpoint(blob: bytes) -> list[tuple[str, np.ndarray]]:
    """Read ``checkpoint.bin``: a text header, then little-endian float64.

    Header: ``fedmoe-checkpoint <version>``, ``tensors <n>``, one
    ``name shape offset nbytes`` line per tensor, ``end``.  Tensors must tile
    the payload exactly, in order, with nothing left over.
    """
    lines = []
    pos = 0
    while True:
        nl = blob.find(b"\n", pos)
        if nl < 0:
            raise CheckFailed("checkpoint: header not terminated")
        line = blob[pos:nl].decode("ascii", errors="replace")
        pos = nl + 1
        lines.append(line)
        if line == "end":
            break
    if not lines[0].startswith("fedmoe-checkpoint "):
        raise CheckFailed(f"checkpoint: bad magic {lines[0]!r}")
    tag, _, count = lines[1].partition(" ")
    if tag != "tensors" or not count.isdigit():
        raise CheckFailed(f"checkpoint: bad count line {lines[1]!r}")
    records = lines[2:-1]
    if len(records) != int(count):
        raise CheckFailed(f"checkpoint: {len(records)} records, header says {count}")
    payload = blob[pos:]
    out = []
    expected_offset = 0
    for record in records:
        parts = record.split(" ")
        if len(parts) != 4:
            raise CheckFailed(f"checkpoint: bad record {record!r}")
        name, shape_text, offset, nbytes = parts
        shape = tuple(int(s) for s in shape_text.split(","))
        offset, nbytes = int(offset), int(nbytes)
        if offset != expected_offset or nbytes != 8 * math.prod(shape):
            raise CheckFailed(f"checkpoint: {name} at {offset}+{nbytes} does not "
                              f"tile the payload for shape {shape}")
        if offset + nbytes > len(payload):
            raise CheckFailed(f"checkpoint: payload truncated in {name}")
        out.append((name, np.frombuffer(payload[offset:offset + nbytes],
                                        dtype="<f8").reshape(shape)))
        expected_offset = offset + nbytes
    if expected_offset != len(payload):
        raise CheckFailed(f"checkpoint: {len(payload) - expected_offset} "
                          "trailing payload bytes")
    return out


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_metadata(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- checks -------------------------------------------------------------------


def check_fedavg(global_params: list[np.ndarray], uploads: list[list[np.ndarray]],
                 sizes: list[int]) -> None:
    """Global parameters equal the shard-weighted mean of the uploads.

    The program anchors its sum on the first upload; the plain weighted sum
    here rounds differently, by at most a few ulps per term.
    """
    if len(uploads) != len(sizes):
        raise CheckFailed(f"fedavg: {len(uploads)} uploads, {len(sizes)} shards")
    total = float(sum(sizes))
    for j, got in enumerate(global_params):
        want = np.zeros_like(got)
        for params, size in zip(uploads, sizes):
            want += (size / total) * params[j]
        scale = max(float(np.max(np.abs(p[j]))) for p in uploads)
        tol = 4.0 * (len(uploads) + 1) * EPS * max(scale, EPS)
        err = float(np.max(np.abs(got - want)))
        if err > tol:
            raise CheckFailed(f"fedavg: tensor {j} off by {err:.3g} "
                              f"(tolerance {tol:.3g})")


def check_checkpoint(blob: bytes, names: list[str],
                     global_params: list[np.ndarray]) -> None:
    """checkpoint.bin holds exactly the final global parameters, bit for bit."""
    tensors = parse_checkpoint(blob)
    if [n for n, _ in tensors] != list(names):
        raise CheckFailed("checkpoint: tensor names differ from the model's")
    for (name, arr), want in zip(tensors, global_params):
        if arr.shape != want.shape or arr.tobytes() != np.asarray(
                want, dtype="<f8").tobytes():
            raise CheckFailed(f"checkpoint: {name} differs from the global "
                              "parameters")


def check_heatmap(rows: list[dict[str, str]], test_examples: int, seq_len: int,
                  eval_k: int) -> None:
    """Each layer's selections add up to every test token routed eval_k times,
    and each frequency is its count over the layer total."""
    totals: dict[str, int] = {}
    for row in rows:
        totals[row["layer"]] = totals.get(row["layer"], 0) + int(row["count"])
    want = test_examples * seq_len * eval_k
    for layer, total in totals.items():
        if total != want:
            raise CheckFailed(f"heatmap: layer {layer} counts sum to {total}, "
                              f"expected {test_examples}*{seq_len}*{eval_k} = {want}")
    for row in rows:
        freq = int(row["count"]) / totals[row["layer"]]
        if not math.isclose(float(row["frequency"]), freq, rel_tol=PRINTED_REL,
                            abs_tol=1e-15):
            raise CheckFailed(f"heatmap: layer {row['layer']} expert "
                              f"{row['expert']} frequency {row['frequency']} "
                              f"is not its count share {freq!r}")


def check_mean_probs(rows: list[dict[str, str]]) -> None:
    """Each layer's token-mean routing distribution sums to 1."""
    sums: dict[str, float] = {}
    for row in rows:
        sums[row["layer"]] = sums.get(row["layer"], 0.0) + float(row["mean_prob"])
    for layer, total in sums.items():
        if abs(total - 1.0) > 1e-9:
            raise CheckFailed(f"mean_probs: layer {layer} sums to {total!r}")


def utilization_kl_from_heatmap(rows: list[dict[str, str]]) -> float:
    """Mean over layers of KL(selection frequencies || uniform), in math."""
    counts: dict[str, list[int]] = {}
    for row in rows:
        counts.setdefault(row["layer"], []).append(int(row["count"]))
    kls = []
    for layer_counts in counts.values():
        total = sum(layer_counts)
        m = len(layer_counts)
        kl = 0.0
        for c in layer_counts:
            if c:
                f = c / total
                kl += f * math.log(f * m)
        kls.append(max(kl, 0.0))
    return math.fsum(kls) / len(kls)


def check_utilization(rows: list[dict[str, str]], reported: str,
                      full_activation: bool) -> None:
    """metrics.csv's final mean_util_kl matches the heatmap; exactly 0 when
    every token selects every expert."""
    want = utilization_kl_from_heatmap(rows)
    got = float(reported)
    if full_activation:
        if got != 0.0 or want != 0.0:
            raise CheckFailed(f"utilization: K = M but KL is {reported} "
                              f"(heatmap gives {want!r})")
    elif not math.isclose(got, want, rel_tol=PRINTED_REL, abs_tol=1e-13):
        raise CheckFailed(f"utilization: metrics.csv says {reported}, "
                          f"heatmap gives {want!r}")


def check_round_losses(rows: list[dict[str, str]], sizes: list[int]) -> None:
    """Each round's global task_loss is the shard-weighted mean of its clients',
    and every client reports once per round."""
    total = float(sum(sizes))
    rounds: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        rounds.setdefault(row["round"], []).append(row)
    if not rounds:
        raise CheckFailed("metrics.csv: no rounds")
    for r, group in rounds.items():
        clients = [row for row in group if row["client_id"] != "global"]
        glob = [row for row in group if row["client_id"] == "global"]
        ids = sorted(int(row["client_id"]) for row in clients)
        if ids != list(range(len(sizes))) or len(glob) != 1:
            raise CheckFailed(f"metrics.csv: round {r} rows do not cover each "
                              "client once plus one global row")
        losses = {int(row["client_id"]): float(row["task_loss"]) for row in clients}
        want = math.fsum(sizes[n] / total * losses[n] for n in range(len(sizes)))
        got = float(glob[0]["task_loss"])
        scale = max(abs(v) for v in losses.values())
        if abs(got - want) > PRINTED_REL * max(scale, 1.0):
            raise CheckFailed(f"metrics.csv: round {r} global task_loss {got!r} "
                              f"is not the shard-weighted mean {want!r}")


def check_accuracy(accuracy: float, classes: int, margin: float) -> None:
    floor = 1.0 / classes + margin
    if not accuracy >= floor:
        raise CheckFailed(f"accuracy {accuracy:.4f} below chance 1/{classes} "
                          f"+ margin {margin} = {floor:.4f}")


def check_identical(digests: list[dict[str, str]]) -> None:
    """Every repetition with the same seed wrote byte-identical artifacts."""
    for rep, d in enumerate(digests[1:], start=1):
        for name, value in d.items():
            if value != digests[0][name]:
                raise CheckFailed(f"replay: repetition {rep} wrote a different "
                                  f"{name}")


# -- one experiment -----------------------------------------------------------


REPLAYED = ("metrics.csv", "checkpoint.bin", "heatmap.csv", "mean_probs.csv")


def expected_eval_k(items: dict[str, str]) -> int:
    """The evaluation budget the config implies: sparsity.eval_k, else the
    widest client budget."""
    if int(items["sparsity.eval_k"]):
        return int(items["sparsity.eval_k"])
    if items["sparsity.mode"] == "fixed":
        return int(items["sparsity.k"])
    clients = int(items["federation.clients"])
    n_high = round(float(items["sparsity.high_fraction"]) * clients)
    budgets = [int(items["sparsity.k_high"])] * (n_high > 0)
    budgets += [int(items["sparsity.k_low"])] * (n_high < clients)
    return max(budgets)


def expected_test_examples(items: dict[str, str]) -> int:
    """Size of the stratified test split of the synthetic data: each class
    gives round(test_fraction * count) examples, keeping one on each side."""
    n, classes = int(items["data.n"]), int(items["data.classes"])
    fraction = float(items["data.test_fraction"])
    total = 0
    for c in range(classes):
        count = n // classes + (1 if c < n % classes else 0)
        total += min(max(int(round(fraction * count)), 1), count - 1)
    return total


def check_experiment(result, run_dir: Path, items: dict[str, str],
                     margin: float) -> list[str]:
    """Run every per-experiment check; return the failures as messages."""
    failures = []

    def attempt(fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            failures.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")

    run_dir = Path(run_dir)
    try:
        meta = read_metadata(run_dir / "metadata.txt")
        sizes = [int(s) for s in meta["shard_sizes"].split(",")]
        tested = int(meta["test_examples"])
        metrics = read_csv(run_dir / "metrics.csv")
        heatmap = read_csv(run_dir / "heatmap.csv")
        mean_probs = read_csv(run_dir / "mean_probs.csv")
        blob = (run_dir / "checkpoint.bin").read_bytes()
        final = [row for row in metrics if row["client_id"] == "global"][-1]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]

    uploads = [c.adapter_params() for c in result.clients]
    full = int(items["adapter.experts"]) == expected_eval_k(items)
    attempt(check_fedavg, result.server.global_params, uploads, sizes)
    attempt(check_checkpoint, blob, result.parameter_names,
            result.server.global_params)
    if tested != expected_test_examples(items):
        failures.append(f"metadata: {tested} test examples, expected "
                        f"{expected_test_examples(items)}")
    attempt(check_heatmap, heatmap, expected_test_examples(items),
            int(items["backbone.seq_len"]), expected_eval_k(items))
    attempt(check_mean_probs, mean_probs)
    attempt(check_utilization, heatmap, final["mean_util_kl"], full)
    attempt(check_round_losses, metrics, sizes)
    attempt(check_accuracy, float(final["accuracy"]),
            int(items["data.classes"]), margin)
    return failures
