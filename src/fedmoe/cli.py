"""Command-line entry points: ``fedmoe run | sweep | compare``.

Any config key can be overridden on the command line as a dotted flag,
e.g. ``--aux.lambda 1e-4 --federation.rounds 0``.  Flags beat the config
file, which beats the preset, which beats the built-in defaults.

Sweep grids are given as repeated ``--grid`` flags.  Each flag is one axis
of the cross product; an axis may bind several keys at once (zipped cells)
for budget-matched comparisons.  Each key is bound by one axis, once::

    --grid "federation.lr=1e-4,3e-4"              # 2 cells
    --grid "adapter.rank,adapter.experts=2:8,4:4" # 2 cells, keys tied

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import sys
import time
from pathlib import Path

from .config import ENV_OUTPUT_ROOT, PRESETS, ExperimentConfig, parse_config_file
from .errors import ConfigurationError, InputError
from .federation import METRICS_COLUMNS, run_experiment

SUMMARY_FIXED_COLUMNS = ("final_accuracy", "final_mean_util_kl", "status")


def parse_override_flags(tokens: list[str]) -> dict[str, str]:
    """``--dotted.key value`` or ``--dotted.key=value`` pairs -> raw dict."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key, _, value = body.partition("=")
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigurationError(f"flag --{key} is missing a value")
            value = tokens[i + 1]
            i += 2
        if not key:
            raise ConfigurationError(f"malformed flag {token!r}")
        overrides[key] = value
    return overrides


def parse_axis(spec: str) -> list[dict[str, str]]:
    """One ``--grid`` axis -> list of {key: value} cells."""
    head, sep, tail = spec.partition("=")
    if not sep or not head.strip() or not tail.strip():
        raise ConfigurationError(f"malformed grid axis {spec!r}, "
                                 "expected key[,key2]=v[:v2],...")
    keys = [k.strip() for k in head.split(",")]
    twice = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
    if twice is not None:
        raise ConfigurationError(f"grid key {twice!r} is bound more than once")
    cells = []
    for cell_text in tail.split(","):
        parts = [p.strip() for p in cell_text.split(":")]
        if len(parts) != len(keys):
            raise ConfigurationError(
                f"grid cell {cell_text!r} has {len(parts)} values for "
                f"{len(keys)} keys in axis {spec!r}")
        cells.append(dict(zip(keys, parts)))
    return cells


def _layered_config(args, overrides: dict[str, str]) -> ExperimentConfig:
    preset = dict(PRESETS[args.preset]) if args.preset else {}
    file_items = parse_config_file(args.config) if args.config else {}
    return ExperimentConfig.resolve(preset, file_items, overrides)


def _output_root(explicit: str | None, cfg: ExperimentConfig) -> Path:
    """``--out``, else ``output.dir``, else ``$FEDMOE_RUNS``, else ./runs."""
    root = explicit or cfg.output.dir or os.environ.get(ENV_OUTPUT_ROOT)
    return Path(root or "runs")


def _claim_dir(root: Path, name: str) -> Path:
    """A fresh directory under root; existing names get a numeric suffix."""
    root.mkdir(parents=True, exist_ok=True)
    candidate = root / name
    counter = 1
    while True:
        try:
            candidate.mkdir(exist_ok=False)
            return candidate
        except FileExistsError:
            candidate = root / f"{name}-{counter}"
            counter += 1


def _stamp() -> str:
    return time.strftime("%Y%m%d-%H%M%S")


# ---------------------------------------------------------------------------
# verbs


def cmd_run(args, overrides: dict[str, str]) -> int:
    cfg = _layered_config(args, overrides)
    run_dir = _claim_dir(_output_root(args.out, cfg),
                         f"{_stamp()}-{cfg.hash_id()}")
    result = run_experiment(cfg, run_dir)
    for report in result.reports:
        print(f"round {report.round_index}: task {report.task_loss:.4f} "
              f"aux {report.aux_loss:.4f} accuracy {report.accuracy:.4f} "
              f"mean_util_kl {report.utilization.mean_kl:.4f}")
    print(f"run dir: {run_dir}")
    return 0


def cmd_sweep(args, overrides: dict[str, str]) -> int:
    base_cfg = _layered_config(args, overrides)  # fail fast on the base
    axes = [parse_axis(spec) for spec in (args.grid or [])]
    swept_keys = [key for axis in axes for key in axis[0]]
    base_items = dict(base_cfg.to_items())
    for i, key in enumerate(swept_keys):
        if key not in base_items:
            raise ConfigurationError(f"unknown grid key {key!r}")
        if key in swept_keys[:i]:
            raise ConfigurationError(f"grid key {key!r} is bound more than once")
        if key == "output.dir":  # not in hash_id: every cell would share one dir
            raise ConfigurationError("output.dir cannot be swept: every cell "
                                     "is written under the sweep directory")
    sweep_dir = _claim_dir(_output_root(args.out, base_cfg),
                           f"sweep-{_stamp()}")

    rows = []
    # product() of zero axes yields one empty cell; an empty grid runs none
    cells = itertools.product(*axes) if axes else ()
    for cell_parts in cells:
        cell: dict[str, str] = {}
        for part in cell_parts:
            cell.update(part)
        row = {key: cell.get(key, "") for key in swept_keys}
        try:
            cfg = ExperimentConfig.resolve(base_items, cell)
            result = run_experiment(cfg, sweep_dir / f"cell-{cfg.hash_id()}")
            row["config_id"] = cfg.hash_id()
            if result.reports:
                final = result.reports[-1]
                row["final_accuracy"] = f"{final.accuracy:.12g}"
                row["final_mean_util_kl"] = \
                    f"{final.utilization.mean_kl:.12g}"
            else:
                row["final_accuracy"] = row["final_mean_util_kl"] = ""
            row["status"] = "ok"
        except Exception as exc:  # record the cell, keep sweeping
            row.setdefault("config_id", "")
            row["final_accuracy"] = row["final_mean_util_kl"] = ""
            row["status"] = "error"
            print(f"cell {row!r} failed: {exc}", file=sys.stderr)
        rows.append(row)

    columns = ["config_id", *swept_keys, *SUMMARY_FIXED_COLUMNS]
    summary = sweep_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep dir: {sweep_dir}")
    return 0


def read_global_rows(path: Path) -> dict[int, dict[str, str]]:
    """The ``global`` rows of a metrics.csv, by round; a malformed file
    raises an InputError naming the path and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in METRICS_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise InputError(f"{path}:1: header lacks {', '.join(missing)}")
        rows = {}
        for row in reader:
            if row["client_id"] != "global":
                continue
            try:
                rows[int(row["round"])] = row
            except (TypeError, ValueError):
                raise InputError(f"{path}:{reader.line_num}: round "
                                 f"{row['round']!r} is not an integer") from None
        return rows


def cmd_compare(args) -> int:
    runs = []
    rounds_seen: list[set[int]] = []
    for dir_text in args.run_dirs:
        run_dir = Path(dir_text)
        metrics = run_dir / "metrics.csv"
        if not metrics.is_file():
            raise FileNotFoundError(f"no metrics.csv under {run_dir}")
        global_rows = read_global_rows(metrics)
        runs.append((run_dir.name, global_rows))
        rounds_seen.append(set(global_rows))

    if len(set(map(frozenset, rounds_seen))) > 1:
        print("warning: runs cover different rounds; missing cells left "
              "blank", file=sys.stderr)
    all_rounds = sorted(set().union(*rounds_seen)) if rounds_seen else []

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["round", "run", "task_loss", "aux_loss", "accuracy",
                     "mean_util_kl"])
    for round_index in all_rounds:
        for name, global_rows in runs:
            row = global_rows.get(round_index)
            if row is None:
                writer.writerow([round_index, name, "", "", "", ""])
            else:
                writer.writerow([round_index, name, row["task_loss"],
                                 row["aux_loss"], row["accuracy"],
                                 row["mean_util_kl"]])
    text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmoe",
        description="Federated sparse-adapter training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    sweep_p = sub.add_parser("sweep", help="run a grid of experiments")
    for p in (run_p, sweep_p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named baseline configuration")
        p.add_argument("--out", help="output root (default output.dir, "
                       "then $%s, then ./runs)" % ENV_OUTPUT_ROOT)
    sweep_p.add_argument("--grid", action="append", metavar="AXIS",
                         help="sweep axis, e.g. 'federation.lr=1e-4,3e-4'")

    compare_p = sub.add_parser("compare",
                               help="merge per-round metrics of several runs")
    compare_p.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    compare_p.add_argument("--out", help="write merged CSV here "
                           "(default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    try:
        if args.command == "compare":
            if rest:
                raise ConfigurationError(
                    f"compare takes no config overrides: {rest[0]!r}")
            return cmd_compare(args)
        overrides = parse_override_flags(rest)
        if args.command == "run":
            return cmd_run(args, overrides)
        return cmd_sweep(args, overrides)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
