"""Regenerate the byte-identity table in ``tests/golden/``.

Each directory ``tests/golden/<workload>-<seed>/`` holds one canonical
``config.txt``, written once from the benchmark's
``WORKLOADS[workload].config_items(seed)``.  ``table.json`` records the
sha256 of the five artifacts every config's run writes, next to the numpy
version and the BLAS configuration the hashes were taken with: the bits
depend on the BLAS kernel, so a table is only binding on the environment it
names.  ``tests/test_golden.py`` re-runs every config and compares.

Usage, from the root of a checkout, to rewrite ``table.json``::

    PYTHONPATH=src python3 tests/regenerate_golden.py

Before writing, it prints for each run the artifacts whose hash moved
against the committed table, or ``unchanged``.

A change that means to move numerics regenerates the table and says so,
with the acceptance criteria 6 and 7 margins.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, as the benchmark runs; set before numpy is imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fedmoe.config import ExperimentConfig, parse_config_file
from fedmoe.federation import run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "table.json"
ARTIFACTS = ("metrics.csv", "checkpoint.bin", "heatmap.csv", "mean_probs.csv",
             "metadata.txt")
RUNS = tuple(f"{w}-{seed}" for w in ("grid", "wide", "crowd")
             for seed in (1, 2, 3))


def blas_config() -> str:
    """The BLAS numpy runs on: the library's runtime configuration string
    (which names the kernel picked for this CPU) when it can be asked,
    else the build configuration numpy records."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            fn = getattr(ctypes.CDLL(str(lib)), name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return " ".join(fn().decode().split())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    detail = blas.get("openblas configuration") or blas.get("version", "")
    return " ".join(f"{blas['name']} {detail}".split())


def environment() -> dict[str, str]:
    return {"numpy": np.__version__, "blas": blas_config()}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_hashes(run: str, out_dir: Path) -> dict[str, str]:
    """Run ``tests/golden/<run>/config.txt`` into ``out_dir`` and hash its
    artifacts."""
    cfg = ExperimentConfig.resolve(parse_config_file(GOLDEN / run / "config.txt"))
    run_experiment(cfg, out_dir)
    return {name: digest(out_dir / name) for name in ARTIFACTS}


def moved(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The artifacts whose hash in ``got`` differs from ``want``'s."""
    return [name for name in ARTIFACTS if got[name] != want.get(name)]


def main() -> int:
    committed = json.loads(TABLE.read_text())["runs"] if TABLE.exists() else {}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            runs[run] = run_hashes(run, Path(tmp) / run)
            changed = moved(runs[run], committed.get(run, {}))
            print(f"{run}: {'moved ' + ', '.join(changed) if changed else 'unchanged'}")
    TABLE.write_text(json.dumps({**environment(), "runs": runs}, indent=2) + "\n")
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
