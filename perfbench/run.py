"""Benchmark of the fedmoe simulator: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the program's layers (see
probes.py) and reports per-layer metrics plus the tracing overhead.  Every
experiment's artifacts are checked (see checks.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the arrays are tiny and the load comes from this process.
# Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timings are medians over repetitions: other tenants slow the shared
# 2-core machine this was sized on by up to 1.8x for seconds at a time.
RUN_SECONDS = 15
# Set-up is a few milliseconds on the small workloads: repeat it for at least
# this long (and at least SETUP_MIN_REPS times) and report the median.
SETUP_SECONDS = 1.0
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 60
# After each experiment, score its final model at least EVAL_MIN_REPS times
# and for at least EVAL_SECONDS.
EVAL_MIN_REPS = 3
EVAL_SECONDS = 0.3

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("experiment_s", "s", "lower", 0.25),
    ("eval_samples_per_s", "samples/s", "higher", 0.25),
    ("peak_mb", "MB", "lower", 0.25),
)
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")

def spec() -> dict:
    """The fixed form of BENCHMARK.json."""
    per_layer = [{"name": m.name, "unit": m.unit, "better": m.better}
                 for m in probes.layer_metrics()]
    name, unit, better = TRACE_OVERHEAD
    per_layer.append({"name": name, "unit": unit, "better": better})
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": per_layer,
    }


def import_program():
    """Import fedmoe from this checkout's src/, never from anywhere else."""
    if not (SRC / "fedmoe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'fedmoe'}; run from a "
                 "checkout that has src/")
    sys.path.insert(0, str(SRC))
    import fedmoe
    if Path(fedmoe.__file__).resolve().parent != SRC / "fedmoe":
        sys.exit(f"perfbench: imported fedmoe from {fedmoe.__file__}, "
                 f"not from {SRC}")
    from fedmoe.config import ExperimentConfig
    from fedmoe.federation import run_experiment
    from fedmoe.metrics import evaluate_accuracy
    return ExperimentConfig, run_experiment, evaluate_accuracy


def fmt(times: list[float]) -> str:
    return "[" + ", ".join(f"{t:.4f}" for t in times) + "]"


class Bench:
    """State of one benchmark run: its config, counters and check results."""

    def __init__(self, workload, seed: int, quick: bool):
        self.ExperimentConfig, self.run_experiment, self.evaluate_accuracy = \
            import_program()
        self.items = workload.config_items(seed, quick)
        # Quick runs train too little to beat chance by a margin.
        self.margin = 0.0 if quick else workload.margin
        self.cfg = self.ExperimentConfig.resolve(self.items)
        self.setup_cfg = self.ExperimentConfig.resolve(
            {**self.items, "federation.rounds": "0"})
        unpinned = sorted(set(dict(self.cfg.to_items())) - set(self.items))
        if unpinned:
            print(f"perfbench: config keys not pinned by the workload: "
                  f"{', '.join(unpinned)}", file=sys.stderr)
        self.dir = OUT / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[dict[str, str]] = []

    def experiment(self, cfg, run_dir: Path):
        """One run_experiment call, counted; None if it raised."""
        self.attempted += 1
        try:
            return self.run_experiment(cfg, run_dir)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, result, run_dir: Path) -> None:
        problems = checks.check_experiment(result, run_dir, self.items,
                                           self.margin)
        self.failures.extend(problems)
        self.digests.append({name: checks.digest(run_dir / name)
                             for name in checks.REPLAYED
                             if (run_dir / name).exists()})
        shutil.rmtree(run_dir)

    def setup_seconds(self) -> list[float]:
        times = []
        while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_SECONDS
                                              and len(times) < SETUP_MAX_REPS):
            gc.collect()
            start = time.perf_counter()
            result = self.experiment(self.setup_cfg, self.dir / "setup")
            times.append(time.perf_counter() - start)
            if result is None:
                break
            shutil.rmtree(self.dir / "setup")
        return times

    def peak_mb(self) -> float:
        """Peak bytes allocated during one experiment, as tracemalloc counts
        them: only allocations made after it starts, so the interpreter's and
        the libraries' own footprint is left out."""
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        result = self.experiment(self.cfg, self.dir / "rep")
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        if result is not None:
            self.check(result, self.dir / "rep")
        return peak / 1e6

    def timed(self, evaluate: bool = False):
        """One experiment with nothing wrapped, optionally followed by repeated
        scorings of its final global parameters.

        Returns (experiment seconds, [evaluation seconds], test examples), or
        None if the experiment raised.
        """
        gc.collect()
        start = time.perf_counter()
        result = self.experiment(self.cfg, self.dir / "rep")
        elapsed = time.perf_counter() - start
        if result is None:
            return None
        final = result.reports[-1].accuracy
        evals = []
        while evaluate and (len(evals) < EVAL_MIN_REPS
                            or sum(evals) < EVAL_SECONDS):
            start = time.perf_counter()
            accuracy = self.evaluate_accuracy(
                result.eval_backbone, result.server.global_params, result.test)
            evals.append(time.perf_counter() - start)
            if accuracy != final:
                self.failures.append(f"evaluation: re-scoring the final model "
                                     f"gives {accuracy}, the run reported "
                                     f"{final}")
        self.check(result, self.dir / "rep")
        return elapsed, evals, len(result.test)

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        setup = self.setup_seconds()
        peak = self.peak_mb()
        exp_times, eval_times, tested = [], [], 0
        start = last = time.perf_counter()
        # Start another repetition only if it should end within --seconds.
        while not exp_times or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            out = self.timed(evaluate=True)
            if out is None:
                break
            exp_times.append(out[0])
            eval_times.extend(out[1])
            tested = out[2]
        if not exp_times:
            return {}
        print(f"samples (s): {len(setup)} set-ups, median "
              f"{statistics.median(setup):.6f}; experiments {fmt(exp_times)}; "
              f"evaluations {fmt(eval_times)}")
        return {
            "setup_s": (statistics.median(setup), "s"),
            "experiment_s": (statistics.median(exp_times), "s"),
            "eval_samples_per_s": (tested / statistics.median(eval_times),
                                   "samples/s"),
            "peak_mb": (peak, "MB"),
        }

    def traced(self, seconds: float,
               spans_path: Path) -> dict[str, tuple[float, str]]:
        """Alternate untraced and traced experiments after one warm-up; report
        the per-layer medians and the traced-minus-untraced overhead."""
        self.timed()
        plain, wrapped, layers = [], [], []
        tracer = None
        start = last = time.perf_counter()
        while not wrapped or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            out = self.timed()
            if out is None:
                break
            plain.append(out[0])
            tracer = probes.Tracer()
            with tracer:
                out = self.timed()
            if out is None:
                break
            wrapped.append(out[0])
            layers.append(probes.measure(tracer.summary()))
        if not wrapped:
            return {}
        gone = tracer.missing + sorted(tracer.broken)
        if gone:
            print(f"probes without a target (their metrics are absent): "
                  f"{', '.join(gone)}")
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} from the last traced experiment, "
              f"written to {spans_path.relative_to(ROOT)}")
        out = {name: (statistics.median(d[name][0] for d in layers), unit)
               for name, (_, unit) in layers[-1].items()}
        out["trace.overhead_s"] = (statistics.median(wrapped)
                                   - statistics.median(plain), "s")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny configs, for the benchmark's own tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(WORKLOADS[args.workload], args.seed, args.quick)
    bench.dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics = bench.traced(args.seconds, spans)
            declared = {m["name"] for m in spec()["per_layer"]}
        else:
            metrics = bench.end_to_end(args.seconds)
            declared = {n for n, *_ in END_TO_END}
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    if not metrics:
        print("perfbench: no experiment completed", file=sys.stderr)
        return 1
    try:
        checks.check_identical(bench.digests)
    except checks.CheckFailed as exc:
        bench.failures.append(str(exc))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}{'  quick' if args.quick else ''}")
    for name, (value, unit) in metrics.items():
        note = "" if name in declared else "  (not declared)"
        print(f"  {name:36s} {value:16.6f} {unit}{note}")
    print(f"  attempted {bench.attempted}  failed {bench.failed}")
    for problem in dict.fromkeys(bench.failures):
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
