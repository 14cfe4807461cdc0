"""modelsearch benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-search --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up in fresh
interpreters, then at least two searches of the seed (more while they fit
in ``--seconds``), each checked, and all compared byte for byte.
``--trace 1`` runs one plain search and one traced search of the seed,
checks and compares both, and reports the per-layer metrics. The last
line of standard output is the JSON result; perfbench/README.md
describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from workloads import WORKLOADS, write_config

OUT_ROOT = Path(".perfbench_runs")
SETUP_PROBES = 7
MIN_SEARCHES = 2
PROBE_TIMEOUT_S = 60
# The program is single-threaded; one BLAS thread keeps the timings steady
# on a shared machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SkipCounter(logging.Handler):
    """Counts the trainer's 'evaluator failed; skipping sample' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skips = 0

    def emit(self, record):
        if record.getMessage().startswith("evaluator "):
            self.skips += 1


@dataclass
class Search:
    """One search of the workload's seed and what its checks found."""

    out_dir: Path
    start_ns: int
    end_ns: int
    completed: bool = False  # ran to the end and exited 0
    problems: list = field(default_factory=list)
    rows: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Bench:
    """Runs and checks searches of one workload and seed.

    The benchmark's own modules that import numpy or modelsearch are
    imported inside the methods: only after ``main`` has pinned the BLAS
    threads and put the checkout's ``src`` first on the path.
    """

    def __init__(self, args, root: Path):
        import modelsearch.cli
        import modelsearch.config
        import modelsearch.controller
        import modelsearch.evaluators
        import modelsearch.harness
        import modelsearch.kernel
        import modelsearch.space
        import modelsearch.trainer

        self.ms = modelsearch
        self.seed = args.seed
        self.seconds = args.seconds
        self.workload = WORKLOADS[args.workload]
        self.run_dir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.run_dir.mkdir(parents=True)
        self.config_path = write_config(self.workload, root, self.run_dir, args.seed)
        self.config = modelsearch.config.load_experiment_config(self.config_path)
        self.bindings = modelsearch.config.build_evaluators(self.config)

    def search(self, name: str, wraps) -> Search:
        """One search through the command-line entry point, then its checks."""
        from checks import output_problems
        from tracing import patched

        out_dir = self.run_dir / name
        argv = ["search", "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(out_dir)]
        counter = SkipCounter()
        trainer_log = logging.getLogger("modelsearch.trainer")
        trainer_log.addHandler(counter)
        start = perf_counter_ns()
        try:
            with patched(wraps), contextlib.redirect_stdout(sys.stderr):
                start = perf_counter_ns()
                code = self.ms.cli.main(argv)
                end = perf_counter_ns()
        except Exception:  # the search crashed: a failed operation, not a dead run
            traceback.print_exc()
            return Search(out_dir, start, perf_counter_ns(), problems=["search raised"])
        finally:
            trainer_log.removeHandler(counter)
        run = Search(out_dir, start, end, completed=code == 0)
        if code != 0:
            run.problems.append(f"modelsearch search exited with {code}")
            return run
        try:
            with open(out_dir / f"seed_{self.seed}" / "events.csv") as f:
                run.rows = sum(1 for _ in f) - 1
            run.problems += output_problems(
                out_dir, self.seed, self.config, self.bindings, run.rows, counter.skips
            )
        except Exception as e:  # a malformed artifact fails the search, not the run
            run.problems.append(f"artifact check raised {e!r}")
        return run

    def check_repeat(self, first: Search, repeat: Search) -> None:
        """A repeat of the seed must write the bytes the first search wrote."""
        from checks import determinism_problems

        if not first.problems and not repeat.problems:
            repeat.problems += determinism_problems(first.out_dir, repeat.out_dir)

    # -- --trace 0 ------------------------------------------------------------
    def setup_times(self, n: int) -> list[float]:
        """Set-up times of ``n`` fresh interpreters."""
        probe = Path(__file__).with_name("setup_probe.py")
        times = []
        for _ in range(n):
            out = subprocess.run(
                [sys.executable, str(probe), str(self.config_path), str(self.seed)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
            )
            times.append(float(out.stdout.split()[-1]))
        return times

    def end_to_end(self):
        from layers import p90
        from tracing import LoopTimer

        setup = self.setup_times(SETUP_PROBES // 2 + 1)
        runs, iteration_ns, evals_per_s = [], [], []
        n_iter = self.config.trainer.total_iterations
        begin = perf_counter_ns()
        while True:
            timer = LoopTimer()
            run = self.search(f"search_{len(runs)}", timer.wraps(self.ms.trainer))
            if len(timer.iteration_ns) != n_iter:
                run.problems.append(f"{len(timer.iteration_ns)} iterations timed, expected {n_iter}")
            if runs:
                self.check_repeat(runs[0], run)
            runs.append(run)
            if run.completed:
                iteration_ns += timer.iteration_ns
                evals_per_s.append(run.rows / (sum(timer.iteration_ns) / 1e9))
            elapsed = (perf_counter_ns() - begin) / 1e9
            if len(runs) >= MIN_SEARCHES and elapsed * (len(runs) + 1) / len(runs) > self.seconds:
                break
        setup += self.setup_times(SETUP_PROBES // 2)
        done = [r for r in runs if r.completed]
        if not done:
            return runs, None
        iter_ms = [t / 1e6 for t in iteration_ns]
        print(f"iter_ms over {len(iter_ms)} iterations of {len(done)} searches", file=sys.stderr)
        metrics = {
            "search_s": (statistics.median(r.seconds for r in done), "s"),
            "iter_ms.p50": (statistics.median(iter_ms), "ms"),
            "iter_ms.p90": (p90(iter_ms), "ms"),
            "evals_per_s": (statistics.median(evals_per_s), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return runs, metrics

    # -- --trace 1 ------------------------------------------------------------
    def traced(self):
        from layers import layer_metrics
        from tracing import Tracer

        plain = self.search("plain", [])
        tracer = Tracer()
        traced = self.search("traced", tracer.wraps(self.ms))
        self.check_repeat(plain, traced)
        runs = [plain, traced]
        if not (plain.completed and traced.completed):
            return runs, None
        metrics, problems = layer_metrics(tracer, self.config, traced, plain.seconds)
        traced.problems += problems
        tracer.write(OUT_ROOT / f"spans-{self.workload.name}.npz")
        return runs, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "modelsearch" / "__init__.py").is_file():
        print(f"perfbench: no src/modelsearch under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import modelsearch

    if not Path(modelsearch.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported modelsearch from {modelsearch.__file__}, not {src}",
              file=sys.stderr)
        return 2

    bench = Bench(args, root)
    try:
        runs, metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"FAILED {r.out_dir.name}: {'; '.join(r.problems)}", file=sys.stderr)
    if metrics is None:
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
