"""The benchmark's traced mode wraps program names that must keep existing.

perfbench/tracing.py replaces functions and methods by name in the
modules and classes that look them up. Installing and removing every one
of those wrappers here makes a deleted or moved name fail in the test
suite, not only in a traced benchmark run. A short traced search then
checks the benchmark's tie-outs, which also read argument positions and
call counts; a short traced child-network search and a short traced
transfer check them on the child-training and transfer paths, and a
traced search with critic steps that carry no gradient checks that those
steps skip the LSTM backward.
"""

import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import modelsearch  # noqa: E402
import modelsearch.cli  # noqa: E402,F401
import modelsearch.config  # noqa: E402,F401
import modelsearch.controller  # noqa: E402,F401
import modelsearch.evaluators  # noqa: E402,F401
import modelsearch.harness  # noqa: E402,F401
import modelsearch.kernel  # noqa: E402,F401
import modelsearch.space  # noqa: E402,F401
import modelsearch.trainer  # noqa: E402,F401
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_can_be_wrapped_and_restored():
    wraps = tracing.Tracer().wraps(modelsearch)
    originals = [vars(w.owner)[w.attr] for w in wraps]
    with tracing.patched(wraps):
        for w, original in zip(wraps, originals):
            assert vars(w.owner)[w.attr] is not original
    assert [vars(w.owner)[w.attr] for w in wraps] == originals


def test_traced_search_ties_out(tmp_path):
    workload = workloads.Workload(
        "tie-out",
        "configs/planted-pair.yaml",
        {"samples_per_iteration": 2, "total_iterations": 30},
    )
    config_path = workloads.write_config(workload, ROOT, tmp_path, 0)
    config = modelsearch.config.load_experiment_config(config_path)
    out_dir = tmp_path / "traced"
    tracer = tracing.Tracer()
    argv = ["search", "--config", str(config_path), "--seed", "0", "--out", str(out_dir)]
    with tracing.patched(tracer.wraps(modelsearch)):
        start = perf_counter_ns()
        code = modelsearch.cli.main(argv)
        end = perf_counter_ns()
    assert code == 0
    with open(out_dir / "seed_0" / "events.csv") as f:
        rows = sum(1 for _ in f) - 1
    assert rows == 60
    traced = run.Search(out_dir, start, end, completed=True, rows=rows)
    metrics, problems = layers.layer_metrics(tracer, config, traced, traced.seconds)
    assert problems == []
    assert metrics["kernel.lstm_step.calls"][0] == 7 * (60 + 30)
    assert metrics["parameters.with_flat.calls"][0] == 0


def test_traced_search_skips_the_lstm_backward_without_gradient(tmp_path, monkeypatch):
    # one sample per iteration: the first critic step replays only the first
    # event, whose advantage against its own fresh baseline is zero
    workload = workloads.Workload(
        "no-gradient-tie-out", "configs/planted-pair.yaml", {"total_iterations": 40}
    )
    config_path = workloads.write_config(workload, ROOT, tmp_path, 0)
    config = modelsearch.config.load_experiment_config(config_path)
    # the spy goes in before the tracer wraps the trainer, so it sees every
    # critic step
    active_rows = []
    ppo = modelsearch.trainer.ppo_clipped_loss

    def spy(*args):
        loss, d_new = ppo(*args)
        active_rows.append(int(np.any(d_new != 0.0, axis=1).sum()))
        return loss, d_new

    monkeypatch.setattr(modelsearch.trainer, "ppo_clipped_loss", spy)
    out_dir = tmp_path / "traced"
    tracer = tracing.Tracer()
    argv = ["search", "--config", str(config_path), "--seed", "0", "--out", str(out_dir)]
    with tracing.patched(tracer.wraps(modelsearch)):
        start = perf_counter_ns()
        code = modelsearch.cli.main(argv)
        end = perf_counter_ns()
    assert code == 0
    with open(out_dir / "seed_0" / "events.csv") as f:
        rows = sum(1 for _ in f) - 1
    assert rows == 40
    traced = run.Search(out_dir, start, end, completed=True, rows=rows)
    _, problems = layers.layer_metrics(tracer, config, traced, traced.seconds)
    assert problems == []
    with_gradient = sum(n > 0 for n in active_rows)
    assert len(active_rows) == 40 and 0 < with_gradient < 40
    assert tracer.get("controller.policy_backward", in_loop=True).calls == len(active_rows)
    backward_spans = sum(
        st.calls for (name, in_loop), st in tracer.stats.items()
        if in_loop and name.startswith("kernel.lstm_backward.")
    )
    assert backward_spans == with_gradient


def test_traced_child_search_ties_out(tmp_path, monkeypatch):
    workload = workloads.Workload(
        "child-tie-out",
        "configs/child-networks.yaml",
        {"samples_per_iteration": 2, "total_iterations": 2},
    )
    config_path = workloads.write_config(workload, ROOT, tmp_path, 0)
    config = modelsearch.config.load_experiment_config(config_path)
    # the spy goes in before the tracer wraps the trainer, so it sees every
    # evaluated config
    steps = []
    train = modelsearch.evaluators.train_child_network

    def spy(config, task, seed):
        steps.append(config.train_iterations)
        return train(config, task, seed)

    monkeypatch.setattr(modelsearch.evaluators, "train_child_network", spy)
    out_dir = tmp_path / "traced"
    tracer = tracing.Tracer()
    argv = ["search", "--config", str(config_path), "--seed", "0", "--out", str(out_dir)]
    with tracing.patched(tracer.wraps(modelsearch)):
        start = perf_counter_ns()
        code = modelsearch.cli.main(argv)
        end = perf_counter_ns()
    assert code == 0
    with open(out_dir / "seed_0" / "events.csv") as f:
        rows = sum(1 for _ in f) - 1
    assert rows == len(steps) == 4
    traced = run.Search(out_dir, start, end, completed=True, rows=rows)
    metrics, problems = layers.layer_metrics(tracer, config, traced, traced.seconds)
    assert problems == []
    assert metrics["evaluators.calls"][0] == 4
    assert metrics["optim.adagrad.calls"][0] == sum(steps)


def test_traced_transfer_ties_out(tmp_path):
    search = workloads.Workload("pre", "configs/planted-pair.yaml", {"total_iterations": 30})
    search_path = workloads.write_config(search, ROOT, tmp_path, 0)
    pre = tmp_path / "pre"
    assert modelsearch.cli.main(["search", "--config", str(search_path), "--out", str(pre)]) == 0
    workload = workloads.Workload(
        "transfer-tie-out", "configs/transfer-related.yaml", {"total_iterations": 30}
    )
    config_path = workloads.write_config(workload, ROOT, tmp_path, 0)
    config = modelsearch.config.load_experiment_config(config_path)
    out_dir = tmp_path / "traced"
    tracer = tracing.Tracer()
    argv = [
        "transfer", "--config", str(config_path), "--seed", "0", "--out", str(out_dir),
        "--checkpoint", str(pre / "seed_0" / "checkpoint.bin"),
    ]
    with tracing.patched(tracer.wraps(modelsearch)):
        start = perf_counter_ns()
        code = modelsearch.cli.main(argv)
        end = perf_counter_ns()
    assert code == 0
    with open(out_dir / "seed_0" / "events.csv") as f:
        rows = sum(1 for _ in f) - 1
    assert rows == 30
    traced = run.Search(out_dir, start, end, completed=True, rows=rows)
    metrics, problems = layers.layer_metrics(tracer, config, traced, traced.seconds)
    assert problems == []
    assert metrics["kernel.lstm_step.calls"][0] == 7 * (30 + 30)
