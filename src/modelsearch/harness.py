"""Experiment orchestration: multi-seed runs and plot-ready CSV artifacts.

Per seed, once its search has finished, the harness writes the event log
(``iteration,task,reward,baseline,advantage_norm``), a best-model summary
and a final checkpoint into ``seed_<n>/``; a seed whose search fails
leaves no such directory. After all seeds finish it writes aggregate
artifacts: per-task reward curves (raw + smoothed), a per-task action
distribution heatmap (``task,parameter,choice,probability``) and the
task-embedding correlation matrix (``task_a,task_b,pearson``), plus a
manifest listing every artifact. Rendering is left to external tools.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import (
    load_checkpoint,
    save_checkpoint,
    task_embedding_correlations,
    transfer_init,
)
from .config import (
    MODES,
    ExperimentConfig,
    build_evaluators,
    check_seeds,
    curve_file_name,
    load_experiment_config,
)
from .controller import (
    EXACT_ENUMERATION_LIMIT,
    action_distributions,
    exact_action_distributions,
)
from .errors import ConfigError, DegenerateEmbedding, MissingLog
from .evaluators import brute_force_optimum
from .rules import FINITE
from .smoothing import smooth_with_auto_window
from .trainer import Event, TrainerState, build_state, run_state

log = logging.getLogger(__name__)

EVENT_HEADER = ["iteration", "task", "reward", "baseline", "advantage_norm"]
NOT_REACHED = "not_reached"


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_writer(f):
    return csv.writer(f, lineterminator="\n")


def _write_events(state: TrainerState, path: Path):
    with open(path, "w", newline="") as f:
        w = _csv_writer(f)
        w.writerow(EVENT_HEADER)
        w.writerows(
            [e.iteration, e.task_name, _fmt(e.reward), _fmt(e.baseline), _fmt(e.advantage_norm)]
            for e in state.events
        )


def _write_best_models(state: TrainerState, path: Path):
    """Per task, the first event with the highest reward."""
    best: dict[str, Event] = {}
    for e in state.events:
        if e.task_name not in best or e.reward > best[e.task_name].reward:
            best[e.task_name] = e
    payload = {}
    for name, event in best.items():
        cfg = state.actor.space.decode(event.actions)
        payload[name] = {
            "actions": list(event.actions),
            "config": cfg.as_dict(),
            "reward": event.reward,
            "iteration": event.iteration,
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_one_seed(config: ExperimentConfig, tasks, ckpt, seed: int, seed_dir: Path):
    """One seed's search, fresh or (with ``ckpt``) transferred; then its files."""
    rng = np.random.default_rng(seed)
    if ckpt is not None:
        state = transfer_init(ckpt, tasks, rng, config=config.trainer)
    else:
        state = build_state(config.space, tasks, config.trainer, rng, config.dims)
    run_state(state, rng)
    seed_dir.mkdir(parents=True, exist_ok=True)
    _write_events(state, seed_dir / "events.csv")
    _write_best_models(state, seed_dir / "best_models.json")
    save_checkpoint(state, seed_dir / "checkpoint.bin", meta_extra={"seed": seed})
    artifacts = ["events.csv", "best_models.json", "checkpoint.bin", "checkpoint.bin.manifest.txt"]
    return state, [str(Path(seed_dir.name) / a) for a in artifacts]


def _group_rewards(triples):
    """(task, iteration, reward) triples -> {task: (iterations, rewards)} in order."""
    by_task: dict[str, list] = {}
    for task, iteration, reward in triples:
        by_task.setdefault(task, []).append((iteration, reward))
    return {
        t: (
            np.array([i for i, _ in rows], dtype=np.int64),
            np.array([r for _, r in rows]),
        )
        for t, rows in by_task.items()
    }


def _write_aggregate(config: ExperimentConfig, out_dir: Path, states: list):
    """Aggregate files over the final states, one per seed of ``config.seeds``."""
    agg = out_dir / "aggregate"
    agg.mkdir(parents=True, exist_ok=True)
    artifacts = []

    grouped = [
        (seed, _group_rewards((e.task_name, e.iteration, e.reward) for e in s.events))
        for seed, s in zip(config.seeds, states)
    ]
    for task in (t.name for t in config.tasks):
        path = agg / curve_file_name(task)
        with open(path, "w", newline="") as f:
            w = _csv_writer(f)
            w.writerow(["seed", "iteration", "reward", "reward_smoothed"])
            for seed, by_task in grouped:
                if task not in by_task:
                    continue
                iters, rewards = by_task[task]
                smoothed = smooth_with_auto_window(rewards)
                for i, r, s in zip(iters, rewards, smoothed):
                    w.writerow([seed, i, _fmt(r), _fmt(s)])
        artifacts.append(str(Path("aggregate") / path.name))

    # heatmap and correlations come from the first seed's final controller
    rep, rep_seed = states[0], config.seeds[0]
    with open(agg / "heatmap.csv", "w", newline="") as f:
        w = _csv_writer(f)
        w.writerow(["task", "parameter", "choice", "probability"])
        for task_id in rep.evaluators:
            if config.space.cardinality() <= EXACT_ENUMERATION_LIMIT:
                margs = exact_action_distributions(rep.actor, task_id)
            else:
                # derived stream, distinct from the training seed
                margs = action_distributions(
                    rep.actor,
                    task_id,
                    config.heatmap_samples,
                    np.random.default_rng([rep_seed, task_id, 7]),
                )
            for p, marg in zip(config.space.params, margs):
                for choice, prob in zip(p.choices, marg):
                    w.writerow([rep.task_names[task_id], p.name, str(choice), _fmt(prob)])
    artifacts.append("aggregate/heatmap.csv")

    # every embedding row, pre-training tasks of a transfer included
    names = rep.task_names
    if len(names) >= 2:
        try:
            corr = task_embedding_correlations(rep.actor, range(len(names)))
        except DegenerateEmbedding:
            log.warning("skipping correlation matrix: degenerate embedding")
        else:
            with open(agg / "embedding_correlations.csv", "w", newline="") as f:
                w = _csv_writer(f)
                w.writerow(["task_a", "task_b", "pearson"])
                for i, a in enumerate(names):
                    for j, b in enumerate(names):
                        w.writerow([a, b, _fmt(corr[i, j])])
            artifacts.append("aggregate/embedding_correlations.csv")
    return artifacts


def run_search_experiment(config: ExperimentConfig, mode: str = "search") -> Path:
    """Run every seed, then write aggregate artifacts and the manifest."""
    if mode == "transfer" and config.transfer_checkpoint is None:
        raise ConfigError("transfer.checkpoint is required in transfer mode")
    # evaluators are pure functions of (config, seed) and transfer_init
    # copies what it takes from the checkpoint, so every seed shares both
    tasks = build_evaluators(config)
    ckpt = None
    if mode == "transfer":
        ckpt = load_checkpoint(config.transfer_checkpoint, config.space)
        if config.dims != ckpt.actor.dims:
            raise ConfigError(
                f"controller: sizes {config.dims} differ from checkpoint "
                f"{config.transfer_checkpoint}, which has {ckpt.actor.dims}"
            )
        for name, _ in tasks:
            if name in ckpt.task_names:
                raise ConfigError(
                    f"tasks: {name!r} is already a task of checkpoint {config.transfer_checkpoint}"
                )
    # only a run whose inputs all loaded leaves an output directory
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    states = []
    artifacts = []
    for seed in config.seeds:
        log.info("running seed %d into %s", seed, out_dir / f"seed_{seed}")
        state, seed_artifacts = _run_one_seed(
            config, tasks, ckpt, seed, out_dir / f"seed_{seed}"
        )
        states.append(state)
        artifacts.extend(seed_artifacts)
    artifacts.extend(_write_aggregate(config, out_dir, states))
    manifest = {"experiment": config.name, "mode": mode, "artifacts": artifacts}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out_dir


def run_brute_force(config: ExperimentConfig) -> Path:
    """Exhaustive optimum per tabular task; writes brute_force.csv."""
    optima = [(name, *brute_force_optimum(binding)) for name, binding in build_evaluators(config)]
    # only a run whose every optimum exists leaves an output directory
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "brute_force.csv"
    with open(path, "w", newline="") as f:
        w = _csv_writer(f)
        w.writerow(["task"] + [p.name for p in config.space.params] + ["reward"])
        for name, best_config, reward in optima:
            w.writerow([name] + [v for _, v in best_config.items] + [_fmt(reward)])
    manifest = {"experiment": config.name, "mode": "brute-force", "artifacts": ["brute_force.csv"]}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out_dir


# --- run comparison ---------------------------------------------------------


@dataclass
class ReportRow:
    run: str
    seed: str
    task: str
    iterations_to_threshold: int | None
    best_reward: float
    auc_smoothed: float


def _finite_reward(text: str) -> float:
    reward = float(text)
    if not np.isfinite(reward):
        raise ValueError(f"reward {text!r} is not finite")
    return reward


def read_event_log(path) -> dict:
    """Parse one event log into {task: (iterations, rewards)} in file order.

    A missing column, a value that does not parse or a reward that is not
    finite raises MissingLog naming the file and the line.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            for column in ("iteration", "task", "reward"):
                if column not in (reader.fieldnames or ()):
                    raise ValueError(f"no {column!r} column")
            triples = [
                (row["task"], int(row["iteration"]), _finite_reward(row["reward"]))
                for row in reader
            ]
        except (csv.Error, TypeError, ValueError) as e:
            raise MissingLog(
                f"event log {path} is malformed at line {max(reader.line_num, 1)}: {e}"
            ) from e
    return _group_rewards(triples)


def _auc(iterations: np.ndarray, values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    dx = np.diff(iterations.astype(np.float64))
    return float(np.sum((values[1:] + values[:-1]) * 0.5 * dx))


def report_compare(run_dirs, threshold: float, window: int = 101, poly_order: int = 3):
    """Iterations-to-threshold, best reward and smoothed AUC per run/seed/task.

    Every run directory must hold the ``manifest.json`` a finished run
    writes last; MissingLog names the first that does not, before any log
    is read.
    """
    run_dirs = [Path(d) for d in run_dirs]
    for run_dir in run_dirs:
        if not (run_dir / "manifest.json").is_file():
            raise MissingLog(f"no manifest.json under {run_dir}: the run did not finish")
    rows = []
    for run_dir in run_dirs:
        logs = sorted(run_dir.glob("seed_*/events.csv"))
        if not logs:
            raise MissingLog(f"no seed_*/events.csv under {run_dir}")
        for log_path in logs:
            seed = log_path.parent.name.removeprefix("seed_")
            for task, (iters, rewards) in sorted(read_event_log(log_path).items()):
                smoothed = smooth_with_auto_window(rewards, window, poly_order)
                crossed = np.nonzero(smoothed >= threshold)[0]
                rows.append(
                    ReportRow(
                        run=str(run_dir),
                        seed=seed,
                        task=task,
                        iterations_to_threshold=(
                            int(iters[crossed[0]]) if len(crossed) else None
                        ),
                        best_reward=float(rewards.max()),
                        auc_smoothed=_auc(iters, smoothed),
                    )
                )
    return rows


def write_report(rows, path):
    with open(path, "w", newline="") as f:
        w = _csv_writer(f)
        w.writerow(
            ["run", "seed", "task", "iterations_to_threshold", "best_reward", "auc_smoothed"]
        )
        for r in rows:
            its = NOT_REACHED if r.iterations_to_threshold is None else r.iterations_to_threshold
            w.writerow([r.run, r.seed, r.task, its, _fmt(r.best_reward), _fmt(r.auc_smoothed)])


def run_experiment(
    config_path,
    mode: str,
    seeds: list[int] | None = None,
    out_dir=None,
    checkpoint=None,
    threshold: float | None = None,
    report_dirs=None,
) -> Path:
    """Entry point behind the CLI; returns the output directory.

    ``mode`` must be one of search, transfer, brute-force, report. CLI
    flags override the corresponding config fields. A bad ``mode``,
    ``seeds`` or report ``threshold`` raises ConfigError before anything
    is written, and the threshold before any run directory is read.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "report":
        if not report_dirs or len(report_dirs) < 2:
            raise ConfigError("report mode needs at least two run directories")
        if threshold is None:
            raise ConfigError("report mode needs a threshold")
        FINITE.check("threshold", threshold, ConfigError)
        rows = report_compare(report_dirs, threshold)
        out = Path(out_dir) if out_dir is not None else Path("report.csv")
        if out.is_dir():
            out = out / "report.csv"
        write_report(rows, out)
        return out

    config = load_experiment_config(config_path)
    if config.mode is not None and config.mode != mode:
        raise ConfigError(f"mode: config declares {config.mode!r} but {mode!r} was requested")
    if seeds is not None:
        config.seeds = check_seeds(seeds)
    if out_dir is not None:
        config.out_dir = Path(out_dir)
    if checkpoint is not None:
        config.transfer_checkpoint = Path(checkpoint)
    if mode == "brute-force":
        return run_brute_force(config)
    return run_search_experiment(config, mode)
