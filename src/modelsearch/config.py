"""Declarative experiment configuration.

One YAML file describes an experiment: the search space, the task list
with evaluator bindings, trainer hyperparameters, seeds, output directory
and mode. The README carries a complete annotated example. Every
validation failure raises ConfigError with the offending field's path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .controller import ControllerDims
from .errors import ConfigError, ModelSearchError
from .evaluators import (
    EvaluatorBinding,
    OracleTable,
    binding_from_child_task,
    binding_from_table,
    planted_table,
)
from .fixtures import toy_overlap, toy_separable
from .space import SearchSpace, default_search_space, space_from_entries
from .trainer import TrainerConfig

MODES = ("search", "transfer", "brute-force", "report")

REFERENCE_CARDINALITY = 15360


@dataclass
class TaskSpec:
    name: str
    evaluator: dict


@dataclass
class ExperimentConfig:
    name: str
    seeds: list[int]
    out_dir: Path
    space: SearchSpace
    tasks: list[TaskSpec]
    trainer: TrainerConfig
    dims: ControllerDims = ControllerDims()
    mode: str | None = None
    transfer_checkpoint: Path | None = None
    report_threshold: float | None = None
    heatmap_samples: int = 10_000
    base_dir: Path = field(default_factory=Path)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {where}.{key}" if where else f"missing field {key}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set, where: str):
    for k in mapping:
        if k not in allowed:
            raise ConfigError(f"unknown field {where}.{k}" if where else f"unknown field {k}")


def _parse_space(raw, where: str) -> SearchSpace:
    if raw == "default":
        return default_search_space()
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be 'default' or a list of parameters")
    entries = []
    for i, e in enumerate(raw):
        if not isinstance(e, dict) or "name" not in e or "choices" not in e:
            raise ConfigError(f"{where}[{i}] needs 'name' and 'choices'")
        if not isinstance(e["choices"], list) or not e["choices"]:
            raise ConfigError(f"{where}[{i}].choices must be a non-empty list")
        entries.append(e)
    try:
        return space_from_entries(entries)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return parse_experiment_config(raw, base_dir=path.parent)


def parse_experiment_config(raw: dict, base_dir=Path(".")) -> ExperimentConfig:
    base_dir = Path(base_dir)
    _check_keys(
        raw,
        {
            "name",
            "mode",
            "seeds",
            "out_dir",
            "search_space",
            "controller",
            "trainer",
            "tasks",
            "transfer",
            "report",
            "heatmap_samples",
        },
        "",
    )
    name = str(raw.get("name", "experiment"))

    mode = raw.get("mode")
    if mode is not None and mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) for s in seeds
    ):
        raise ConfigError("seeds must be a non-empty list of integers")

    out_dir = base_dir / str(raw.get("out_dir", f"runs/{name}"))

    space = _parse_space(_require(raw, "search_space", ""), "search_space")

    dims_raw = raw.get("controller", {})
    _check_keys(
        dims_raw,
        {"hidden_size", "action_embed", "task_embed", "num_layers"},
        "controller",
    )
    try:
        dims = ControllerDims(**dims_raw)
    except TypeError as e:
        raise ConfigError(f"controller: {e}") from e

    trainer_raw = raw.get("trainer", {})
    allowed = {f.name for f in dataclasses.fields(TrainerConfig)}
    _check_keys(trainer_raw, allowed, "trainer")
    try:
        trainer = TrainerConfig(**trainer_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"trainer: {e}") from e

    tasks_raw = _require(raw, "tasks", "")
    if not isinstance(tasks_raw, list) or not tasks_raw:
        raise ConfigError("tasks must be a non-empty list")
    tasks = []
    for i, t in enumerate(tasks_raw):
        where = f"tasks[{i}]"
        if not isinstance(t, dict):
            raise ConfigError(f"{where} must be a mapping")
        _check_keys(t, {"name", "evaluator"}, where)
        tname = str(_require(t, "name", where))
        # the name becomes part of an artifact's file name (curve_<task>.csv)
        if any(c in tname for c in "/\\\0"):
            raise ConfigError(
                f"{where}.name {tname!r} must not contain '/', '\\' or NUL"
            )
        ev = _require(t, "evaluator", where)
        if not isinstance(ev, dict) or "kind" not in ev:
            raise ConfigError(f"{where}.evaluator.kind is required")
        tasks.append(TaskSpec(name=tname, evaluator=ev))
    if len({t.name for t in tasks}) != len(tasks):
        raise ConfigError("tasks: duplicate task names")

    transfer_raw = raw.get("transfer", {})
    _check_keys(transfer_raw, {"checkpoint"}, "transfer")
    transfer_checkpoint = (
        base_dir / str(transfer_raw["checkpoint"]) if "checkpoint" in transfer_raw else None
    )
    if mode == "transfer" and transfer_checkpoint is None:
        raise ConfigError("transfer.checkpoint is required in transfer mode")

    report_raw = raw.get("report", {})
    _check_keys(report_raw, {"threshold"}, "report")
    report_threshold = (
        float(report_raw["threshold"]) if "threshold" in report_raw else None
    )

    heatmap_samples = int(raw.get("heatmap_samples", 10_000))
    if heatmap_samples < 1:
        raise ConfigError("heatmap_samples must be >= 1")

    return ExperimentConfig(
        name=name,
        seeds=[int(s) for s in seeds],
        out_dir=out_dir,
        space=space,
        tasks=tasks,
        trainer=trainer,
        dims=dims,
        mode=mode,
        transfer_checkpoint=transfer_checkpoint,
        report_threshold=report_threshold,
        heatmap_samples=heatmap_samples,
        base_dir=base_dir,
    )


def build_evaluator(space: SearchSpace, task: TaskSpec, base_dir=Path(".")) -> EvaluatorBinding:
    """Realize one task's evaluator binding from its config block."""
    ev = dict(task.evaluator)
    kind = ev.pop("kind")
    where = f"tasks[{task.name}].evaluator"
    if kind == "planted":
        _check_keys(ev, {"optimum", "ceiling", "falloff", "noise_sigma", "reward_scale"}, where)
        optimum = _require(ev, "optimum", where)
        if isinstance(optimum, dict):
            try:
                actions = tuple(p.index_of(optimum[p.name]) for p in space.params)
            except KeyError as e:
                raise ConfigError(f"{where}.optimum misses parameter {e}") from e
            except ModelSearchError as e:
                raise ConfigError(f"{where}.optimum: {e}") from e
        elif isinstance(optimum, list):
            actions = tuple(int(a) for a in optimum)
        else:
            raise ConfigError(f"{where}.optimum must be a list of indices or a mapping")
        try:
            table = planted_table(
                space,
                actions,
                ceiling=float(ev.get("ceiling", 0.95)),
                falloff=float(ev.get("falloff", 0.9)),
            )
            table = OracleTable(
                space,
                table.accuracies,
                noise_sigma=float(ev.get("noise_sigma", 0.0)),
                reward_scale=float(ev.get("reward_scale", 1.0)),
            )
        except (ValueError, ModelSearchError) as e:
            raise ConfigError(f"{where}: {e}") from e
        return binding_from_table(task.name, table)
    if kind == "table_csv":
        _check_keys(ev, {"path", "noise_sigma", "reward_scale"}, where)
        path = base_dir / str(_require(ev, "path", where))
        try:
            table = OracleTable.from_csv(
                path,
                space,
                noise_sigma=float(ev.get("noise_sigma", 0.0)),
                reward_scale=float(ev.get("reward_scale", 1.0)),
            )
        except (OSError, ValueError) as e:
            raise ConfigError(f"{where}.path: {e}") from e
        return binding_from_table(task.name, table)
    if kind == "child_network":
        _check_keys(ev, {"dataset", "seed"}, where)
        dataset = str(ev.get("dataset", "separable"))
        seed = ev.get("seed")
        if dataset == "separable":
            toy = toy_separable() if seed is None else toy_separable(int(seed))
        elif dataset == "overlap":
            toy = toy_overlap() if seed is None else toy_overlap(int(seed))
        else:
            raise ConfigError(f"{where}.dataset must be 'separable' or 'overlap'")
        return binding_from_child_task(task.name, toy, space)
    raise ConfigError(f"{where}.kind: unknown evaluator kind {kind!r}")


def build_evaluators(config: ExperimentConfig) -> list[tuple[str, EvaluatorBinding]]:
    return [
        (t.name, build_evaluator(config.space, t, config.base_dir))
        for t in config.tasks
    ]


def verify_reference_defaults() -> dict[str, bool]:
    """Self-test that the bundled defaults match the reference setup."""
    import numpy as np

    from .controller import INIT_RANGE, init_controller
    from .evaluators import reward_from_accuracy

    checks: dict[str, bool] = {}
    space = default_search_space()
    checks["space_has_7_parameters"] = space.n_params == 7
    checks["space_choice_counts"] = space.choice_counts == (6, 2, 5, 4, 4, 4, 4)
    checks["space_cardinality_15360"] = space.cardinality() == REFERENCE_CARDINALITY

    dims = ControllerDims()
    checks["lstm_two_layers"] = dims.num_layers == 2
    checks["lstm_hidden_50"] = dims.hidden_size == 50
    checks["embeddings_25"] = dims.action_embed == 25 and dims.task_embed == 25
    checks["rnn_input_50"] = dims.input_size == 50
    checks["init_range_0_08"] = INIT_RANGE == 0.08
    params = init_controller(space, 2, 0)
    checks["weights_within_init_range"] = bool(
        np.all(np.abs(params.flat) <= INIT_RANGE)
    )

    cfg = TrainerConfig()
    checks["batch_size_20"] = cfg.batch_size == 20
    checks["critic_lr_5e-4"] = cfg.critic_lr == 5e-4
    checks["sync_every_25_steps"] = cfg.steps_per_sync == 25
    checks["polyak_keep_0_9"] = cfg.polyak_keep == 0.9
    checks["reward_is_cubed_accuracy"] = reward_from_accuracy(0.9) == 0.9**3
    return checks
