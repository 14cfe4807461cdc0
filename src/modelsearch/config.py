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
    ToyTask,
    binding_from_child_task,
    planted_table,
)
from .rules import NON_NEGATIVE_INT, NUMBER, POSITIVE_INT
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
    heatmap_samples: int = 10_000
    base_dir: Path = field(default_factory=Path)


def curve_file_name(task: str) -> str:
    """The aggregate reward-curve file of one task."""
    return f"curve_{task}.csv"


def _number(mapping: dict, key: str, default: float, where: str):
    return NUMBER.check(f"{where}.{key}", mapping.get(key, default), ConfigError)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {where}.{key}" if where else f"missing field {key}")
    return mapping[key]


def _check_keys(mapping, allowed: set, where: str) -> dict:
    """``mapping`` itself, if it is a mapping holding only ``allowed`` keys."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {mapping!r}")
    for k in mapping:
        if k not in allowed:
            raise ConfigError(f"unknown field {where}.{k}" if where else f"unknown field {k}")
    return mapping


def _load_block(raw: dict, key: str, cls):
    """Dataclass ``cls`` from the optional block ``raw[key]``, which names its errors."""
    block = _check_keys(raw.get(key, {}), {f.name for f in dataclasses.fields(cls)}, key)
    try:
        return cls(**block)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def check_seeds(seeds) -> list[int]:
    """``seeds`` itself, if it is a non-empty list of distinct non-negative integers.

    Each seed writes ``seed_<n>/``, so a repeated seed would overwrite its
    own run and be counted twice in the aggregate artifacts.
    """
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(map(NON_NEGATIVE_INT.holds, seeds))
        or len(set(seeds)) < len(seeds)
    ):
        raise ConfigError("seeds must be a non-empty list of distinct non-negative integers")
    return seeds


def _parse_space(raw, where: str) -> SearchSpace:
    if raw == "default":
        return default_search_space()
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be 'default' or a list of parameters")
    for i, e in enumerate(raw):
        if not isinstance(e, dict) or "name" not in e or "choices" not in e:
            raise ConfigError(f"{where}[{i}] needs 'name' and 'choices'")
        _check_keys(e, {"name", "choices"}, f"{where}[{i}]")
        if not isinstance(e["choices"], list) or not e["choices"]:
            raise ConfigError(f"{where}[{i}].choices must be a non-empty list")
        for j, c in enumerate(e["choices"]):
            if c is not None and not isinstance(c, (bool, int, float, str)):
                raise ConfigError(f"{where}[{i}].choices[{j}] must be a scalar, got {c!r}")
            if c != c:  # NaN equals nothing, so no sample choosing it could be looked up
                raise ConfigError(f"{where}[{i}].choices[{j}] must not be NaN")
    try:
        return space_from_entries(raw)
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
            "heatmap_samples",
        },
        "",
    )
    name = str(raw.get("name", "experiment"))

    mode = raw.get("mode")
    if mode is not None and mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    seeds = check_seeds(raw.get("seeds", [0]))

    out_dir = base_dir / str(raw.get("out_dir", f"runs/{name}"))

    space = _parse_space(_require(raw, "search_space", ""), "search_space")

    dims = _load_block(raw, "controller", ControllerDims)
    trainer = _load_block(raw, "trainer", TrainerConfig)

    tasks_raw = _require(raw, "tasks", "")
    if not isinstance(tasks_raw, list) or not tasks_raw:
        raise ConfigError("tasks must be a non-empty list")
    tasks = []
    for i, t in enumerate(tasks_raw):
        where = f"tasks[{i}]"
        _check_keys(t, {"name", "evaluator"}, where)
        tname = str(_require(t, "name", where))
        # the name becomes part of an artifact's file name (curve_<task>.csv)
        if any(c in tname for c in "/\\\0"):
            raise ConfigError(
                f"{where}.name {tname!r} must not contain '/', '\\' or NUL"
            )
        # every artifact is UTF-8, so a lone surrogate cannot be written either
        try:
            file_name = curve_file_name(tname).encode()
        except UnicodeError as e:
            raise ConfigError(f"{where}.name {tname!r} is not valid UTF-8 text") from e
        if len(file_name) > 255:
            raise ConfigError(
                f"{where}.name is too long: curve_<name>.csv must fit in 255 bytes"
            )
        ev = _require(t, "evaluator", where)
        if not isinstance(ev, dict) or "kind" not in ev:
            raise ConfigError(f"{where}.evaluator.kind is required")
        tasks.append(TaskSpec(name=tname, evaluator=ev))
    if len({t.name for t in tasks}) != len(tasks):
        raise ConfigError("tasks: duplicate task names")

    transfer_raw = _check_keys(raw.get("transfer", {}), {"checkpoint"}, "transfer")
    transfer_checkpoint = (
        base_dir / str(transfer_raw["checkpoint"]) if "checkpoint" in transfer_raw else None
    )
    if mode == "transfer" and transfer_checkpoint is None:
        raise ConfigError("transfer.checkpoint is required in transfer mode")

    heatmap_samples = raw.get("heatmap_samples", 10_000)
    POSITIVE_INT.check("heatmap_samples", heatmap_samples, ConfigError)

    return ExperimentConfig(
        name=name,
        seeds=seeds,
        out_dir=out_dir,
        space=space,
        tasks=tasks,
        trainer=trainer,
        dims=dims,
        mode=mode,
        transfer_checkpoint=transfer_checkpoint,
        heatmap_samples=heatmap_samples,
        base_dir=base_dir,
    )


#: a ``child_network`` evaluator's dataset -> (ToyTask name, default seed,
#: class separation)
CHILD_DATASETS = {
    "separable": ("separable", 2024, 3.0),
    "overlap": ("noisy-overlap", 2025, 0.8),
}


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
        elif isinstance(optimum, list) and all(map(NON_NEGATIVE_INT.holds, optimum)):
            actions = tuple(optimum)
        else:
            raise ConfigError(f"{where}.optimum must be a list of indices or a mapping")
        ceiling = _number(ev, "ceiling", 0.95, where)
        falloff = _number(ev, "falloff", 0.9, where)
        try:
            accuracies = planted_table(space, actions, ceiling=ceiling, falloff=falloff).accuracies
        except (ValueError, ModelSearchError) as e:
            raise ConfigError(f"{where}: {e}") from e
    elif kind == "table_csv":
        _check_keys(ev, {"path", "noise_sigma", "reward_scale"}, where)
        path = base_dir / str(_require(ev, "path", where))
        try:
            accuracies = OracleTable.from_csv(path, space).accuracies
        except (OSError, ValueError) as e:
            raise ConfigError(f"{where}.path: {e}") from e
    elif kind == "child_network":
        _check_keys(ev, {"dataset", "seed"}, where)
        dataset = str(ev.get("dataset", "separable"))
        seed = NON_NEGATIVE_INT.or_null().check(f"{where}.seed", ev.get("seed"), ConfigError)
        if dataset not in CHILD_DATASETS:
            known = " or ".join(map(repr, CHILD_DATASETS))
            raise ConfigError(f"{where}.dataset must be {known}")
        toy_name, default_seed, separation = CHILD_DATASETS[dataset]
        toy = ToyTask.generate(toy_name, default_seed if seed is None else seed, separation)
        return binding_from_child_task(task.name, toy)
    else:
        raise ConfigError(f"{where}.kind: unknown evaluator kind {kind!r}")
    # both table kinds take evaluation noise and a reward scale
    noise = {k: _number(ev, k, d, where) for k, d in (("noise_sigma", 0.0), ("reward_scale", 1.0))}
    try:
        return EvaluatorBinding(task.name, table=OracleTable(space, accuracies, **noise))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


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
