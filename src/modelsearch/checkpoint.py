"""Checkpointing and transfer to new tasks.

The checkpoint is a small versioned binary container: magic bytes, format
version, a search-space fingerprint, one timestamp field, a JSON metadata
block (registry, baselines, trainer config, rng note) and the named
float64 weight arrays of both controllers in declared order, all
little-endian. A plain-text sidecar manifest lists every array's shape.
Round trips are bitwise: loading and re-saving yields identical bytes
apart from the timestamp field.

The registry lists one entry per task-embedding row, in row order:
``task_id`` (the row), ``name``, ``evaluator_ref`` (the name again) and
``active`` (whether the saved search had an evaluator for the task).
Loading keeps only the names.

Transfer reuses both controllers' weights, adds one freshly initialized
task-embedding row per new task, starts an empty event log and searches
only the new tasks; the old ones keep their rows but get no evaluator.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .controller import ControllerDims, ControllerParams, add_task
from .errors import (
    DegenerateEmbedding,
    FingerprintMismatch,
    IoFailure,
    VersionMismatch,
)
from .optim import AdamState
from .rules import POSITIVE_INT
from .space import SearchSpace
from .trainer import BaselineTable, ReplayBank, TrainerConfig, TrainerState, check_task_names

MAGIC = b"MSRCHCKP"
FORMAT_VERSION = 1
# byte range of the timestamp field, for "identical apart from timestamp"
TIMESTAMP_OFFSET = len(MAGIC) + 4 + 32
TIMESTAMP_SIZE = 8


def space_fingerprint(space: SearchSpace) -> bytes:
    """sha256 over parameter names and choice counts, in order."""
    desc = ";".join(f"{p.name}:{p.n_choices}" for p in space.params)
    return hashlib.sha256(desc.encode()).digest()


@dataclass
class CheckpointState:
    """Deserialized checkpoint contents."""

    version: int
    fingerprint: bytes
    actor: ControllerParams
    critic: ControllerParams
    baselines: BaselineTable
    task_names: list[str]
    config: TrainerConfig
    meta: dict  # the metadata block as read; a re-save writes it unchanged


def _task_names(registry) -> list[str]:
    """The names of a version-1 registry block, which must be well formed."""
    if not isinstance(registry, list):
        raise ValueError("registry must be a list")
    for row, entry in enumerate(registry):
        if missing := {"task_id", "name", "evaluator_ref", "active"} - entry.keys():
            raise KeyError(f"registry entry {row} lacks {sorted(missing)}")
        if int(entry["task_id"]) != row or not isinstance(entry["name"], str):
            raise ValueError(f"registry entry {row} needs task_id {row} and a string name")
    return check_task_names(entry["name"] for entry in registry)


def _write_array(f, name: str, arr: np.ndarray):
    data = np.ascontiguousarray(arr, dtype="<f8")
    name_b = name.encode()
    f.write(struct.pack("<H", len(name_b)))
    f.write(name_b)
    f.write(struct.pack("<B", data.ndim))
    for d in data.shape:
        f.write(struct.pack("<I", d))
    f.write(data.tobytes())


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError("file truncated")
    return buf


def _read_array(f) -> tuple[str, np.ndarray]:
    """One named array; a header the file cannot back raises ValueError."""
    (name_len,) = struct.unpack("<H", _read_exact(f, 2))
    name = _read_exact(f, name_len).decode()
    (ndim,) = struct.unpack("<B", _read_exact(f, 1))
    shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
    n_bytes = math.prod(shape) * 8
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n_bytes > left:
        raise ValueError(f"array {name!r} of shape {shape} needs {n_bytes} bytes, {left} left")
    data = np.frombuffer(_read_exact(f, n_bytes), dtype="<f8").reshape(shape)
    return name, data.astype(np.float64)


def save_checkpoint(state, path, meta_extra: dict | None = None):
    """Serialize a TrainerState (or CheckpointState) to ``path``.

    A CheckpointState keeps the metadata block it was read with. Also
    writes a human-readable ``<path>.manifest.txt`` listing shapes.
    """
    actor = state.actor
    critic = state.critic
    if actor.layout.entries != critic.layout.entries:
        raise ValueError("actor and critic layouts differ")
    if isinstance(state, CheckpointState):
        meta = dict(state.meta)
    else:
        meta = {
            "dims": dataclasses.asdict(actor.dims),
            "n_tasks": actor.n_tasks,
            "registry": [
                dict(task_id=tid, name=name, evaluator_ref=name, active=tid in state.evaluators)
                for tid, name in enumerate(state.task_names)
            ],
            "baselines": state.baselines.as_dict(),
            "trainer_config": dataclasses.asdict(state.config),
            "rng_note": {
                "iterations_completed": state.iteration,
                "detail": "runs never resume a generator; new runs draw a fresh stream from their seed",
            },
        }
    if meta_extra:
        meta.update(meta_extra)
    meta_b = json.dumps(meta, sort_keys=True).encode()

    arrays = [("actor/" + n, actor.get(n)) for n in actor.layout.names()]
    arrays += [("critic/" + n, critic.get(n)) for n in critic.layout.names()]

    # each file is written beside its target and renamed over it, so a
    # failed write leaves the previous checkpoint in place
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(space_fingerprint(actor.space))
            f.write(struct.pack("<d", time.time()))
            f.write(struct.pack("<I", len(meta_b)))
            f.write(meta_b)
            f.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays:
                _write_array(f, name, arr)
        os.replace(tmp, path)
        with open(tmp, "w") as f:
            f.write(f"format_version {FORMAT_VERSION}\n")
            f.write(f"fingerprint {space_fingerprint(actor.space).hex()}\n")
            for name, arr in arrays:
                f.write(f"{name} {'x'.join(str(d) for d in arr.shape)}\n")
        os.replace(tmp, str(path) + ".manifest.txt")
    except OSError as e:
        raise IoFailure(f"cannot write checkpoint at {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def load_checkpoint(path, space: SearchSpace) -> CheckpointState:
    """Read a checkpoint back; verifies version, space fingerprint and metadata.

    A truncated or malformed file, or a NaN or infinite weight or
    baseline, raises IoFailure and an unknown format version
    VersionMismatch; each message names the file.
    """
    try:
        with open(path, "rb") as f:
            magic = _read_exact(f, len(MAGIC))
            if magic != MAGIC:
                raise IoFailure(f"{path} is not a checkpoint (bad magic)")
            (version,) = struct.unpack("<I", _read_exact(f, 4))
            if version != FORMAT_VERSION:
                raise VersionMismatch(
                    f"checkpoint at {path} has unsupported format version {version}"
                )
            fingerprint = _read_exact(f, 32)
            struct.unpack("<d", _read_exact(f, 8))  # timestamp, unused
            (meta_len,) = struct.unpack("<I", _read_exact(f, 4))
            meta_b = _read_exact(f, meta_len)
            (n_arrays,) = struct.unpack("<I", _read_exact(f, 4))
            arrays = dict(_read_array(f) for _ in range(n_arrays))
    except OSError as e:
        raise IoFailure(f"cannot read checkpoint at {path}: {e}") from e
    except ValueError as e:
        raise IoFailure(f"checkpoint at {path} is truncated or malformed: {e}") from e

    if fingerprint != space_fingerprint(space):
        raise FingerprintMismatch(
            "checkpoint was written for a different search space"
        )

    try:
        meta = json.loads(meta_b.decode())
        dims = ControllerDims(**meta["dims"])
        n_tasks = POSITIVE_INT.check("n_tasks", meta["n_tasks"])
        cfg = TrainerConfig(**meta["trainer_config"])
        baselines = BaselineTable.from_dict(meta["baselines"], cfg.baseline_decay)
        task_names = _task_names(meta["registry"])
        if len(task_names) != n_tasks:
            raise ValueError(f"{len(task_names)} registered tasks for n_tasks {n_tasks}")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise IoFailure(
            f"checkpoint at {path} has malformed metadata: {type(e).__name__}: {e}"
        ) from e

    def rebuild(prefix: str) -> ControllerParams:
        params = ControllerParams.zeros(space, dims, n_tasks)
        for name in params.layout.names():
            key = prefix + name
            if key not in arrays:
                raise IoFailure(f"checkpoint at {path} misses array {key}")
            view = params.get(name)
            if arrays[key].shape != view.shape:
                raise IoFailure(f"checkpoint at {path}: array {key} has shape {arrays[key].shape}")
            if not np.all(np.isfinite(arrays[key])):
                raise IoFailure(f"checkpoint at {path}: array {key} holds a NaN or an infinity")
            view[...] = arrays[key]
        return params

    return CheckpointState(
        version=version,
        fingerprint=fingerprint,
        actor=rebuild("actor/"),
        critic=rebuild("critic/"),
        baselines=baselines,
        task_names=task_names,
        config=cfg,
        meta=meta,
    )


def transfer_init(
    checkpoint: CheckpointState,
    new_tasks,
    seed_or_rng,
    config: TrainerConfig | None = None,
) -> TrainerState:
    """Trainer state for new tasks on top of a pre-trained controller.

    ``new_tasks`` is a list of (name, evaluator) pairs; a name the
    checkpoint already has raises ValueError. Both controllers' weights
    are reused bitwise; each new task gets a fresh uniformly initialized
    embedding row; the event log starts empty; baselines for the new
    tasks are uninitialized. Only the new tasks get evaluators, so task
    sampling only visits them; the pre-training tasks keep their rows and
    names. Adam's moments and step are reset (fresh task distribution). Nothing
    in ``checkpoint`` is modified: ``add_task`` puts the weights into new
    arrays, which the search then updates in place, so one loaded
    checkpoint can seed many transfers.
    """
    rng = np.random.default_rng(seed_or_rng)
    cfg = config if config is not None else checkpoint.config
    task_names = check_task_names(
        checkpoint.task_names + [str(name) for name, _ in new_tasks]
    )

    actor = checkpoint.actor
    critic = checkpoint.critic
    evaluators = {}
    for _, evaluator in new_tasks:
        # one fresh embedding row, shared by actor and critic so the pair
        # starts in sync on the new task; the critic's own draw is
        # overwritten, and kept because dropping it would shift every
        # later draw of the transfer
        actor, new_id = add_task(actor, rng)
        critic, _ = add_task(critic, rng)
        critic.task_embeddings()[new_id] = actor.task_embeddings()[new_id]
        evaluators[new_id] = evaluator

    baselines = BaselineTable.from_dict(
        checkpoint.baselines.as_dict(), cfg.baseline_decay
    )
    return TrainerState(
        task_names=task_names,
        evaluators=evaluators,
        actor=actor,
        critic=critic,
        adam=AdamState.zeros(actor.layout.total_size),
        events=ReplayBank(cfg.replay_capacity),
        baselines=baselines,
        config=cfg,
    )


def task_embedding_correlations(params: ControllerParams, task_ids) -> np.ndarray:
    """Pairwise Pearson correlation of task-embedding rows.

    Symmetric with unit diagonal; raises DegenerateEmbedding when a row
    has zero variance.
    """
    task_ids = params.check_tasks(task_ids)
    if len(task_ids) < 2:
        raise ValueError("need at least two tasks to correlate")
    rows = params.task_embeddings()[task_ids]
    stds = rows.std(axis=1)
    if np.any(stds == 0.0):
        bad = int(task_ids[np.argmin(stds)])
        raise DegenerateEmbedding(f"task {bad} embedding has zero variance")
    corr = np.corrcoef(rows)
    np.fill_diagonal(corr, 1.0)
    return corr
