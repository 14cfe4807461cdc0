"""The task-conditioned recurrent policy.

A stacked LSTM emits one discrete design choice per timestep. Every RNN
input is the concatenation of an action embedding (the previous step's
sampled choice, or a learned start token at step 0) and the embedding of
the task being searched, so one controller learns differentiated sampling
distributions for many tasks at once.

Each sequence position has its own action-embedding table and output
projection because positions have disjoint choice vocabularies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, LengthMismatch, UnknownTask
from .kernel import (
    LstmLayerParams,
    LstmState,
    log_softmax,
    lstm_sequence_backward,
    lstm_step_record,
    softmax,
)
from .parameters import FlatParams, ParamLayout
from .space import SearchSpace

INIT_RANGE = 0.08  # all weights start uniform in [-INIT_RANGE, INIT_RANGE]

# exact marginals by enumeration are only attempted below this cardinality
EXACT_ENUMERATION_LIMIT = 100_000
# ... and score at most this many sequences per forward pass, bounding memory
EXACT_CHUNK = 4096


@dataclass(frozen=True)
class ControllerDims:
    """Structural sizes of the controller RNN."""

    hidden_size: int = 50
    action_embed: int = 25
    task_embed: int = 25
    num_layers: int = 2

    @property
    def input_size(self) -> int:
        return self.action_embed + self.task_embed


# every snapshot of one controller shape shares this layout; nothing mutates it
@functools.lru_cache
def _build_layout(space: SearchSpace, dims: ControllerDims, n_tasks: int) -> ParamLayout:
    entries = []
    for l in range(dims.num_layers):
        in_size = dims.input_size if l == 0 else dims.hidden_size
        entries.append((f"lstm{l}.w_x", (in_size, 4 * dims.hidden_size)))
        entries.append((f"lstm{l}.w_h", (dims.hidden_size, 4 * dims.hidden_size)))
        entries.append((f"lstm{l}.b", (4 * dims.hidden_size,)))
    entries.append(("start_embedding", (dims.action_embed,)))
    for i, count in enumerate(space.choice_counts):
        entries.append((f"action_embed.{i}", (count, dims.action_embed)))
    for i, count in enumerate(space.choice_counts):
        entries.append((f"proj_w.{i}", (dims.hidden_size, count)))
        entries.append((f"proj_b.{i}", (count,)))
    entries.append(("task_embeddings", (n_tasks, dims.task_embed)))
    return ParamLayout(entries)


class ControllerParams(FlatParams):
    """All learnable controller weights in one flat vector.

    Treated as an immutable snapshot: optimizer steps and Polyak blends
    construct new instances, so concurrent samplers can keep reading an
    old snapshot safely.
    """

    __slots__ = ("space", "dims", "n_tasks")

    def __init__(self, space: SearchSpace, dims: ControllerDims, n_tasks: int, flat: np.ndarray):
        super().__init__(_build_layout(space, dims, n_tasks), flat)
        self.space = space
        self.dims = dims
        self.n_tasks = n_tasks

    # -- named views ---------------------------------------------------
    def lstm_layers(self) -> list[LstmLayerParams]:
        return [
            LstmLayerParams(
                w_x=self.get(f"lstm{l}.w_x"),
                w_h=self.get(f"lstm{l}.w_h"),
                b=self.get(f"lstm{l}.b"),
            )
            for l in range(self.dims.num_layers)
        ]

    def start_embedding(self) -> np.ndarray:
        return self.get("start_embedding")

    def action_table(self, position: int) -> np.ndarray:
        return self.get(f"action_embed.{position}")

    def projection(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        return self.get(f"proj_w.{position}"), self.get(f"proj_b.{position}")

    def task_embeddings(self) -> np.ndarray:
        return self.get("task_embeddings")

    # -- snapshots -------------------------------------------------------
    @classmethod
    def zeros(
        cls, space: SearchSpace, dims: ControllerDims, n_tasks: int
    ) -> "ControllerParams":
        layout = _build_layout(space, dims, n_tasks)
        return cls(space, dims, n_tasks, np.zeros(layout.total_size))

    def with_flat(self, flat: np.ndarray) -> "ControllerParams":
        return ControllerParams(self.space, self.dims, self.n_tasks, flat)

    def copy(self) -> "ControllerParams":
        return self.with_flat(self.flat.copy())

    def check_task(self, task_id) -> int:
        task_id = int(task_id)
        if not 0 <= task_id < self.n_tasks:
            raise UnknownTask(task_id)
        return task_id


def init_controller(
    space: SearchSpace,
    n_tasks: int,
    seed_or_rng,
    dims: ControllerDims = ControllerDims(),
) -> ControllerParams:
    """Fresh controller with every weight drawn uniform in +-INIT_RANGE."""
    if n_tasks < 1:
        raise ValueError("need at least one task")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    layout = _build_layout(space, dims, n_tasks)
    flat = rng.uniform(-INIT_RANGE, INIT_RANGE, size=layout.total_size)
    return ControllerParams(space, dims, n_tasks, flat)


def add_task(params: ControllerParams, rng) -> tuple[ControllerParams, int]:
    """Grow the task-embedding table by one fresh row; other weights reused.

    Returns the new parameter snapshot and the new task id (its row index).
    The new row is drawn uniform in +-INIT_RANGE; every pre-existing weight
    is carried over bitwise.
    """
    new_id = params.n_tasks
    new_row = rng.uniform(-INIT_RANGE, INIT_RANGE, size=params.dims.task_embed)
    grown = ControllerParams(
        params.space,
        params.dims,
        params.n_tasks + 1,
        np.concatenate([params.flat, new_row]),
    )
    return grown, new_id


@dataclass
class SampledModel:
    """One sampled action sequence with its behavior-policy log-probs."""

    task_id: int
    actions: tuple[int, ...]
    behavior_log_probs: np.ndarray  # per step, <= 0


@dataclass
class ForwardPass:
    """Recorded teacher-forced pass, kept around for the backward pass."""

    task_ids: np.ndarray  # (B,)
    actions: np.ndarray  # (B, T) int
    log_probs: np.ndarray  # (B, T)
    probs: list  # per step: (B, k_t)
    hidden: list  # per step: (B, H) top-layer output
    records: list  # per step: list of kernel LstmStepRecord, one per layer


def _categorical_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one category per row by inverse CDF."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _forward(
    params: ControllerParams,
    task_ids,
    actions=None,
    rng: np.random.Generator | None = None,
    record: bool = False,
) -> ForwardPass:
    """Shared forward pass: samples when ``actions`` is None, else replays.

    The same code path serves sampling and scoring so a freshly sampled
    sequence reproduces its log-probs bit for bit when re-scored.
    """
    space = params.space
    dims = params.dims
    T = space.n_params
    task_ids = np.atleast_1d(np.asarray(task_ids, dtype=np.int64))
    B = task_ids.shape[0]
    bad = (task_ids < 0) | (task_ids >= params.n_tasks)
    if np.any(bad):
        raise UnknownTask(int(task_ids[bad][0]))

    sampling = actions is None
    if not sampling:
        actions = np.asarray(actions, dtype=np.int64)
        if actions.ndim == 1:
            actions = actions[None, :]
        if actions.shape != (B, T):
            raise LengthMismatch(f"actions shape {actions.shape}, expected {(B, T)}")
        for i, count in enumerate(space.choice_counts):
            bad = (actions[:, i] < 0) | (actions[:, i] >= count)
            if np.any(bad):
                raise IndexOutOfRange(space.params[i].name, int(actions[bad, i][0]))
        out_actions = actions
    else:
        if rng is None:
            raise ValueError("sampling requires an rng")
        out_actions = np.empty((B, T), dtype=np.int64)

    layers = params.lstm_layers()
    state = LstmState.zeros(dims.num_layers, dims.hidden_size, batch=B)
    task_e = params.task_embeddings()[task_ids]
    x_act = np.broadcast_to(params.start_embedding(), (B, dims.action_embed))

    log_probs = np.empty((B, T))
    probs_list: list = []
    hidden_list: list = []
    records_list: list = []
    rows = np.arange(B)

    for t in range(T):
        x = np.concatenate([x_act, task_e], axis=1)
        out, state, recs = lstm_step_record(layers, x, state)
        w, b = params.projection(t)
        logits = out @ w + b
        logp = log_softmax(logits)
        if sampling:
            p = softmax(logits)
            a_t = _categorical_rows(p, rng)
            out_actions[:, t] = a_t
        else:
            a_t = out_actions[:, t]
            p = softmax(logits) if record else None
        log_probs[:, t] = logp[rows, a_t]
        if record:
            probs_list.append(p)
            hidden_list.append(out)
            records_list.append(recs)
        if t + 1 < T:
            x_act = params.action_table(t)[a_t]

    return ForwardPass(
        task_ids=task_ids,
        actions=out_actions,
        log_probs=log_probs,
        probs=probs_list,
        hidden=hidden_list,
        records=records_list,
    )


def sample_sequence(params: ControllerParams, task_id, rng) -> SampledModel:
    """Sample one action sequence for a task from the current policy."""
    fwd = _forward(params, [task_id], rng=rng)
    return SampledModel(
        task_id=int(task_id),
        actions=tuple(int(a) for a in fwd.actions[0]),
        behavior_log_probs=fwd.log_probs[0].copy(),
    )


def sequence_log_probs(params: ControllerParams, task_id, actions) -> np.ndarray:
    """Teacher-forced per-step log pi(action | prefix, task)."""
    fwd = _forward(params, [task_id], actions=np.asarray(actions, dtype=np.int64)[None, :])
    return fwd.log_probs[0].copy()


def sample_batch(params: ControllerParams, task_ids, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling; returns (actions (B,T), log_probs (B,T))."""
    fwd = _forward(params, task_ids, rng=rng)
    return fwd.actions, fwd.log_probs


def teacher_forced(params: ControllerParams, task_ids, actions) -> ForwardPass:
    """Batched scoring pass with activations recorded for backprop."""
    return _forward(params, task_ids, actions=actions, record=True)


def policy_backward(
    params: ControllerParams, fwd: ForwardPass, d_log_probs: np.ndarray
) -> np.ndarray:
    """Exact gradients of a scalar loss given d loss / d log_probs.

    ``d_log_probs`` has shape (B, T), matching ``fwd.log_probs``. Returns a
    flat gradient vector aligned with the parameter layout.
    """
    space = params.space
    dims = params.dims
    T = space.n_params
    B = fwd.task_ids.shape[0]
    if d_log_probs.shape != (B, T):
        raise LengthMismatch(f"d_log_probs shape {d_log_probs.shape}, expected {(B, T)}")
    if not fwd.records:
        raise ValueError("forward pass was not recorded; call teacher_forced")

    grads = FlatParams.zeros(params.layout)
    rows = np.arange(B)

    # through each step's projection into the top-layer hidden outputs
    d_outputs = []
    for t in range(T):
        p = fwd.probs[t]
        g = d_log_probs[:, t][:, None]
        dlogits = -p * g
        dlogits[rows, fwd.actions[:, t]] += d_log_probs[:, t]
        w, _ = params.projection(t)
        grads.get(f"proj_w.{t}")[...] += fwd.hidden[t].T @ dlogits
        grads.get(f"proj_b.{t}")[...] += dlogits.sum(axis=0)
        d_outputs.append(dlogits @ w.T)

    # through time and the layer stack
    layer_grads, d_inputs = lstm_sequence_backward(
        params.lstm_layers(), fwd.records, d_outputs
    )
    for l, lg in enumerate(layer_grads):
        grads.get(f"lstm{l}.w_x")[...] += lg.w_x
        grads.get(f"lstm{l}.w_h")[...] += lg.w_h
        grads.get(f"lstm{l}.b")[...] += lg.b

    # split input gradients into the action half and the task half
    A = dims.action_embed
    d_task_total = np.zeros((B, dims.task_embed))
    for t in range(T):
        dx = d_inputs[t]
        d_act = dx[:, :A]
        d_task_total += dx[:, A:]
        if t == 0:
            grads.get("start_embedding")[...] += d_act.sum(axis=0)
        else:
            np.add.at(grads.get(f"action_embed.{t - 1}"), fwd.actions[:, t - 1], d_act)
    np.add.at(grads.get("task_embeddings"), fwd.task_ids, d_task_total)

    return grads.flat


def action_distributions(
    params: ControllerParams, task_id, n_samples: int, rng
) -> list[np.ndarray]:
    """Monte-Carlo marginal distribution of each parameter's chosen action.

    Returns one probability vector per search-space parameter; each sums
    to 1 over that parameter's choices.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    params.check_task(task_id)
    task_ids = np.full(int(n_samples), int(task_id), dtype=np.int64)
    actions, _ = sample_batch(params, task_ids, rng)
    out = []
    for i, count in enumerate(params.space.choice_counts):
        freq = np.bincount(actions[:, i], minlength=count).astype(np.float64)
        out.append(freq / freq.sum())
    return out


def exact_action_distributions(params: ControllerParams, task_id) -> list[np.ndarray]:
    """Exact per-parameter marginals by enumerating every sequence.

    Only valid on spaces whose cardinality is at most
    EXACT_ENUMERATION_LIMIT. Sequences are scored EXACT_CHUNK at a time.
    """
    space = params.space
    M = space.cardinality()
    if M > EXACT_ENUMERATION_LIMIT:
        raise ValueError(f"cardinality {M} too large for exact enumeration")
    all_actions = np.array(list(space.enumerate_actions()), dtype=np.int64)
    margs = [np.zeros(count) for count in space.choice_counts]
    total = 0.0
    for lo in range(0, M, EXACT_CHUNK):
        actions = all_actions[lo : lo + EXACT_CHUNK]
        task_ids = np.full(actions.shape[0], int(task_id), dtype=np.int64)
        fwd = _forward(params, task_ids, actions=actions)
        weights = np.exp(fwd.log_probs.sum(axis=1))
        total += weights.sum()
        for i, count in enumerate(space.choice_counts):
            margs[i] += np.bincount(actions[:, i], weights=weights, minlength=count)
    return [marg / total for marg in margs]


@dataclass
class TaskEntry:
    """One registered task: a stable id, a name and its evaluator binding."""

    task_id: int
    name: str
    evaluator_ref: str
    active: bool = True


class TaskRegistry:
    """Ordered task descriptors; the id doubles as the embedding row index."""

    def __init__(self, entries=()):
        self.entries: list[TaskEntry] = list(entries)
        self._check()

    def _check(self):
        ids = [e.task_id for e in self.entries]
        if ids != list(range(len(ids))):
            raise ValueError("task ids must be consecutive row indices")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate task names")

    def add(self, name: str, evaluator_ref: str, active: bool = True) -> int:
        task_id = len(self.entries)
        self.entries.append(TaskEntry(task_id, str(name), str(evaluator_ref), active))
        return task_id

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, task_id: int) -> TaskEntry:
        if not 0 <= task_id < len(self.entries):
            raise UnknownTask(task_id)
        return self.entries[task_id]

    def by_name(self, name: str) -> TaskEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise UnknownTask(name)

    def active_ids(self) -> list[int]:
        return [e.task_id for e in self.entries if e.active]

    def deactivate_all(self):
        for e in self.entries:
            e.active = False
