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
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, LengthMismatch, UnknownTask
from .kernel import (
    LstmLayerParams,
    log_softmax,
    lstm_sequence_backward,
    lstm_step_record,
    softmax,
)
from .parameters import FlatParams, ParamLayout
from .rules import POSITIVE_INT, check_fields
from .space import SearchSpace

INIT_RANGE = 0.08  # all weights start uniform in [-INIT_RANGE, INIT_RANGE]

# exact marginals are only computed on spaces of at most this cardinality
EXACT_ENUMERATION_LIMIT = 100_000
# ... and each LSTM step of the prefix expansion runs at most this many rows,
# so the heatmap's memory stays below the training loop's
EXACT_CHUNK = 64


@dataclass(frozen=True)
class ControllerDims:
    """Structural sizes of the controller RNN."""

    hidden_size: int = field(default=50, metadata={"rule": POSITIVE_INT})
    action_embed: int = field(default=25, metadata={"rule": POSITIVE_INT})
    task_embed: int = field(default=25, metadata={"rule": POSITIVE_INT})
    num_layers: int = field(default=2, metadata={"rule": POSITIVE_INT})

    def __post_init__(self):
        check_fields(self)

    @property
    def input_size(self) -> int:
        return self.action_embed + self.task_embed


# every controller of one shape shares this layout; nothing mutates it
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
    """The weights of one controller, in one flat vector.

    A search updates ``flat`` in place; copy it to keep the weights of a
    moment.
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

    # -- construction ----------------------------------------------------
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

    def check_tasks(self, task_ids) -> np.ndarray:
        """Task ids as an int64 array; UnknownTask names the first bad one."""
        task_ids = np.atleast_1d(np.asarray(task_ids, dtype=np.int64))
        bad = (task_ids < 0) | (task_ids >= self.n_tasks)
        if np.any(bad):
            raise UnknownTask(int(task_ids[bad][0]))
        return task_ids


def init_controller(
    space: SearchSpace,
    n_tasks: int,
    seed_or_rng,
    dims: ControllerDims = ControllerDims(),
) -> ControllerParams:
    """Fresh controller with every weight drawn uniform in +-INIT_RANGE."""
    POSITIVE_INT.check("n_tasks", n_tasks)
    rng = np.random.default_rng(seed_or_rng)
    layout = _build_layout(space, dims, n_tasks)
    flat = rng.uniform(-INIT_RANGE, INIT_RANGE, size=layout.total_size)
    return ControllerParams(space, dims, n_tasks, flat)


def add_task(params: ControllerParams, rng) -> tuple[ControllerParams, int]:
    """Grow the task-embedding table by one fresh row; other weights reused.

    Returns new parameters in new arrays and the new task id (its row
    index); ``params`` is left as it is. The new row is drawn uniform in
    +-INIT_RANGE; every pre-existing weight is carried over bitwise.
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

    def rows(self, idx: np.ndarray) -> "ForwardPass":
        """The pass restricted to the rows ``idx``; every array is copied once."""
        return ForwardPass(
            task_ids=self.task_ids.take(idx, axis=0),
            actions=self.actions.take(idx, axis=0),
            log_probs=self.log_probs.take(idx, axis=0),
            probs=[p.take(idx, axis=0) for p in self.probs],
            hidden=[h.take(idx, axis=0) for h in self.hidden],
            records=[[r.take(idx) for r in step] for step in self.records],
        )


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
    task_ids = params.check_tasks(task_ids)
    B = task_ids.shape[0]

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
    # the kernel never writes its inputs, so every layer starts from one zero array
    h0 = np.zeros((B, dims.hidden_size))
    state = [(h0, h0)] * dims.num_layers
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

    A row of ``d_log_probs`` that is all zero adds nothing to any gradient,
    so only the other rows are backpropagated: nothing when every row is
    zero, the recorded pass as it stands when no row is, and otherwise a
    copy of the rows that carry gradient. The result is the full-batch
    gradient up to the rounding of smaller matrix products.
    """
    space = params.space
    dims = params.dims
    T = space.n_params
    B = fwd.task_ids.shape[0]
    if d_log_probs.shape != (B, T):
        raise LengthMismatch(f"d_log_probs shape {d_log_probs.shape}, expected {(B, T)}")
    if not fwd.records:
        raise ValueError("forward pass was not recorded; call teacher_forced")

    grads = ControllerParams.zeros(space, dims, params.n_tasks)
    active = np.flatnonzero(d_log_probs.any(axis=1))
    if active.size == 0:
        return grads.flat
    if active.size < B:
        fwd = fwd.rows(active)
        d_log_probs = d_log_probs[active]
        B = active.size
    rows = np.arange(B)

    # through each step's projection into the top-layer hidden outputs
    d_outputs = []
    for t in range(T):
        p = fwd.probs[t]
        g = d_log_probs[:, t][:, None]
        dlogits = -p * g
        dlogits[rows, fwd.actions[:, t]] += d_log_probs[:, t]
        w, _ = params.projection(t)
        g_w, g_b = grads.projection(t)
        g_w += fwd.hidden[t].T @ dlogits
        g_b += dlogits.sum(axis=0)
        d_outputs.append(dlogits @ w.T)

    # through time and the layer stack, straight into the flat gradient
    d_inputs = lstm_sequence_backward(
        params.lstm_layers(), fwd.records, d_outputs, grads.lstm_layers()
    )

    # split input gradients into the action half and the task half
    A = dims.action_embed
    d_task_total = np.zeros((B, dims.task_embed))
    for t in range(T):
        dx = d_inputs[t]
        d_act = dx[:, :A]
        d_task_total += dx[:, A:]
        if t == 0:
            grads.start_embedding()[...] += d_act.sum(axis=0)
        else:
            np.add.at(grads.action_table(t - 1), fwd.actions[:, t - 1], d_act)
    np.add.at(grads.task_embeddings(), fwd.task_ids, d_task_total)

    return grads.flat


def action_distributions(
    params: ControllerParams, task_id, n_samples: int, rng
) -> list[np.ndarray]:
    """Monte-Carlo marginal distribution of each parameter's chosen action.

    Returns one probability vector per search-space parameter; each sums
    to 1 over that parameter's choices.
    """
    POSITIVE_INT.check("n_samples", n_samples)
    task_ids = np.full(int(n_samples), int(task_id), dtype=np.int64)
    actions, _ = sample_batch(params, task_ids, rng)
    out = []
    for i, count in enumerate(params.space.choice_counts):
        freq = np.bincount(actions[:, i], minlength=count).astype(np.float64)
        out.append(freq / freq.sum())
    return out


def exact_action_distributions(params: ControllerParams, task_id) -> list[np.ndarray]:
    """Exact per-parameter marginals by expanding the prefix tree level by level.

    Level t holds every prefix of length t with its probability ``P``, the
    row of its parent in level t-1 and the action it fed last. One LSTM step
    per row gives the distribution ``p`` of the next action, so the marginal
    of parameter t is ``P @ p``; the next level's prefixes have probability
    ``P * p``. The last level is never expanded, so each sequence of the
    space costs no LSTM step of its own. Each step runs at most EXACT_CHUNK
    rows, gathering the parents' states by index.

    Only valid on spaces whose cardinality is at most
    EXACT_ENUMERATION_LIMIT. Raises UnknownTask for a bad ``task_id``.
    """
    space = params.space
    M = space.cardinality()
    if M > EXACT_ENUMERATION_LIMIT:
        raise ValueError(f"cardinality {M} too large for exact enumeration")
    dims = params.dims
    layers = params.lstm_layers()
    task_e = params.task_embeddings()[params.check_tasks(task_id)]
    h0 = np.zeros((1, dims.hidden_size))
    state = [(h0, h0)] * dims.num_layers  # the parent level's (h, c) per layer
    P = np.ones(1)
    parent = np.zeros(1, dtype=np.int64)
    acts = np.zeros(1, dtype=np.int64)  # row 0 of the start embedding's table
    T = space.n_params
    margs = []
    for t, k in enumerate(space.choice_counts):
        n = P.shape[0]
        expand = t + 1 < T
        probs = np.empty((n, k))
        if expand:
            new_state = [
                (np.empty((n, dims.hidden_size)), np.empty((n, dims.hidden_size)))
                for _ in layers
            ]
        table = params.action_table(t - 1) if t else params.start_embedding()[None]
        w, b = params.projection(t)
        for lo in range(0, n, EXACT_CHUNK):
            rows = slice(lo, lo + EXACT_CHUNK)
            idx = parent[rows]
            task_rows = np.broadcast_to(task_e, (idx.shape[0], dims.task_embed))
            x = np.concatenate([table[acts[rows]], task_rows], axis=1)
            out, chunk_state, _ = lstm_step_record(
                layers, x, [(h[idx], c[idx]) for h, c in state]
            )
            probs[rows] = softmax(out @ w + b)
            if expand:
                for (h, c), (h_new, c_new) in zip(new_state, chunk_state):
                    h[rows] = h_new
                    c[rows] = c_new
        marg = P @ probs
        margs.append(marg / marg.sum())
        if expand:
            state = new_state
            P = (P[:, None] * probs).ravel()
            parent = np.repeat(np.arange(n), k)
            acts = np.tile(np.arange(k), n)
    return margs
