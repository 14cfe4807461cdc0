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

from .errors import IndexOutOfRange, LengthMismatch, ShapeMismatch, UnknownTask
from .kernel import (  # noqa: F401 - softmax and log_softmax stay names here for perfbench's tracer
    LstmLayerParams,
    LstmRecord,
    Scratch,
    log_softmax,
    lstm_sequence_backward,
    lstm_step_record,
    softmax,
    take_into,
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

    __slots__ = ("space", "dims", "n_tasks", "_layers")

    def __init__(self, space: SearchSpace, dims: ControllerDims, n_tasks: int, flat: np.ndarray):
        super().__init__(_build_layout(space, dims, n_tasks), flat)
        self.space = space
        self.dims = dims
        self.n_tasks = n_tasks
        self._layers = None

    def __reduce__(self):
        # through the constructor, so a copy's views are views of its own vector
        return ControllerParams, (self.space, self.dims, self.n_tasks, self.flat)

    # -- named views ---------------------------------------------------
    def lstm_layers(self) -> list[LstmLayerParams]:
        """Each layer's stacked ``(w_x; w_h)`` block and bias, viewing ``flat``."""
        if self._layers is None:
            self._layers = []
            for l in range(self.dims.num_layers):
                lo, end_x, (in_size, width) = self.layout.offsets[f"lstm{l}.w_x"]
                start_h, hi, (hidden, _) = self.layout.offsets[f"lstm{l}.w_h"]
                assert end_x == start_h, "the layout stores w_h right after w_x"
                w = self.flat[lo:hi].reshape(in_size + hidden, width)
                self._layers.append(LstmLayerParams(w, self.get(f"lstm{l}.b")))
        return self._layers

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


class Workspace:
    """Memory that the critic step reuses: ``teacher_forced``,
    ``policy_backward``, Adam and the Polyak blend.

    It belongs to one controller layout and holds one Scratch per function,
    which sizes itself to the largest pass it has seen, the gradient vector
    and ``temps``, a ``(2, n)`` array for the update's temporaries. A result
    that lives in a workspace is overwritten by the next call of the same
    function that is given it; a call given none allocates its own arrays,
    and nothing writes them later.
    """

    def __init__(self, params: ControllerParams):
        self.forward = Scratch()
        self.backward = Scratch()
        self.grads = ControllerParams.zeros(params.space, params.dims, params.n_tasks)
        self.temps = np.empty((2, params.layout.total_size))


@dataclass
class ForwardPass:
    """A forward pass; a recorded one keeps what the backward pass needs.

    Recorded arrays are sequence-major: ``hidden`` is ``(T, B, H)`` and
    each layer's LstmRecord stores its steps along the first axis. Steps
    choose among different numbers of actions, so ``probs`` is a list.
    """

    task_ids: np.ndarray  # (B,)
    actions: np.ndarray  # (B, T) int
    log_probs: np.ndarray  # (B, T)
    probs: list | None = None  # per step: (B, k_t)
    hidden: np.ndarray | None = None  # (T, B, H): top-layer outputs
    records: list | None = None  # per layer: kernel LstmRecord

    def rows(self, idx: np.ndarray, empty=np.empty) -> "ForwardPass":
        """The pass restricted to the rows ``idx``: one take per array, each
        into a new array from ``empty``."""
        return ForwardPass(
            task_ids=self.task_ids.take(idx, axis=0),
            actions=self.actions.take(idx, axis=0),
            log_probs=take_into(self.log_probs, idx, 0, empty),
            probs=[take_into(p, idx, 0, empty) for p in self.probs],
            hidden=take_into(self.hidden, idx, 1, empty),
            records=[r.take(idx, empty) for r in self.records],
        )


def _categorical_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one category per row by inverse CDF."""
    cdf = np.add.accumulate(probs, axis=1)
    u = rng.random(probs.shape[0])
    idx = np.add.reduce(u[:, None] > cdf, axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _policy_step(params: ControllerParams, t: int, x, state, slots=None):
    """Step t of the policy for a ``(B, input_size)`` batch of inputs.

    One LSTM step through the stack, step t's projection, then one max,
    exp and sum of the logits. Returns ``(out, state, z, e, total)``: the
    top-layer output, the new per-layer states, the max-subtracted logits
    ``z``, ``e = exp(z)`` and its row sums ``total``, ``(B, 1)``; the
    probabilities are ``e / total``. ``slots`` is as lstm_step_record's
    ``out``.
    """
    out, state = lstm_step_record(params.lstm_layers(), x, state, slots)
    w, b = params.projection(t)
    logits = out @ w
    logits += b
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    total = np.add.reduce(e, axis=1, keepdims=True)
    return out, state, z, e, total


def _forward(
    params: ControllerParams,
    task_ids,
    actions=None,
    rng: np.random.Generator | None = None,
    record: bool = False,
    empty=np.empty,
) -> ForwardPass:
    """Shared forward pass: samples when ``actions`` is None, else replays.

    The same code path serves sampling, scoring and recording, so a freshly
    sampled sequence reproduces its log-probs bit for bit when re-scored
    with the same batch rows. Row t of one ``(T, B, input_size)`` buffer is
    step t's input: the task columns are written once, and the action
    columns as soon as step t - 1 has its actions. Each step is one
    _policy_step; the probabilities and the chosen actions' log-probs both
    come from its max, exp and sum. A recording pass takes its
    arrays from ``empty`` and has each LSTM step write its activations
    into step t of the layers' records.
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
    A = dims.action_embed
    x = empty((T, B, dims.input_size))
    x[:, :, A:] = params.task_embeddings()[task_ids]
    x[0, :, :A] = params.start_embedding()

    log_probs = empty((B, T))
    probs = hidden = records = None
    if record:
        probs = [empty((B, k)) for k in space.choice_counts]
        hidden = empty((T, B, dims.hidden_size))
        records = [LstmRecord.empty(p, T, B, empty) for p in layers]
    rows = np.arange(B)

    for t in range(T):
        slots = None if records is None else [r.step(t) for r in records]
        out, state, z, e, total = _policy_step(params, t, x[t], state, slots)
        p = None
        if sampling or record:
            p = np.divide(e, total, out=None if probs is None else probs[t])
        if sampling:
            a_t = _categorical_rows(p, rng)
            out_actions[:, t] = a_t
        else:
            a_t = out_actions[:, t]
        log_probs[:, t] = z[rows, a_t] - np.log(total[:, 0])
        if record:
            hidden[t] = out
        if t + 1 < T:
            x[t + 1, :, :A] = params.action_table(t)[a_t]

    return ForwardPass(
        task_ids=task_ids,
        actions=out_actions,
        log_probs=log_probs,
        probs=probs,
        hidden=hidden,
        records=records,
    )


def sample_sequence(params: ControllerParams, task_id, rng) -> tuple[tuple[int, ...], np.ndarray]:
    """Sample one action sequence for a task from the current policy.

    Returns (actions, per-step log-probs), one row of sample_batch.
    """
    fwd = _forward(params, [task_id], rng=rng)
    return tuple(int(a) for a in fwd.actions[0]), fwd.log_probs[0].copy()


def sequence_log_probs(params: ControllerParams, task_id, actions) -> np.ndarray:
    """Teacher-forced per-step log pi(action | prefix, task)."""
    fwd = _forward(params, [task_id], actions=np.asarray(actions, dtype=np.int64)[None, :])
    return fwd.log_probs[0].copy()


def sample_batch(params: ControllerParams, task_ids, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling; returns (actions (B,T), log_probs (B,T))."""
    fwd = _forward(params, task_ids, rng=rng)
    return fwd.actions, fwd.log_probs


def teacher_forced(
    params: ControllerParams, task_ids, actions, work: Workspace | None = None
) -> ForwardPass:
    """Batched scoring pass with activations recorded for backprop.

    With ``work`` the pass lives in the workspace's forward scratch.
    """
    empty = np.empty if work is None else work.forward.clear().empty
    return _forward(params, task_ids, actions=actions, record=True, empty=empty)


def policy_backward(
    params: ControllerParams,
    fwd: ForwardPass,
    d_log_probs: np.ndarray,
    work: Workspace | None = None,
) -> np.ndarray:
    """Exact gradients of a scalar loss given d loss / d log_probs.

    ``d_log_probs`` has shape (B, T), matching ``fwd.log_probs``. Returns a
    flat gradient vector aligned with the parameter layout: a new one, or
    with ``work`` the workspace's own, zeroed and then filled; the
    backward's working arrays then come from the workspace's scratch.

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

    if work is None:
        grads = ControllerParams.zeros(space, dims, params.n_tasks)
        scratch = None
    else:
        if work.grads.layout is not params.layout:
            raise ShapeMismatch("the workspace belongs to a controller of another shape")
        grads = work.grads
        grads.flat.fill(0.0)
        scratch = work.backward.clear()
    empty = np.empty if scratch is None else scratch.empty
    active = np.flatnonzero(d_log_probs.any(axis=1))
    if active.size == 0:
        return grads.flat
    if active.size < B:
        fwd = fwd.rows(active, empty)
        d_log_probs = d_log_probs[active]
        B = active.size
    rows = np.arange(B)

    # through each step's projection into the top-layer hidden outputs
    d_outputs = empty((T, B, dims.hidden_size))
    for t in range(T):
        g = d_log_probs[:, t][:, None]
        dlogits = -fwd.probs[t] * g
        dlogits[rows, fwd.actions[:, t]] += d_log_probs[:, t]
        w, _ = params.projection(t)
        g_w, g_b = grads.projection(t)
        g_w += fwd.hidden[t].T @ dlogits
        g_b += dlogits.sum(axis=0)
        np.matmul(dlogits, w.T, out=d_outputs[t])

    # through time and the layer stack, straight into the flat gradient
    d_inputs = lstm_sequence_backward(
        params.lstm_layers(), fwd.records, d_outputs, grads.lstm_layers(), scratch
    )

    # split input gradients into the action half and the task half
    A = dims.action_embed
    grads.start_embedding()[...] += d_inputs[0, :, :A].sum(axis=0)
    for t in range(1, T):
        np.add.at(grads.action_table(t - 1), fwd.actions[:, t - 1], d_inputs[t, :, :A])
    np.add.at(grads.task_embeddings(), fwd.task_ids, d_inputs[:, :, A:].sum(axis=0))

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
    row of its parent in level t-1 and the action it fed last. One
    _policy_step per row gives the distribution ``p`` of the next action,
    so the marginal of parameter t is ``P @ p``; the next level's prefixes
    have probability ``P * p``. The last level is never expanded, so each
    sequence of the space costs no LSTM step of its own. Each step runs at
    most EXACT_CHUNK rows, gathering the parents' states by index.

    Only valid on spaces whose cardinality is at most
    EXACT_ENUMERATION_LIMIT. Raises UnknownTask for a bad ``task_id``.
    """
    space = params.space
    M = space.cardinality()
    if M > EXACT_ENUMERATION_LIMIT:
        raise ValueError(f"cardinality {M} too large for exact enumeration")
    dims = params.dims
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
                for _ in state
            ]
        table = params.action_table(t - 1) if t else params.start_embedding()[None]
        for lo in range(0, n, EXACT_CHUNK):
            rows = slice(lo, lo + EXACT_CHUNK)
            idx = parent[rows]
            task_rows = np.broadcast_to(task_e, (idx.shape[0], dims.task_embed))
            x = np.concatenate([table[acts[rows]], task_rows], axis=1)
            _, chunk_state, _, e, total = _policy_step(
                params, t, x, [(h[idx], c[idx]) for h, c in state]
            )
            np.divide(e, total, out=probs[rows])
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
