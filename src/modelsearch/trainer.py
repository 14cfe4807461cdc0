"""Multitask search training loop.

A task is a row of the controllers' task-embedding table and a name; it
is searched exactly when it has an evaluator. One iteration: pick one of
the searched tasks uniformly at random, let the actor controller sample
model configurations for it, evaluate them to get rewards and update the
per-task reward baseline. Each kept sample becomes one ``Event``, pushed
once onto the event log. Then the critic controller takes one clipped
off-policy policy-gradient step on a batch drawn from the replay bank: the
log's last ``replay_capacity`` events. Every ``steps_per_sync`` critic
steps (the critic's Adam step count) the actor is pulled toward the critic
by Polyak averaging, keeping a slow-moving behavior policy while the
critic trains off-policy.

The state owns its controllers' weights: the Adam step writes the
critic's flat vector in place and the Polyak blend writes the actor's.
Nothing keeps old weights; an event keeps only its own log-probs. The
critic step also works in memory the state owns: the scoring pass, the
backward, the gradient vector and the temporaries of Adam and the Polyak
blend all live in the state's Workspace, which sizes itself on the first
steps. It is not pickled; a state holds plain data otherwise, so it
pickles, and a copy rebuilds that memory and continues bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .controller import (
    ControllerDims,
    ControllerParams,
    Workspace,
    init_controller,
    policy_backward,
    sample_sequence,
    teacher_forced,
)
from .errors import (
    BaselineUninitialized,
    EmptyBank,
    LengthMismatch,
    UnknownTask,
)
from .optim import AdamState, adaptive_update, clip_global_norm, polyak_average
from .rules import FINITE, FRACTION, NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, check_fields
from .space import SearchSpace

log = logging.getLogger(__name__)


@dataclass
class TrainerConfig:
    """Training hyperparameters; defaults follow the reference setup."""

    batch_size: int = field(default=20, metadata={"rule": POSITIVE_INT})
    critic_lr: float = field(default=5e-4, metadata={"rule": POSITIVE})
    steps_per_sync: int = field(default=25, metadata={"rule": POSITIVE_INT})
    polyak_keep: float = field(default=0.9, metadata={"rule": FRACTION})
    clip_epsilon: float = field(default=0.2, metadata={"rule": FRACTION})
    replay_capacity: int = field(default=1000, metadata={"rule": POSITIVE_INT})
    baseline_decay: float = field(default=0.95, metadata={"rule": FRACTION})
    samples_per_iteration: int = field(default=1, metadata={"rule": POSITIVE_INT})
    total_iterations: int = field(default=2000, metadata={"rule": NON_NEGATIVE_INT})
    baseline_floor: float = field(default=1e-3, metadata={"rule": POSITIVE})
    grad_clip_norm: float | None = field(default=5.0, metadata={"rule": POSITIVE.or_null()})
    critic_steps_per_iteration: int = field(default=1, metadata={"rule": POSITIVE_INT})

    def __post_init__(self):
        check_fields(self)


@dataclass
class Event:
    """One evaluated sample: a row of the event log."""

    iteration: int
    task_id: int
    task_name: str
    reward: float
    baseline: float
    advantage_norm: float
    actions: tuple[int, ...]
    behavior_log_probs: np.ndarray


class ReplayBank(list):
    """The event log, every kept Event in order; its last ``capacity``
    events are the replay bank, which ``sample`` draws from uniformly.
    """

    def __init__(self, capacity: int):
        self.capacity = POSITIVE_INT.check("capacity", capacity)

    def push(self, event: Event):
        self.append(event)

    def sample(self, batch_size: int, rng) -> list[Event]:
        n = min(len(self), self.capacity)
        if n == 0:
            raise EmptyBank("replay bank is empty")
        idx = rng.integers(0, n, size=batch_size) + (len(self) - n)
        return [self[i] for i in idx.tolist()]


class BaselineTable:
    """Per-task exponential moving average of rewards, one decay for all."""

    def __init__(self, decay: float = 0.95):
        self.decay = FRACTION.check("decay", decay)
        self._values: dict[int, float] = {}

    def update(self, task_id: int, reward: float) -> "BaselineTable":
        """First reward initializes b(t); afterwards b <- d*b + (1-d)*R."""
        if not np.isfinite(reward):
            raise ValueError("reward must be finite")
        b = self._values.get(task_id)
        if b is None:
            self._values[task_id] = float(reward)
        else:
            self._values[task_id] = self.decay * b + (1.0 - self.decay) * float(reward)
        return self

    def value(self, task_id: int) -> float:
        if task_id not in self._values:
            raise BaselineUninitialized(f"no reward recorded yet for task {task_id}")
        return self._values[task_id]

    def as_dict(self) -> dict:
        # "decay" and "initialized" are written per entry to keep the
        # version-1 checkpoint format
        return {
            str(tid): {"value": v, "decay": self.decay, "initialized": True}
            for tid, v in sorted(self._values.items())
        }

    @classmethod
    def from_dict(cls, d: dict, decay: float = 0.95) -> "BaselineTable":
        """Entries as written by as_dict.

        A stored per-entry decay is ignored; an entry stored as not
        initialized is skipped and a non-finite value raises ValueError.
        """
        t = cls(decay)
        for tid, e in d.items():
            if e["initialized"]:
                t._values[int(tid)] = FINITE.check(f"baseline {tid}", float(e["value"]))
        return t


def compute_advantage(reward, baseline, floor):
    """Baseline-normalized advantage (R - b) / max(b, floor), elementwise.

    The floor only guards division by near-zero baselines and never binds
    for well-scaled rewards.
    """
    return (reward - baseline) / np.maximum(baseline, floor)


def ppo_clipped_loss(
    new_log_probs: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
) -> tuple[float, np.ndarray]:
    """Clipped surrogate loss over a batch of sequences.

    Per sequence, with r = exp(sum(new) - sum(old)):
        term = min(r * A, clip(r, 1-eps, 1+eps) * A)
    and loss = -mean(term). Returns the loss and d loss / d new_log_probs
    (shape like ``new_log_probs``); the gradient is zero for sequences
    where the clipped branch is active and binding.
    """
    new_log_probs = np.asarray(new_log_probs, dtype=np.float64)
    old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if new_log_probs.shape != old_log_probs.shape:
        raise LengthMismatch(
            f"log-prob shapes differ: {new_log_probs.shape} vs {old_log_probs.shape}"
        )
    if new_log_probs.ndim != 2 or advantages.shape != (new_log_probs.shape[0],):
        raise LengthMismatch("expected (B, T) log-probs and (B,) advantages")
    B = new_log_probs.shape[0]
    ratio = np.exp(new_log_probs.sum(axis=1) - old_log_probs.sum(axis=1))
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    per_seq = np.minimum(unclipped, clipped)
    loss = -float(per_seq.mean())
    active = unclipped <= clipped  # ties resolve to the unclipped branch
    d_per_seq = np.where(active, ratio * advantages, 0.0)
    d_new = np.repeat((-d_per_seq / B)[:, None], new_log_probs.shape[1], axis=1)
    return loss, d_new


@dataclass
class TrainerState:
    """Everything a search owns; a single logical thread mutates it.

    Task ``i`` is row ``i`` of the controllers' task embeddings and is
    named ``task_names[i]``. A task is searched exactly when it has an
    evaluator: ``evaluators`` maps those task ids, in increasing order, to
    their bindings. The search space is the controllers' own,
    ``state.actor.space``. ``work`` is the critic step's reusable memory:
    built on first use and never pickled, so every copy builds its own.
    """

    task_names: list[str]
    evaluators: dict  # task_id -> EvaluatorBinding, ids in increasing order
    actor: ControllerParams
    critic: ControllerParams
    adam: AdamState
    events: ReplayBank  # the event log; its tail is the replay bank
    baselines: BaselineTable
    config: TrainerConfig
    iteration: int = 0
    work: Workspace | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "work": None}

    def workspace(self) -> Workspace:
        """The critic step's workspace, built on first use."""
        if self.work is None:
            self.work = Workspace(self.critic)
        return self.work


def build_state(
    space: SearchSpace,
    tasks: Sequence[tuple],
    config: TrainerConfig,
    seed_or_rng,
    dims: ControllerDims = ControllerDims(),
) -> TrainerState:
    """Fresh trainer state. ``tasks`` is a list of (name, evaluator) pairs."""
    task_names = check_task_names(str(name) for name, _ in tasks)
    evaluators = {tid: evaluator for tid, (_, evaluator) in enumerate(tasks)}
    rng = np.random.default_rng(seed_or_rng)
    actor = init_controller(space, len(task_names), rng, dims)
    critic = actor.copy()
    baselines = BaselineTable(config.baseline_decay)
    return TrainerState(
        task_names=task_names,
        evaluators=evaluators,
        actor=actor,
        critic=critic,
        adam=AdamState.zeros(actor.layout.total_size),
        events=ReplayBank(config.replay_capacity),
        baselines=baselines,
        config=config,
    )


def check_task_names(names) -> list[str]:
    """The names as a list; ValueError names one that repeats."""
    names = list(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"duplicate task name {name!r}")
    return names


def draw_task(evaluators: dict, rng) -> int:
    """Uniform draw over the tasks that have an evaluator."""
    searched = list(evaluators)
    if not searched:
        raise UnknownTask("<no task has an evaluator>")
    return searched[int(rng.integers(0, len(searched)))]


def _critic_step(state: TrainerState, rng) -> float | None:
    """One PPO gradient step on a replay batch, in place; returns the loss."""
    cfg = state.config
    if len(state.events) == 0:
        return None
    batch = state.events.sample(cfg.batch_size, rng)
    task_ids = np.array([e.task_id for e in batch], dtype=np.int64)
    actions = np.array([e.actions for e in batch], dtype=np.int64)
    old_lp = np.array([e.behavior_log_probs for e in batch])
    adv = compute_advantage(
        np.array([e.reward for e in batch]),
        np.array([state.baselines.value(e.task_id) for e in batch]),
        cfg.baseline_floor,
    )
    work = state.workspace()
    fwd = teacher_forced(state.critic, task_ids, actions, work)
    loss, d_lp = ppo_clipped_loss(fwd.log_probs, old_lp, adv, cfg.clip_epsilon)
    grads = policy_backward(state.critic, fwd, d_lp, work)
    if cfg.grad_clip_norm is not None:
        clip_global_norm(grads, cfg.grad_clip_norm, out=grads)
    adaptive_update(state.critic.flat, grads, state.adam, cfg.critic_lr, scratch=work.temps)
    if state.adam.step % cfg.steps_per_sync == 0:
        polyak_average(state.actor.flat, state.critic.flat, cfg.polyak_keep, work.temps[0])
    return loss


def train_iteration(state: TrainerState, rng):
    """One controller training iteration; records one Event per kept sample."""
    cfg = state.config
    task_id = draw_task(state.evaluators, rng)
    evaluator = state.evaluators[task_id]
    task_name = state.task_names[task_id]

    for _ in range(cfg.samples_per_iteration):
        actions, log_probs = sample_sequence(state.actor, task_id, rng)
        config = state.actor.space.decode(actions)
        eval_seed = int(rng.integers(0, 2**63 - 1))
        try:
            reward = float(evaluator(config, eval_seed))
        except Exception:
            log.warning(
                "evaluator %r failed on %r; skipping sample", task_name, config,
                exc_info=True,
            )
            continue
        if not np.isfinite(reward):
            log.warning(
                "evaluator %r returned reward %r on %r; skipping sample",
                task_name, reward, config,
            )
            continue
        state.baselines.update(task_id, reward)
        baseline = state.baselines.value(task_id)
        event = Event(
            iteration=state.iteration,
            task_id=task_id,
            task_name=task_name,
            reward=reward,
            baseline=baseline,
            advantage_norm=float(compute_advantage(reward, baseline, cfg.baseline_floor)),
            actions=actions,
            behavior_log_probs=log_probs,
        )
        state.events.push(event)

    for _ in range(cfg.critic_steps_per_iteration):
        _critic_step(state, rng)
    state.iteration += 1


def run_state(state: TrainerState, seed_or_rng) -> TrainerState:
    """Run the configured number of iterations on an existing state.

    Returns the same state, now holding the run's events.
    """
    rng = np.random.default_rng(seed_or_rng)
    for _ in range(state.config.total_iterations):
        train_iteration(state, rng)
    return state


def run_search(
    space: SearchSpace,
    tasks: Sequence[tuple],
    config: TrainerConfig,
    seed: int,
    dims: ControllerDims = ControllerDims(),
) -> TrainerState:
    """Fresh multitask search: deterministic function of its arguments."""
    rng = np.random.default_rng(seed)
    return run_state(build_state(space, tasks, config, rng, dims), rng)
