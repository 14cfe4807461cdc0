"""Wrappers around the program's public functions, for timing from outside.

Nothing in ``src/`` is edited. A wrapper replaces a function in the
namespace that looks it up (a module or a class), forwards every call
unchanged and returns the wrapped function's own result, so a wrapped
search computes and writes exactly what an unwrapped one does. ``patched``
installs a set of wrappers and always puts the originals back.

Two users:

* ``LoopTimer`` wraps only ``trainer.train_iteration``; the untraced run
  uses it for the per-iteration times.
* ``Tracer`` wraps one public function or method per layer. Each call
  becomes a span (name, trace id, start, end, parent); the trace id is
  the training iteration, or -1 outside the loop. Leaf functions called
  hundreds of thousands of times (sigmoid, softmax, Adagrad) are timed
  and counted but not kept as spans.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np


SPAN_FIELDS = 5


@dataclass(frozen=True)
class Wrap:
    """One function to wrap: ``owner.attr`` replaced by ``make(original)``."""

    owner: object
    attr: str
    make: object


@contextmanager
def patched(wraps):
    """Install every wrapper; on exit restore the originals and verify it."""
    installed = []
    try:
        for w in wraps:
            original = vars(w.owner)[w.attr]
            setattr(w.owner, w.attr, w.make(original))
            installed.append((w.owner, w.attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
    for owner, attr, original in installed:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"wrapper on {owner.__name__}.{attr} was not restored")


class LoopTimer:
    """Wall time of every ``train_iteration`` call."""

    def __init__(self):
        self.iteration_ns: list[int] = []

    def wraps(self, trainer):
        def time_iteration(fn):
            @functools.wraps(fn, updated=())
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                out = fn(*args, **kwargs)
                self.iteration_ns.append(perf_counter_ns() - t0)
                return out

            return wrapper

        return [Wrap(trainer, "train_iteration", time_iteration)]


@dataclass
class Stat:
    """Totals for one span name, inside or outside the training loop."""

    calls: int = 0
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)


class Tracer:
    """In-memory spans plus per-name totals, filled by the wrappers."""

    def __init__(self):
        self.names: dict[str, int] = {}
        # five int64 fields per span: name id, trace id, start ns, end ns,
        # parent index; a flat array keeps 10^5 spans out of the garbage
        # collector's way
        self.spans = array("q")
        self.stats: dict[tuple[str, bool], Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, name, start ns, child ns]
        self.trace_id = -1

    # -- span bookkeeping ----------------------------------------------------
    def _stat(self, name: str) -> Stat:
        key = (name, self.trace_id >= 0)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    @property
    def n_spans(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        name_id = self.names.setdefault(name, len(self.names))
        index = self.n_spans
        self.spans.extend((name_id, self.trace_id, 0, 0, parent))
        self._stack.append([index, name, perf_counter_ns(), 0])

    def close(self, failed: bool = False) -> None:
        end = perf_counter_ns()
        index, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.spans[index * SPAN_FIELDS + 2] = start
        self.spans[index * SPAN_FIELDS + 3] = end
        st = self._stat(name)
        st.calls += 1
        st.errors += failed
        st.total_ns += duration
        st.self_ns += duration - child_ns
        st.durations_ns.append(duration)
        if self._stack:
            self._stack[-1][3] += duration

    def leaf(self, name: str, duration: int) -> None:
        st = self._stat(name)
        st.calls += 1
        st.total_ns += duration
        st.self_ns += duration
        if self._stack:
            self._stack[-1][3] += duration

    def top(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapper factories -----------------------------------------------------
    def span(self, name, after=None):
        """Wrapper factory: one span per call. ``name`` may be a callable of
        the call's arguments; ``after(args, result)`` sees each result."""

        def make(fn):
            @functools.wraps(fn, updated=())
            def wrapper(*args, **kwargs):
                self.open(name(args) if callable(name) else name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    self.close(failed=True)
                    raise
                self.close()
                if after is not None:
                    after(args, out)
                return out

            return wrapper

        return make

    def leaf_timer(self, name):
        """Wrapper factory for hot leaf functions: timed, not kept as spans."""

        def make(fn):
            @functools.wraps(fn, updated=())
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                out = fn(*args, **kwargs)
                self.leaf(name, perf_counter_ns() - t0)
                return out

            return wrapper

        return make

    def iteration(self, fn):
        """``train_iteration``: its span carries the iteration as trace id."""

        @functools.wraps(fn, updated=())
        def wrapper(state, *args, **kwargs):
            self.trace_id = state.iteration
            self.open("trainer.iteration")
            try:
                return fn(state, *args, **kwargs)
            finally:
                self.close()
                self.trace_id = -1

        return wrapper

    def run_state(self, fn):
        """``run_state``: when the loop returns, a ``harness.post`` span opens."""
        inner = self.span("trainer.run_state")(fn)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.open("harness.post")
            return out

        return wrapper

    def search_experiment(self, fn):
        """``run_search_experiment``: closes ``harness.post`` before itself."""

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            self.open("harness.search")
            try:
                return fn(*args, **kwargs)
            finally:
                while self.top() == "harness.post":
                    self.close()
                self.close()

        return wrapper

    # -- the wrapped layers ------------------------------------------------------
    def wraps(self, ms):
        """Every layer boundary the traced run times; ``ms`` holds the modules."""
        harness, trainer, controller = ms.harness, ms.trainer, ms.controller
        evaluators, kernel = ms.evaluators, ms.kernel

        def batch_of_step(args):
            return f"kernel.lstm_step.b{np.shape(args[1])[0]}"

        def batch_of_backward(args):
            return f"kernel.lstm_backward.b{np.shape(args[2][0])[0]}"

        def ppo_active(args, out):
            _, d_new = out
            self.count("trainer.ppo.active", int(np.any(d_new != 0.0, axis=1).sum()))
            self.count("trainer.ppo.rows", d_new.shape[0])

        def smoothed_points(args, out):
            self.count("smoothing.points", len(out))

        return [
            Wrap(harness, "run_search_experiment", self.search_experiment),
            Wrap(harness, "load_experiment_config", self.span("config.load")),
            Wrap(harness, "build_evaluators", self.span("config.build_evaluators")),
            Wrap(harness, "build_state", self.span("trainer.build_state")),
            Wrap(harness, "run_state", self.run_state),
            Wrap(harness, "save_checkpoint", self.span("checkpoint.save")),
            Wrap(harness, "smooth_with_auto_window", self.span("smoothing", after=smoothed_points)),
            Wrap(harness, "exact_action_distributions", self.span("controller.exact_marginals")),
            Wrap(harness, "task_embedding_correlations", self.span("harness.correlations")),
            Wrap(trainer, "train_iteration", self.iteration),
            Wrap(trainer, "sample_sequence", self.span("controller.sample")),
            Wrap(trainer, "teacher_forced", self.span("controller.teacher_forced")),
            Wrap(trainer, "policy_backward", self.span("controller.policy_backward")),
            Wrap(trainer, "ppo_clipped_loss", self.span("trainer.ppo", after=ppo_active)),
            Wrap(trainer, "adaptive_update", self.span("optim.adam")),
            Wrap(trainer, "clip_global_norm", self.span("optim.clip")),
            Wrap(trainer, "polyak_average", self.span("optim.polyak")),
            Wrap(trainer.ReplayBank, "push", self.span("trainer.replay.push")),
            Wrap(trainer.ReplayBank, "sample", self.span("trainer.replay.sample")),
            Wrap(trainer.BaselineTable, "update", self.span("trainer.baseline.update")),
            Wrap(ms.space.SearchSpace, "decode", self.span("space.decode")),
            Wrap(ms.space.SearchSpace, "rank", self.span("space.rank")),
            Wrap(evaluators.EvaluatorBinding, "__call__", self.span("evaluators.eval")),
            Wrap(evaluators, "tabular_evaluate", self.span("evaluators.tabular")),
            Wrap(evaluators, "train_child_network", self.span("evaluators.child_train")),
            Wrap(evaluators, "adagrad_l2_update", self.leaf_timer("optim.adagrad")),
            Wrap(controller, "ParamLayout", self.span("parameters.layout_build")),
            Wrap(controller.ControllerParams, "with_flat", self.span("parameters.with_flat")),
            Wrap(controller, "lstm_step_record", self.span(batch_of_step)),
            Wrap(controller, "lstm_sequence_backward", self.span(batch_of_backward)),
            Wrap(controller, "softmax", self.leaf_timer("kernel.softmax")),
            Wrap(controller, "log_softmax", self.leaf_timer("kernel.softmax")),
            Wrap(kernel, "sigmoid", self.leaf_timer("kernel.sigmoid")),
        ]

    # -- reading the results -----------------------------------------------------
    def get(self, name: str, in_loop: bool | None = None) -> Stat:
        """Totals of ``name`` in the loop, outside it, or (None) both."""
        keys = [(name, True), (name, False)] if in_loop is None else [(name, in_loop)]
        out = Stat()
        for key in keys:
            st = self.stats.get(key)
            if st is not None:
                out.calls += st.calls
                out.errors += st.errors
                out.total_ns += st.total_ns
                out.self_ns += st.self_ns
                out.durations_ns.extend(st.durations_ns)
        return out

    def write(self, path) -> None:
        """Save the spans (and the name table) as one compressed ``.npz``."""
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, SPAN_FIELDS)
        names = np.array(sorted(self.names, key=self.names.get))
        np.savez_compressed(
            path,
            names=names,
            name_id=spans[:, 0],
            trace_id=spans[:, 1],
            start_ns=spans[:, 2],
            end_ns=spans[:, 3],
            parent=spans[:, 4],
        )
