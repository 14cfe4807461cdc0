"""The critic step's workspace: owned by one search state, never shared.

A TrainerState builds its workspace on first use and never pickles it, so
every copy, unpickled state and transfer builds its own. A library call
given no workspace allocates its results, and no later call writes them.
"""

import copy
import dataclasses
import pickle
import tracemalloc
from pathlib import Path

import numpy as np

from modelsearch.checkpoint import load_checkpoint, save_checkpoint, transfer_init
from modelsearch.config import build_evaluators, load_experiment_config
from modelsearch.controller import (
    ControllerDims,
    Workspace,
    init_controller,
    policy_backward,
    teacher_forced,
)
from modelsearch.trainer import _critic_step, build_state, train_iteration

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PLANTED = load_experiment_config(CONFIGS / "planted-pair.yaml")


def planted_state(seed, **trainer):
    cfg = dataclasses.replace(PLANTED.trainer, **trainer)
    rng = np.random.default_rng(seed)
    state = build_state(PLANTED.space, build_evaluators(PLANTED), cfg, rng, PLANTED.dims)
    return state, rng


def weights(state):
    return state.actor.flat.tobytes(), state.critic.flat.tobytes(), state.adam.m.tobytes()


def test_states_trained_in_alternation_equal_states_trained_alone():
    alone = []
    for seed in (1, 2):
        state, rng = planted_state(seed, steps_per_sync=3)
        for _ in range(15):
            train_iteration(state, rng)
        alone.append(weights(state))
    pair = [planted_state(seed, steps_per_sync=3) for seed in (1, 2)]
    for _ in range(15):
        for state, rng in pair:
            train_iteration(state, rng)
    assert pair[0][0].work is not pair[1][0].work
    assert [weights(state) for state, _ in pair] == alone


def test_a_workspace_holds_the_largest_critic_step():
    # the full batch, then a gather of all rows but one (the backward's
    # largest draw): the first round grows the scratches, the second draws
    # every array from the same two buffers, and each result has the bits
    # of a call without a workspace
    dims = ControllerDims(hidden_size=7, action_embed=3, task_embed=5, num_layers=3)
    params = init_controller(PLANTED.space, 2, 0, dims)
    rng = np.random.default_rng(1)
    task_ids = rng.integers(0, 2, 12)
    actions = np.array([PLANTED.space.actions_at(int(r)) for r in rng.integers(0, 432, 12)])
    work = Workspace(params)
    for warm in (False, True):
        buffers = []
        for active in (12, 11):
            fwd = teacher_forced(params, task_ids, actions, work)
            alone = teacher_forced(params, task_ids, actions)
            assert pickle.dumps(fwd) == pickle.dumps(alone)
            d = np.zeros((12, PLANTED.space.n_params))
            d[:active] = rng.normal(size=(active, 1))
            want = policy_backward(params, alone, d)
            assert policy_backward(params, fwd, d, work).tobytes() == want.tobytes()
            buffers.append((work.forward.buffer, work.backward.buffer))
            if warm:
                assert 0 < work.forward.used <= work.forward.buffer.size
                assert 0 < work.backward.used <= work.backward.buffer.size
    assert all(f is buffers[0][0] and b is buffers[0][1] for f, b in buffers)


def test_a_workspace_grows_with_the_batch_size_mid_run():
    # the raised batch outgrows the forward scratch; the state keeps its
    # workspace, and its weights equal a copy's that builds its own
    # workspace at the raised size
    state, rng = planted_state(6, steps_per_sync=3)
    for _ in range(10):
        train_iteration(state, rng)
    work = state.work
    size = work.forward.buffer.size
    state.config = dataclasses.replace(state.config, batch_size=60)
    fresh, fresh_rng = copy.deepcopy((state, rng))
    assert fresh.work is None
    for _ in range(10):
        train_iteration(state, rng)
        train_iteration(fresh, fresh_rng)
    assert state.work is work and work.forward.buffer.size > size
    assert weights(state) == weights(fresh)
    assert state.adam.v.tobytes() == fresh.adam.v.tobytes()


def test_library_results_are_not_written_by_later_calls():
    params = init_controller(PLANTED.space, 2, 0, PLANTED.dims)
    rng = np.random.default_rng(0)
    task_ids = rng.integers(0, 2, 20)
    actions = np.array([PLANTED.space.actions_at(int(r)) for r in rng.integers(0, 432, 20)])
    fwd = teacher_forced(params, task_ids, actions)
    d = np.zeros((20, PLANTED.space.n_params))
    d[:7] = rng.normal(size=(7, 1))
    kept_fwd = copy.deepcopy(fwd)
    grads = policy_backward(params, fwd, d)
    kept_grads = grads.copy()
    other = teacher_forced(params, task_ids[::-1], actions[::-1])
    policy_backward(params, other, d[::-1])
    policy_backward(params, fwd, -d)
    assert grads.tobytes() == kept_grads.tobytes()
    assert pickle.dumps(fwd) == pickle.dumps(kept_fwd)


def test_copies_unpickled_and_transferred_states_build_their_own_workspace(tmp_path):
    state, rng = planted_state(4)
    for _ in range(3):
        train_iteration(state, rng)
    work = state.work
    assert work is not None
    size = len(pickle.dumps(state))
    state.work = None
    assert len(pickle.dumps(state)) == size
    state.work = work
    save_checkpoint(state, tmp_path / "c.bin")
    others = [
        pickle.loads(pickle.dumps(state)),
        copy.copy(state),
        copy.deepcopy(state),
        transfer_init(
            load_checkpoint(tmp_path / "c.bin", PLANTED.space),
            [("new", build_evaluators(PLANTED)[0][1])],
            rng,
        ),
    ]
    for other in others:
        assert other.work is None
        train_iteration(other, np.random.default_rng(5))
        assert other.work is not None and other.work is not work
        assert not np.shares_memory(other.work.grads.flat, work.grads.flat)


def test_a_warm_critic_step_allocates_little():
    # a step that allocates its gradient vector, Adam's two temporaries and
    # its records peaks at 1.6-2.6 MB; in the workspace only the batch
    # arrays, per-step rows and numpy's iteration buffers are left, 0.1-0.2 MB
    state, rng = planted_state(31)
    for _ in range(20):  # the first step builds the workspace
        train_iteration(state, rng)
    peaks = []
    for _ in range(10):
        tracemalloc.start()
        try:
            _critic_step(state, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert state.config.batch_size == 20
    assert max(peaks) < 500_000, peaks
