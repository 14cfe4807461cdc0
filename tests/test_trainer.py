import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from modelsearch.config import build_evaluators, load_experiment_config
from modelsearch.controller import ControllerDims
from modelsearch.errors import BaselineUninitialized, EmptyBank, LengthMismatch
from modelsearch.evaluators import EvaluatorBinding, planted_table
from modelsearch.space import ParamSpec, SearchSpace
from modelsearch.trainer import (
    BaselineTable,
    Event,
    ReplayBank,
    TrainerConfig,
    build_state,
    compute_advantage,
    draw_task,
    ppo_clipped_loss,
    run_search,
    run_state,
    train_iteration,
)

TINY = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
SMALL_DIMS = ControllerDims(hidden_size=8, action_embed=4, task_embed=4, num_layers=2)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def constant_binding(name, space, value=0.5):
    from modelsearch.evaluators import OracleTable

    table = OracleTable(space, np.full(space.cardinality(), value))
    return EvaluatorBinding(name, table=table)


# --- advantages -------------------------------------------------------------


def test_compute_advantage_examples():
    assert compute_advantage(0.6, 0.5, 1e-3) == pytest.approx(0.2)
    assert compute_advantage(0.5, 0.5, 1e-3) == 0.0
    assert compute_advantage(0.9, 0.3, 1e-3) == pytest.approx(2.0)


def test_advantage_floor_guards_small_baselines():
    assert compute_advantage(0.5, 1e-9, 1e-3) == pytest.approx((0.5 - 1e-9) / 1e-3)


def test_compute_advantage_is_elementwise():
    rewards = np.array([0.6, 0.5, 0.9, 0.5])
    baselines = np.array([0.5, 0.5, 0.3, 1e-9])
    got = compute_advantage(rewards, baselines, 1e-3)
    assert got.shape == (4,)
    for g, r, b in zip(got, rewards, baselines):
        assert g == compute_advantage(float(r), float(b), 1e-3)


def test_reward_scaling_leaves_normalized_advantage_unchanged():
    # EMA is linear in rewards, so (cR - cb)/(cb) == (R-b)/b above the floor
    rng = np.random.default_rng(0)
    rewards = rng.uniform(0.1, 0.9, 200)
    for c in (10.0, 0.5):
        t1 = BaselineTable(0.95)
        t2 = BaselineTable(0.95)
        for r in rewards:
            t1.update(0, r)
            t2.update(0, c * r)
            a1 = compute_advantage(r, t1.value(0), 1e-3)
            a2 = compute_advantage(c * r, t2.value(0), 1e-3)
            assert abs(a1 - a2) < 1e-12


# --- baselines ---------------------------------------------------------------


def test_baseline_first_reward_initializes():
    t = BaselineTable(0.95)
    with pytest.raises(BaselineUninitialized):
        t.value(0)
    t.update(0, 0.7)
    assert t.value(0) == 0.7


def test_baseline_ema_step():
    t = BaselineTable(0.95)
    t.update(1, 0.5)
    t.update(1, 0.7)
    assert t.value(1) == pytest.approx(0.95 * 0.5 + 0.05 * 0.7)
    assert t.value(1) == pytest.approx(0.51)


def test_baseline_from_version_1_dict_uses_the_table_decay():
    # version-1 checkpoints store a decay per entry; the table's one decay rules
    stored = {"0": {"value": 0.5, "decay": 0.5, "initialized": True}}
    t = BaselineTable.from_dict(stored, 0.95)
    t.update(0, 0.7)
    assert t.value(0) == 0.95 * 0.5 + (1.0 - 0.95) * 0.7
    assert t.as_dict()["0"]["decay"] == 0.95


def test_baseline_from_dict_skips_uninitialized_entries():
    stored = {
        "0": {"value": 0.5, "decay": 0.95, "initialized": True},
        "1": {"value": 0.0, "decay": 0.95, "initialized": False},
    }
    t = BaselineTable.from_dict(stored, 0.95)
    assert t.value(0) == 0.5
    with pytest.raises(BaselineUninitialized):
        t.value(1)
    assert t.as_dict() == {"0": stored["0"]}


def test_baseline_constant_rewards_fixed_point():
    t = BaselineTable(0.9)
    for _ in range(100):
        t.update(2, 0.25)
    assert t.value(2) == pytest.approx(0.25)


def test_baseline_stays_within_observed_reward_range():
    rng = np.random.default_rng(3)
    t = BaselineTable(0.8)
    lo, hi = np.inf, -np.inf
    for r in rng.uniform(0.2, 0.9, 500):
        t.update(0, r)
        lo, hi = min(lo, r), max(hi, r)
        assert lo - 1e-12 <= t.value(0) <= hi + 1e-12


# --- ppo loss ----------------------------------------------------------------


def _as_lp(total, steps=2):
    # split a total log-prob across steps
    return np.full((1, steps), total / steps)


def test_ppo_loss_on_policy_case():
    lp = _as_lp(-1.0)
    loss, d = ppo_clipped_loss(lp, lp.copy(), np.array([0.5]), 0.2)
    assert loss == pytest.approx(-0.5)
    # gradient: -(1/B) * r * A = -0.5 for every step entry
    assert np.allclose(d, -0.5)


def test_ppo_loss_clips_large_ratio():
    new = _as_lp(np.log(2.0))
    old = _as_lp(0.0)
    loss, d = ppo_clipped_loss(new, old, np.array([1.0]), 0.2)
    assert loss == pytest.approx(-1.2)
    assert np.allclose(d, 0.0)


def test_ppo_loss_clips_small_ratio_negative_advantage():
    new = _as_lp(np.log(0.5))
    old = _as_lp(0.0)
    loss, d = ppo_clipped_loss(new, old, np.array([-1.0]), 0.2)
    assert loss == pytest.approx(0.8)
    assert np.allclose(d, 0.0)


def test_ppo_loss_unclipped_negative_advantage_has_gradient():
    new = _as_lp(np.log(1.1))
    old = _as_lp(0.0)
    loss, d = ppo_clipped_loss(new, old, np.array([-1.0]), 0.2)
    assert loss == pytest.approx(1.1)
    assert np.allclose(d, 1.1)


def test_ppo_loss_shape_checks():
    with pytest.raises(LengthMismatch):
        ppo_clipped_loss(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2), 0.2)
    with pytest.raises(LengthMismatch):
        ppo_clipped_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3), 0.2)


# --- replay ------------------------------------------------------------------


def _record(task=0, reward=0.5, it=0):
    return Event(it, task, f"task{task}", reward, reward, 0.0, (0, 0), np.array([-0.7, -1.1]))


def test_replay_samples_only_the_last_capacity_events():
    bank = ReplayBank(2)
    for it in (1, 2, 3):
        bank.push(_record(it=it))
    assert [r.iteration for r in bank] == [1, 2, 3]  # the log keeps every event
    draws = bank.sample(200, np.random.default_rng(0))
    assert {r.iteration for r in draws} == {2, 3}


def test_unpickled_replay_bank_keeps_its_events_and_capacity():
    bank = ReplayBank(2)
    for it in (1, 2, 3):
        bank.push(_record(it=it))
    copy = pickle.loads(pickle.dumps(bank))
    assert type(copy) is ReplayBank and copy.capacity == 2
    assert [r.iteration for r in copy] == [1, 2, 3]


def test_replay_singleton_sample_and_empty_error():
    bank = ReplayBank(4)
    with pytest.raises(EmptyBank):
        bank.sample(1, np.random.default_rng(0))
    r = _record()
    bank.push(r)
    out = bank.sample(3, np.random.default_rng(0))
    assert all(x is r for x in out)


def test_replay_sampling_uniformity():
    bank = ReplayBank(10)
    for i in range(10):
        bank.push(_record(it=i))
    rng = np.random.default_rng(123)
    counts = np.zeros(10)
    draws = bank.sample(10_000, rng)
    for r in draws:
        counts[r.iteration] += 1
    freq = counts / 10_000
    assert np.all(freq >= 0.07) and np.all(freq <= 0.13)


# --- training loop -----------------------------------------------------------


def small_state(n_tasks=2, **cfg_kwargs):
    cfg = TrainerConfig(**cfg_kwargs)
    tasks = [
        (f"task{i}", constant_binding(f"task{i}", TINY, 0.4 + 0.2 * i))
        for i in range(n_tasks)
    ]
    return build_state(TINY, tasks, cfg, 0, SMALL_DIMS)


def test_build_state_rejects_duplicate_task_names():
    tasks = [("same", constant_binding("same", TINY, 0.5))] * 2
    with pytest.raises(ValueError, match="duplicate task name 'same'"):
        build_state(TINY, tasks, TrainerConfig(), 0, SMALL_DIMS)


def test_task_draw_is_uniform():
    state = small_state()
    rng = np.random.default_rng(0)
    draws = np.array([draw_task(state.evaluators, rng) for _ in range(10_000)])
    count = (draws == 0).sum()
    # binomial 3 sigma around 5000
    assert abs(count - 5000) <= 3 * np.sqrt(10_000 * 0.25)


def test_task_sampling_in_full_loop():
    state = small_state(total_iterations=600)
    res = run_state(state, np.random.default_rng(1))
    n0 = sum(1 for e in res.events if e.task_id == 0)
    assert abs(n0 - 300) <= 3 * np.sqrt(600 * 0.25)


def test_constant_reward_advantage_is_zero_from_first_sample():
    state = small_state(n_tasks=1, total_iterations=50)
    res = run_state(state, np.random.default_rng(2))
    assert all(abs(e.advantage_norm) < 1e-12 for e in res.events)


def varied_state(**cfg_kwargs):
    # planted table gives varying rewards, so the critic moves every step
    cfg = TrainerConfig(**cfg_kwargs)
    table = planted_table(TINY, (1, 2), 0.9, falloff=0.7)
    tasks = [("t", EvaluatorBinding("t", table=table))]
    return build_state(TINY, tasks, cfg, 0, SMALL_DIMS)


def test_actor_changes_only_at_sync_boundaries():
    state = varied_state(steps_per_sync=5, total_iterations=0)
    rng = np.random.default_rng(3)
    snapshots = [state.actor.flat.copy()]
    for i in range(10):
        train_iteration(state, rng)
        snapshots.append(state.actor.flat.copy())
    # critic must actually be moving for the sync check to be meaningful
    assert not np.array_equal(state.critic.flat, snapshots[0])
    for i in range(1, 11):
        changed = not np.array_equal(snapshots[i], snapshots[i - 1])
        assert changed == (i % 5 == 0)


def test_polyak_sync_blends_actor_and_critic():
    state = varied_state(steps_per_sync=1, polyak_keep=0.9, total_iterations=0)
    rng = np.random.default_rng(4)
    actor_before = state.actor.flat.copy()
    train_iteration(state, rng)
    expected = 0.9 * actor_before + 0.1 * state.critic.flat
    assert np.allclose(state.actor.flat, expected, atol=1e-15)


def test_critic_requires_initialized_baseline():
    # every record pushed has its baseline updated first, so training works
    state = small_state(total_iterations=30)
    res = run_state(state, np.random.default_rng(5))
    assert len(res.events) == 30


def test_off_policy_ratio_one_for_equal_params():
    from modelsearch.controller import sample_sequence, sequence_log_probs

    state = small_state()
    actions, old_lp = sample_sequence(state.actor, 0, np.random.default_rng(6))
    new_lp = sequence_log_probs(state.critic, 0, actions)
    ratio = np.exp(new_lp.sum() - old_lp.sum())
    assert ratio == 1.0


def test_zero_iterations_returns_empty_result():
    state = small_state(total_iterations=1)
    state.config.total_iterations = 0
    res = run_state(state, np.random.default_rng(0))
    assert res.events == []


def test_fixed_seed_runs_are_identical():
    space = load_experiment_config(CONFIGS / "planted-pair.yaml").space
    table = planted_table(space, (0, 0, 0, 1, 1, 0, 0), 0.9)
    tasks = [("t", EvaluatorBinding("t", table=table))]
    cfg = TrainerConfig(total_iterations=120)
    r1 = run_search(space, tasks, cfg, 7, SMALL_DIMS)
    r2 = run_search(space, tasks, cfg, 7, SMALL_DIMS)
    assert len(r1.events) == len(r2.events)
    for a, b in zip(r1.events, r2.events):
        assert (a.iteration, a.task_id, a.actions) == (b.iteration, b.task_id, b.actions)
        assert a.reward == b.reward
        assert a.baseline == b.baseline
        assert a.advantage_norm == b.advantage_norm
    assert np.array_equal(r1.actor.flat, r2.actor.flat)
    assert np.array_equal(r1.critic.flat, r2.critic.flat)


def test_evaluator_failures_are_skipped_not_fatal():
    calls = {"n": 0}

    def flaky(config, seed):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise RuntimeError("boom")
        return 0.5

    binding = EvaluatorBinding("flaky", flaky)
    cfg = TrainerConfig(total_iterations=30)
    state = build_state(TINY, [("flaky", binding)], cfg, 0, SMALL_DIMS)
    res = run_state(state, np.random.default_rng(0))
    assert state.iteration == 30
    assert len(res.events) == 20  # every third evaluation failed


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rewards_are_skipped_like_failures(bad, caplog):
    calls = {"n": 0}

    def half_bad(config, seed):
        calls["n"] += 1
        return bad if calls["n"] % 2 == 0 else 0.5

    binding = EvaluatorBinding("half_bad", half_bad)
    cfg = TrainerConfig(total_iterations=30)
    state = build_state(TINY, [("half_bad", binding)], cfg, 0, SMALL_DIMS)
    with caplog.at_level("WARNING", logger="modelsearch.trainer"):
        res = run_state(state, np.random.default_rng(0))
    assert state.iteration == 30
    assert [e.reward for e in res.events] == [0.5] * 15
    # the same log prefix as an evaluator that raises
    skips = [r for r in caplog.records if r.getMessage().startswith("evaluator ")]
    assert len(skips) == 15


def test_single_task_tiny_space_convergence_smoke():
    """Mean sampled reward improves between first and last deciles."""
    space = SearchSpace(
        [ParamSpec("a", (0, 1, 2)), ParamSpec("b", (0, 1)), ParamSpec("c", (0, 1, 2, 3))]
    )
    table = planted_table(space, (2, 0, 3), 0.95, falloff=0.8)
    tasks = [("t", EvaluatorBinding("t", table=table))]
    cfg = TrainerConfig(total_iterations=800)
    res = run_search(space, tasks, cfg, 11, SMALL_DIMS)
    rewards = np.array([e.reward for e in res.events])
    dec = len(rewards) // 10
    assert rewards[-dec:].mean() > rewards[:dec].mean()


# --- pickling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "config_file, trainer, before, after",
    [
        # past replay_capacity, across Polyak syncs after the round trip
        ("planted-pair.yaml", {"replay_capacity": 30, "steps_per_sync": 7}, 40, 20),
        ("child-networks.yaml", {"steps_per_sync": 2}, 3, 3),
    ],
    ids=["planted", "child"],
)
def test_pickled_state_continues_bit_for_bit(config_file, trainer, before, after):
    config = load_experiment_config(CONFIGS / config_file)
    cfg = dataclasses.replace(config.trainer, **trainer)
    rng = np.random.default_rng(3)
    state = build_state(config.space, build_evaluators(config), cfg, rng, config.dims)
    for _ in range(before):
        train_iteration(state, rng)
    copy, copy_rng = pickle.loads(pickle.dumps((state, rng)))
    for _ in range(after):
        train_iteration(state, rng)
        train_iteration(copy, copy_rng)
    assert copy.adam.step == state.adam.step == (before + after) * cfg.critic_steps_per_iteration
    for name in ("actor", "critic"):
        assert getattr(copy, name).flat.tobytes() == getattr(state, name).flat.tobytes()
    assert copy.adam.m.tobytes() == state.adam.m.tobytes()
    assert copy.adam.v.tobytes() == state.adam.v.tobytes()
    assert copy_rng.bit_generator.state == rng.bit_generator.state
    assert copy.baselines.as_dict() == state.baselines.as_dict()
    assert [(e.iteration, e.actions, e.reward) for e in copy.events] == [
        (e.iteration, e.actions, e.reward) for e in state.events
    ]
    assert copy.events.capacity == cfg.replay_capacity
