"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The heavy training runs are shared across criteria
through module-scoped fixtures; everything is deterministic for the pinned
seeds.
"""

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from modelsearch.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    task_embedding_correlations,
    transfer_init,
)
from modelsearch.config import (
    CHILD_DATASETS,
    TaskSpec,
    build_evaluator,
    build_evaluators,
    load_experiment_config,
    verify_reference_defaults,
)
from modelsearch.controller import (
    ControllerDims,
    action_distributions,
    init_controller,
    policy_backward,
    sequence_log_probs,
    teacher_forced,
)
from modelsearch.evaluators import (
    ToyTask,
    brute_force_optimum,
    child_init,
    child_loss_and_grads,
    train_child_network,
)
from modelsearch.harness import run_experiment
from modelsearch.smoothing import smooth_with_auto_window
from modelsearch.space import ParamSpec, SearchSpace
from modelsearch.trainer import (
    build_state,
    ppo_clipped_loss,
    run_search,
    run_state,
)

SEEDS = (0, 1, 2)
CONVERGENCE_ITERS = 3500  # criterion allows up to 5000
PRETRAIN_ITERS = 800
TRANSFER_BUDGET = 2000
CHILD_EVALUATIONS = 300
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL")
        raise
    print(f"\ncriterion {num} ({name}): PASS")


# --- shared fixtures ---------------------------------------------------------


def trainer_for(config, iterations):
    return dataclasses.replace(config.trainer, total_iterations=iterations)


@pytest.fixture(scope="module")
def pair_a():
    """The two planted tasks of the paper's main experiment."""
    return load_experiment_config(CONFIGS / "planted-pair.yaml")


@pytest.fixture(scope="module")
def pair_related():
    """Near-copies of pair A's optima, the transfer targets."""
    return load_experiment_config(CONFIGS / "transfer-related.yaml")


@pytest.fixture(scope="module")
def bindings_a(pair_a):
    return build_evaluators(pair_a)


@pytest.fixture(scope="module")
def bindings_related(pair_related):
    return build_evaluators(pair_related)


@pytest.fixture(scope="module")
def optima_a(pair_a, bindings_a):
    out = {}
    for name, binding in bindings_a:
        cfg, reward = brute_force_optimum(binding)
        out[name] = (pair_a.space.encode(cfg), reward)
    return out


@pytest.fixture(scope="module")
def base_runs(pair_a, bindings_a):
    """Converged multitask runs on pair A, one per seed."""
    cfg = trainer_for(pair_a, CONVERGENCE_ITERS)
    return {s: run_search(pair_a.space, bindings_a, cfg, s) for s in SEEDS}


@pytest.fixture(scope="module")
def scaled_runs(pair_a, bindings_a):
    """Same runs with one task's rewards scaled by 10."""
    first = pair_a.tasks[0]
    scaled = TaskSpec(first.name, {**first.evaluator, "reward_scale": 10.0})
    tasks = [(first.name, build_evaluator(pair_a.space, scaled)), bindings_a[1]]
    cfg = trainer_for(pair_a, CONVERGENCE_ITERS)
    return first.name, {s: run_search(pair_a.space, tasks, cfg, s) for s in SEEDS}


@pytest.fixture(scope="module")
def transfer_bundle(pair_a, pair_related, bindings_a, bindings_related, tmp_path_factory):
    """Per seed: pre-train on pair A, transfer to the related pair, plus a
    from-scratch baseline with the same seed."""
    root = tmp_path_factory.mktemp("transfer")
    out = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        state = build_state(pair_a.space, bindings_a, trainer_for(pair_a, PRETRAIN_ITERS), rng)
        run_state(state, rng)
        ck = root / f"pretrain_{seed}.bin"
        save_checkpoint(state, ck)
        ckpt = load_checkpoint(ck, pair_a.space)

        t_rng = np.random.default_rng(1000 + seed)
        t_state = transfer_init(
            ckpt,
            bindings_related,
            t_rng,
            config=trainer_for(pair_related, TRANSFER_BUDGET),
        )
        transfer_res = run_state(t_state, t_rng)

        scratch_res = run_search(
            pair_related.space,
            bindings_related,
            trainer_for(pair_related, TRANSFER_BUDGET),
            1000 + seed,
        )
        out[seed] = (transfer_res, scratch_res)
    return out


def task_events(result, name):
    return [e for e in result.events if e.task_name == name]


def modal_actions(events, window=200):
    last = events[-window:]
    return Counter(e.actions for e in last).most_common(1)[0][0]


def iterations_to_threshold(result, name, threshold, budget):
    evs = task_events(result, name)
    rewards = np.array([e.reward for e in evs])
    iters = np.array([e.iteration for e in evs])
    smoothed = smooth_with_auto_window(rewards)
    crossed = np.nonzero(smoothed >= threshold)[0]
    return int(iters[crossed[0]]) if len(crossed) else budget + 1


# --- criteria ----------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness vs finite differences"):
        start = time.monotonic()
        # controller: hidden size 4, 3-step sequences, full PPO path
        space = SearchSpace(
            [ParamSpec("a", (0, 1)), ParamSpec("b", (0, 1, 2)), ParamSpec("c", (0, 1))]
        )
        dims = ControllerDims(hidden_size=4, action_embed=3, task_embed=3, num_layers=2)
        params = init_controller(space, 2, 42, dims)
        rng = np.random.default_rng(7)
        B = 4
        task_ids = np.array([0, 1, 0, 1])
        actions = np.array([[0, 1, 0], [1, 2, 1], [0, 0, 1], [1, 1, 0]])
        old_lp = np.log(rng.uniform(0.2, 0.6, size=(B, 3)))
        adv = rng.normal(0.0, 1.0, size=B)

        def loss_of(flat):
            fwd = teacher_forced(params.with_flat(flat), task_ids, actions)
            return ppo_clipped_loss(fwd.log_probs, old_lp, adv, 0.2)[0]

        fwd = teacher_forced(params, task_ids, actions)
        loss, d_lp = ppo_clipped_loss(fwd.log_probs, old_lp, adv, 0.2)
        grads = policy_backward(params, fwd, d_lp)
        h = 1e-5
        fd = np.zeros_like(grads)
        for i in range(grads.size):
            up = params.flat.copy()
            up[i] += h
            dn = params.flat.copy()
            dn[i] -= h
            fd[i] = (loss_of(up) - loss_of(dn)) / (2 * h)
        rel = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4

        # child network: 2 layers x 5 nodes
        crng = np.random.default_rng(3)
        child = child_init(6, 2, 5, 3, crng)
        x = crng.normal(0, 1, (8, 6))
        y = crng.integers(0, 3, 8)
        _, child_grads, _ = child_loss_and_grads(child, x, y)
        hc = 1e-6
        for p, g in zip(child, child_grads):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + hc
                up_l = child_loss_and_grads(child, x, y)[0]
                flat[i] = orig - hc
                dn_l = child_loss_and_grads(child, x, y)[0]
                flat[i] = orig
                fd_i = (up_l - dn_l) / (2 * hc)
                assert abs(gflat[i] - fd_i) / max(abs(fd_i), 1e-6) < 1e-4

        assert time.monotonic() - start < 60.0


def test_criterion_2_multitask_convergence(pair_a, base_runs, optima_a):
    with criterion(2, "multitask convergence to brute-force optima"):
        for task in pair_a.tasks:
            wins = 0
            for seed in SEEDS:
                evs = task_events(base_runs[seed], task.name)
                assert len(evs) >= 400
                if modal_actions(evs) == optima_a[task.name][0]:
                    wins += 1
                rewards = np.array([e.reward for e in evs])
                dec = len(rewards) // 10
                assert rewards[-dec:].mean() > rewards[:dec].mean(), (
                    f"no improvement for {task.name} seed {seed}"
                )
            assert wins >= 2, f"{task.name}: optimum modal in only {wins}/3 seeds"


def test_criterion_3_task_differentiation(base_runs, optima_a):
    with criterion(3, "per-task marginals favor each planted optimum"):
        first, second = (optimum for optimum, _ in optima_a.values())
        diff = [i for i, (x, y) in enumerate(zip(first, second)) if x != y]
        assert len(diff) >= 3
        seed_ok = 0
        for seed in SEEDS:
            run = base_runs[seed]
            good = True
            for task_id, name in enumerate(run.task_names):
                margs = action_distributions(
                    run.actor, task_id, 10_000, np.random.default_rng(900 + seed)
                )
                planted = optima_a[name][0]
                for pos in diff:
                    if int(np.argmax(margs[pos])) != planted[pos]:
                        good = False
            seed_ok += good
        assert seed_ok >= 2, f"marginals matched optima in only {seed_ok}/3 seeds"


def test_criterion_4_advantage_normalization(pair_a, base_runs, scaled_runs, optima_a):
    with criterion(4, "10x reward scaling leaves normalized advantages unchanged"):
        scale_task, runs10 = scaled_runs
        other_task = [t.name for t in pair_a.tasks if t.name != scale_task][0]
        for seed in SEEDS:
            base, scaled = base_runs[seed], runs10[seed]
            b_evs = task_events(base, scale_task)
            s_evs = task_events(scaled, scale_task)
            assert len(b_evs) == len(s_evs)
            for b, s in zip(b_evs, s_evs):
                assert b.iteration == s.iteration and b.actions == s.actions
                assert abs(s.reward - 10.0 * b.reward) < 1e-12
                assert abs(s.advantage_norm - b.advantage_norm) <= 1e-12
            # the other task's converged modal config is untouched
            assert modal_actions(task_events(base, other_task)) == modal_actions(
                task_events(scaled, other_task)
            )


def test_criterion_5_transfer_speedup(pair_related, bindings_related, transfer_bundle):
    with criterion(5, "transfer crosses the reward threshold sooner than scratch"):
        thresholds = {}
        for name, binding in bindings_related:
            _, opt_reward = brute_force_optimum(binding)
            thresholds[name] = 0.9 * opt_reward
        transfer_stat, scratch_stat = [], []
        for seed in SEEDS:
            transfer_res, scratch_res = transfer_bundle[seed]
            t_vals = [
                iterations_to_threshold(transfer_res, n, thresholds[n], TRANSFER_BUDGET)
                for n, _ in bindings_related
            ]
            s_vals = [
                iterations_to_threshold(scratch_res, n, thresholds[n], TRANSFER_BUDGET)
                for n, _ in bindings_related
            ]
            transfer_stat.append(float(np.mean(t_vals)))
            scratch_stat.append(float(np.mean(s_vals)))
            # best models agree within 1 percent regardless of start
            for name, _ in bindings_related:
                t_best = max(e.reward for e in task_events(transfer_res, name))
                s_best = max(e.reward for e in task_events(scratch_res, name))
                assert abs(t_best - s_best) <= 0.01 * s_best
        assert np.median(transfer_stat) < np.median(scratch_stat), (
            f"transfer medians {transfer_stat} vs scratch {scratch_stat}"
        )


def test_transfer_starts_from_a_better_location(transfer_bundle):
    """Supplementary check: the very first iterations of a transferred run
    already sample better models than a fresh one (3-seed median)."""
    t_means, s_means = [], []
    for seed in SEEDS:
        transfer_res, scratch_res = transfer_bundle[seed]
        t_means.append(
            float(np.mean([e.reward for e in transfer_res.events if e.iteration < 100]))
        )
        s_means.append(
            float(np.mean([e.reward for e in scratch_res.events if e.iteration < 100]))
        )
    assert np.median(t_means) > np.median(s_means)


def test_criterion_6_task_embedding_relatedness(pair_a, pair_related, transfer_bundle):
    with criterion(6, "new task embeddings correlate with their related tasks"):
        # pre-training rows 0,1; transferred rows 2,3 in registry order
        related = {"sentiment-reviews": 0, "language-id-reviews": 1}
        unrelated = {"sentiment-reviews": 1, "language-id-reviews": 0}
        ok = 0
        for seed in SEEDS:
            transfer_res, _ = transfer_bundle[seed]
            corr = task_embedding_correlations(transfer_res.actor, [0, 1, 2, 3])
            good = True
            for new_row, name in ((2, "sentiment-reviews"), (3, "language-id-reviews")):
                if corr[new_row, related[name]] <= corr[new_row, unrelated[name]]:
                    good = False
            ok += good
        assert ok >= 2, f"correlation ordering held in only {ok}/3 seeds"


def test_criterion_7_end_to_end_child_training():
    with criterion(7, "search over real child networks finds a strong config"):
        config = load_experiment_config(CONFIGS / "child-networks.yaml")
        space = config.space
        task = ToyTask.generate(*CHILD_DATASETS[config.tasks[0].evaluator["dataset"]])
        # brute force first: strong configs must exist in the reduced space
        strong = 0
        for actions in space.enumerate_actions():
            if train_child_network(space.decode(actions), task, 12345) >= 0.95:
                strong += 1
        assert strong >= 1, "no config reaches 0.95 on the separable task"

        tasks = build_evaluators(config)
        wins = 0
        for seed in SEEDS:
            cfg = trainer_for(config, CHILD_EVALUATIONS)
            res = run_search(space, tasks, cfg, seed)
            assert len(res.events) <= CHILD_EVALUATIONS
            best_reward = max(e.reward for e in res.events)
            best_acc = best_reward ** (1.0 / 3.0)
            wins += best_acc >= 0.95
        assert wins >= 2, f"accuracy >= 0.95 found in only {wins}/3 seeds"


def test_criterion_8_determinism_and_serialization(tmp_path, pair_a, bindings_a):
    with criterion(8, "bitwise determinism and lossless serialization"):
        # harness event logs reproduce byte for byte
        config_text = """
name: determinism
seeds: [0]
search_space:
  - {name: a, choices: [0, 1]}
  - {name: b, choices: [x, y, z]}
controller: {hidden_size: 8, action_embed: 4, task_embed: 4}
trainer: {total_iterations: 60}
tasks:
  - {name: t0, evaluator: {kind: planted, optimum: [0, 1], ceiling: 0.9}}
  - {name: t1, evaluator: {kind: planted, optimum: [1, 2], ceiling: 0.8}}
"""
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(config_text)
        out1 = run_experiment(cfg_path, mode="search", out_dir=tmp_path / "r1")
        out2 = run_experiment(cfg_path, mode="search", out_dir=tmp_path / "r2")
        assert (out1 / "seed_0" / "events.csv").read_bytes() == (
            out2 / "seed_0" / "events.csv"
        ).read_bytes()

        # checkpoint round trip is bitwise
        rng = np.random.default_rng(0)
        state = build_state(pair_a.space, bindings_a, trainer_for(pair_a, 25), rng)
        run_state(state, rng)
        ck = tmp_path / "ck.bin"
        save_checkpoint(state, ck)
        loaded = load_checkpoint(ck, pair_a.space)
        assert np.array_equal(loaded.actor.flat, state.actor.flat)
        assert np.array_equal(loaded.critic.flat, state.critic.flat)

        # sequence probabilities sum to one on an enumerable 2-parameter space
        tiny = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
        params = init_controller(
            tiny, 1, 5, ControllerDims(hidden_size=8, action_embed=4, task_embed=4)
        )
        total = sum(
            float(np.exp(sequence_log_probs(params, 0, actions).sum()))
            for actions in tiny.enumerate_actions()
        )
        assert abs(total - 1.0) < 1e-6


def test_criterion_9_reference_default_fidelity():
    with criterion(9, "bundled defaults match the reference setup"):
        checks = verify_reference_defaults()
        failed = [k for k, ok in checks.items() if not ok]
        assert failed == [], f"defaults drifted: {failed}"
