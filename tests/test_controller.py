import dataclasses
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modelsearch.checkpoint import load_checkpoint, save_checkpoint
from modelsearch.config import build_evaluators, load_experiment_config
from modelsearch.controller import (
    ControllerDims,
    ControllerParams,
    Workspace,
    action_distributions,
    add_task,
    exact_action_distributions,
    init_controller,
    policy_backward,
    sample_batch,
    sample_sequence,
    sequence_log_probs,
    teacher_forced,
)
from modelsearch.errors import UnknownTask
from modelsearch.kernel import lstm_sequence_backward, lstm_step_record
from modelsearch.optim import AdamState, adaptive_update, polyak_average
from modelsearch.space import ParamSpec, SearchSpace, default_search_space
from modelsearch.trainer import TrainerConfig, build_state, train_iteration

TINY = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
SMALL_DIMS = ControllerDims(hidden_size=8, action_embed=4, task_embed=4, num_layers=2)


def test_init_is_deterministic_and_in_range():
    a = init_controller(TINY, 3, 123, SMALL_DIMS)
    b = init_controller(TINY, 3, 123, SMALL_DIMS)
    assert np.array_equal(a.flat, b.flat)
    assert np.all(np.abs(a.flat) <= 0.08)
    assert np.abs(a.flat).max() > 0.07  # actually fills the range


def test_default_space_projection_widths():
    params = init_controller(default_search_space(), 2, 0)
    widths = tuple(params.projection(i)[0].shape[1] for i in range(7))
    assert widths == (6, 2, 5, 4, 4, 4, 4)
    assert params.dims.input_size == 50
    for l, layer in enumerate(params.lstm_layers()):
        assert layer.hidden_size == 50
        assert layer.input_size == (50 if l == 0 else 50)


def test_uniform_logits_give_uniform_log_probs():
    params = init_controller(TINY, 1, 0, SMALL_DIMS)
    for i in range(TINY.n_params):
        w, b = params.projection(i)
        w[...] = 0.0
        b[...] = 0.0
    actions, sampled_lp = sample_sequence(params, 0, np.random.default_rng(0))
    expected = np.array([-np.log(2), -np.log(3)])
    assert np.allclose(sampled_lp, expected, atol=1e-12)
    lp = sequence_log_probs(params, 0, actions)
    assert np.allclose(lp, expected, atol=1e-12)


def test_sampled_log_probs_match_rescoring_exactly():
    params = init_controller(TINY, 2, 5, SMALL_DIMS)
    rng = np.random.default_rng(9)
    for _ in range(20):
        actions, sampled_lp = sample_sequence(params, 1, rng)
        lp = sequence_log_probs(params, 1, actions)
        assert np.array_equal(lp, sampled_lp)


def test_unknown_task_rejected():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    with pytest.raises(UnknownTask):
        sample_sequence(params, 5, np.random.default_rng(0))
    with pytest.raises(UnknownTask):
        sequence_log_probs(params, -1, (0, 0))


def test_batch_with_one_unknown_task_rejected():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    with pytest.raises(UnknownTask) as info:
        sample_batch(params, [0, 1, 2, 1], np.random.default_rng(0))
    assert info.value.task_id == 2
    with pytest.raises(UnknownTask):
        teacher_forced(params, [1, -1], [(0, 0), (1, 2)])


def test_snapshots_share_one_layout():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    assert params.with_flat(params.flat * 0.5).layout is params.layout
    assert params.copy().layout is params.layout
    assert init_controller(TINY, 2, 1, SMALL_DIMS).layout is params.layout
    grown, _ = add_task(params, np.random.default_rng(0))
    assert grown.layout is not params.layout
    assert grown.layout.total_size == params.layout.total_size + SMALL_DIMS.task_embed


def test_step0_frequencies_match_softmax():
    """Empirical first-step frequencies agree with the analytic policy."""
    from modelsearch.controller import teacher_forced

    params = init_controller(TINY, 1, 17, SMALL_DIMS)
    n = 10_000
    actions, _ = sample_batch(params, np.zeros(n, dtype=np.int64), np.random.default_rng(3))
    fwd = teacher_forced(params, np.array([0]), np.array([[0, 0]]))
    p0 = fwd.probs[0][0]
    freq = np.bincount(actions[:, 0], minlength=2) / n
    sigma = np.sqrt(p0 * (1 - p0) / n)
    assert np.all(np.abs(freq - p0) <= 3 * sigma + 1e-12)


def test_sequence_probabilities_sum_to_one():
    params = init_controller(TINY, 2, 31, SMALL_DIMS)
    total = 0.0
    for actions in TINY.enumerate_actions():
        total += float(np.exp(sequence_log_probs(params, 0, actions).sum()))
    assert abs(total - 1.0) < 1e-6


def test_action_distribution_marginals_against_enumeration():
    params = init_controller(TINY, 1, 11, SMALL_DIMS)
    exact = exact_action_distributions(params, 0)
    mc = action_distributions(params, 0, 100_000, np.random.default_rng(4))
    for e, m in zip(exact, mc):
        assert np.abs(e.sum() - 1.0) < 1e-9
        assert np.abs(m.sum() - 1.0) < 1e-9
        assert np.max(np.abs(e - m)) < 0.02


def test_chunked_exact_marginals_match_one_forward_pass(monkeypatch):
    from modelsearch import controller

    space = SearchSpace(
        [ParamSpec("a", (0, 1, 2)), ParamSpec("b", tuple("wxyz")), ParamSpec("c", tuple(range(5)))]
    )
    params = init_controller(space, 2, 5, SMALL_DIMS)
    actions = np.array(list(space.enumerate_actions()), dtype=np.int64)
    fwd = teacher_forced(params, np.ones(len(actions), dtype=np.int64), actions)
    weights = np.exp(fwd.log_probs.sum(axis=1))
    direct = [
        np.bincount(actions[:, i], weights=weights, minlength=count) / weights.sum()
        for i, count in enumerate(space.choice_counts)
    ]
    monkeypatch.setattr(controller, "EXACT_CHUNK", 7)  # 60 sequences: 8 full chunks + 4
    chunked = exact_action_distributions(params, 1)
    assert len(chunked) == space.n_params
    for c, d in zip(chunked, direct):
        assert c.shape == d.shape
        assert np.max(np.abs(c - d)) < 1e-12
        assert abs(c.sum() - 1.0) < 1e-12


def enumeration_marginals(params, task_id):
    """Reference: teacher_forced over every sequence, weighted by exp(sum log p)."""
    space = params.space
    actions = np.array(list(space.enumerate_actions()), dtype=np.int64)
    fwd = teacher_forced(params, np.full(len(actions), task_id, dtype=np.int64), actions)
    weights = np.exp(fwd.log_probs.sum(axis=1))
    return [
        np.bincount(actions[:, i], weights=weights, minlength=count) / weights.sum()
        for i, count in enumerate(space.choice_counts)
    ]


def peaked_controller(space, seed):
    # scaled weights give marginals far from uniform, so a wrong weight shows
    params = init_controller(space, 2, seed)
    params.flat[...] *= 10
    return params


def test_prefix_expansion_matches_enumeration_on_the_planted_pair_space(monkeypatch):
    from modelsearch import controller

    config = load_experiment_config(Path(__file__).parents[1] / "configs/planted-pair.yaml")
    params = peaked_controller(config.space, 3)
    rows = []

    def counting_step(layers, x, state, out=None):
        rows.append(x.shape[0])
        return lstm_step_record(layers, x, state, out)

    monkeypatch.setattr(controller, "lstm_step_record", counting_step)
    for task_id in (0, 1):
        rows.clear()
        got = exact_action_distributions(params, task_id)
        # levels of 1, 3, 6, 12, 36, 108 and 216 prefixes; the last spans four chunks
        assert rows == [1, 3, 6, 12, 36, 64, 44, 64, 64, 64, 24]
        for g, ref in zip(got, enumeration_marginals(params, task_id), strict=True):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) < 1e-12
            assert abs(g.sum() - 1.0) < 1e-12


def test_prefix_expansion_matches_enumeration_on_the_default_space():
    params = peaked_controller(default_search_space(), 4)
    got = exact_action_distributions(params, 1)
    for g, ref in zip(got, enumeration_marginals(params, 1), strict=True):
        assert np.max(np.abs(g - ref)) < 1e-12
        assert abs(g.sum() - 1.0) < 1e-12


def test_exact_marginals_on_the_default_space_stay_small_in_memory():
    # scoring the whole space at once peaked at about 71 MB
    params = peaked_controller(default_search_space(), 5)
    tracemalloc.start()
    try:
        exact_action_distributions(params, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_exact_marginals_reject_an_unknown_task():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    for bad in (2, -1):
        with pytest.raises(UnknownTask):
            exact_action_distributions(params, bad)


def test_uniform_controller_marginals_are_uniform():
    params = init_controller(TINY, 1, 0, SMALL_DIMS)
    for i in range(TINY.n_params):
        w, b = params.projection(i)
        w[...] = 0.0
        b[...] = 0.0
    n = 10_000
    margs = action_distributions(params, 0, n, np.random.default_rng(2))
    for m, count in zip(margs, TINY.choice_counts):
        p = 1.0 / count
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(m - p) <= 3 * sigma)


def test_deterministic_controller_gives_one_hot_marginals():
    params = init_controller(TINY, 1, 0, SMALL_DIMS)
    for i in range(TINY.n_params):
        w, b = params.projection(i)
        w[...] = 0.0
        b[...] = 0.0
        b[0] = 50.0  # overwhelming logit on the first choice
    margs = action_distributions(params, 0, 2000, np.random.default_rng(0))
    for m in margs:
        assert m[0] > 0.999
        assert np.all(m[1:] < 1e-3)


def test_task_conditioning_changes_distributions():
    params = init_controller(TINY, 2, 7, SMALL_DIMS)
    # force both tasks onto the same embedding: identical distributions
    emb = params.task_embeddings()
    emb[1] = emb[0]
    d0 = exact_action_distributions(params, 0)
    d1 = exact_action_distributions(params, 1)
    for a, b in zip(d0, d1):
        assert np.array_equal(a, b)
    # perturb one embedding: distributions must move
    emb[1] += 0.5
    d1b = exact_action_distributions(params, 1)
    assert any(np.max(np.abs(a - b)) > 1e-6 for a, b in zip(d0, d1b))


def test_sampling_reproducible_for_fixed_seed():
    params = init_controller(TINY, 1, 2, SMALL_DIMS)
    a = sample_batch(params, np.zeros(50, dtype=np.int64), np.random.default_rng(8))[0]
    b = sample_batch(params, np.zeros(50, dtype=np.int64), np.random.default_rng(8))[0]
    assert np.array_equal(a, b)


def test_add_task_preserves_existing_weights_and_distributions():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    before = params.flat.copy()
    d0_before = exact_action_distributions(params, 0)
    grown, new_id = add_task(params, np.random.default_rng(42))
    assert new_id == 2
    assert grown.n_tasks == 3
    assert np.array_equal(grown.flat[: before.size], before)
    new_row = grown.task_embeddings()[new_id]
    assert np.all(np.abs(new_row) <= 0.08)
    d0_after = exact_action_distributions(grown, 0)
    for a, b in zip(d0_before, d0_after):
        assert np.array_equal(a, b)
    # sampling for old tasks is unchanged under the same rng stream
    s_before = sample_batch(params, np.zeros(20, dtype=np.int64), np.random.default_rng(5))[0]
    s_after = sample_batch(grown, np.zeros(20, dtype=np.int64), np.random.default_rng(5))[0]
    assert np.array_equal(s_before, s_after)


def per_step_backward(params, records, d_outputs, grads):
    """The LSTM backward one step and one layer at a time, with the products
    and the order of sums it had before it ran layer by layer: the reference
    for lstm_sequence_backward. Adds into ``grads``."""
    params = list(params)
    n_layers = len(params)
    dh_carry = [None] * n_layers
    dc_carry = [None] * n_layers
    d_inputs = [None] * len(d_outputs)
    for t in reversed(range(len(d_outputs))):
        d_above = d_outputs[t]
        for l in reversed(range(n_layers)):
            rec, h = records[l], params[l].hidden_size
            i, f, g, o = (rec.z[t][:, k * h : (k + 1) * h] for k in range(4))
            c_prev, tc = rec.c[t], rec.tc[t]
            dh = d_above if dh_carry[l] is None else d_above + dh_carry[l]
            dc = dh * o * (1.0 - tc**2)
            if dc_carry[l] is not None:
                dc = dc + dc_carry[l]
            dc_carry[l] = dc * f
            dz = np.concatenate(
                [
                    dc * g * i * (1.0 - i),
                    dc * c_prev * f * (1.0 - f),
                    dc * i * (1.0 - g**2),
                    dh * tc * o * (1.0 - o),
                ],
                axis=-1,
            )
            grads[l].w[...] += rec.xh[t].T @ dz
            grads[l].b[...] += dz.sum(axis=0)
            dh_carry[l] = dz @ params[l].w_h.T
            d_above = dz @ params[l].w_x.T
        d_inputs[t] = d_above
    return d_inputs


def full_batch_policy_backward(params, fwd, d_log_probs, lstm_backward=lstm_sequence_backward):
    """policy_backward as it was before it skipped rows: every row goes through."""
    space = params.space
    dims = params.dims
    T = space.n_params
    B = fwd.task_ids.shape[0]
    grads = ControllerParams.zeros(space, dims, params.n_tasks)
    rows = np.arange(B)
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
    d_inputs = lstm_backward(params.lstm_layers(), fwd.records, d_outputs, grads.lstm_layers())
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


def batch20_pass(seed=0):
    """A recorded batch-20 pass of the default controller, as the critic scores it."""
    params = init_controller(default_search_space(), 3, seed)
    rng = np.random.default_rng(seed)
    task_ids = rng.integers(0, 3, 20)
    actions, _ = sample_batch(params, task_ids, rng)
    return params, teacher_forced(params, task_ids, actions), rng


def test_backward_of_the_rows_with_gradient_matches_the_full_batch():
    # the surrogate gives one value per sequence, repeated over its steps;
    # a subset size that is a multiple of 4 is bitwise on some BLAS builds
    params, fwd, rng = batch20_pass()
    for k in range(1, 21):
        d = np.zeros((20, params.space.n_params))
        d[rng.choice(20, size=k, replace=False)] = rng.normal(size=(k, 1)) / 20
        full = full_batch_policy_backward(params, fwd, d)
        got = policy_backward(params, fwd, d)
        assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(full)), k


def test_backward_with_no_gradient_row_skips_the_lstm(monkeypatch):
    from modelsearch import controller

    params, fwd, _ = batch20_pass(1)
    calls = []
    monkeypatch.setattr(controller, "lstm_sequence_backward", lambda *a: calls.append(a))
    grads = policy_backward(params, fwd, np.zeros((20, params.space.n_params)))
    assert calls == []
    assert grads.shape == params.flat.shape
    assert not np.any(grads)


def test_backward_with_every_row_active_is_the_full_batch_path():
    params, fwd, rng = batch20_pass(2)
    d = rng.normal(size=(20, 1)) * np.ones(params.space.n_params) / 20
    assert np.array_equal(
        policy_backward(params, fwd, d), full_batch_policy_backward(params, fwd, d)
    )


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("n_params", [1, 7])
@pytest.mark.parametrize("batch", [1, 2, 3, 20])
def test_layer_major_backward_matches_the_per_step_reference(batch, n_params, num_layers):
    space = SearchSpace([ParamSpec(f"p{i}", tuple(range(2 + i % 3))) for i in range(n_params)])
    dims = ControllerDims(hidden_size=6, action_embed=3, task_embed=5, num_layers=num_layers)
    params = init_controller(space, 3, batch, dims)
    params.flat *= 10.0  # gates away from 1/2, so a wrong derivative shows
    rng = np.random.default_rng(batch)
    task_ids = rng.integers(0, 3, batch)
    actions, _ = sample_batch(params, task_ids, rng)
    fwd = teacher_forced(params, task_ids, actions)
    d = rng.normal(size=(batch, n_params))
    want = full_batch_policy_backward(params, fwd, d, per_step_backward)
    got = policy_backward(params, fwd, d)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    work = Workspace(params)
    in_work = policy_backward(params, teacher_forced(params, task_ids, actions, work), d, work)
    assert in_work.tobytes() == got.tobytes()


@pytest.mark.parametrize("num_layers", [1, 3])
def test_policy_gradient_matches_finite_differences_at_other_depths(num_layers):
    # unequal embeddings: layer 0's stacked block is taller than the others'
    space = SearchSpace(
        [ParamSpec("a", (0, 1)), ParamSpec("b", (0, 1, 2)), ParamSpec("c", (0, 1))]
    )
    dims = ControllerDims(hidden_size=3, action_embed=2, task_embed=5, num_layers=num_layers)
    params = init_controller(space, 2, 42, dims)
    params.flat *= 5.0  # weights in +-0.4 keep the lowest layer's gradient well above 1e-6
    task_ids = np.array([0, 1, 1])
    actions = np.array([[0, 2, 1], [1, 0, 0], [1, 1, 1]])
    probe = np.random.default_rng(num_layers).normal(size=(3, space.n_params))

    def loss_of(flat):
        return float(np.sum(probe * teacher_forced(params.with_flat(flat), task_ids, actions).log_probs))

    grads = policy_backward(params, teacher_forced(params, task_ids, actions), probe)
    h = 1e-5
    for i in range(grads.size):
        up = params.flat.copy()
        up[i] += h
        dn = params.flat.copy()
        dn[i] -= h
        fd = (loss_of(up) - loss_of(dn)) / (2 * h)
        assert abs(grads[i] - fd) / max(abs(fd), 1e-6) < 1e-4, i


# --- the controller's cached weight views --------------------------------------


def controller_views(params):
    """Every array the controller pass reads, through its accessors."""
    views = [params.start_embedding(), params.task_embeddings()]
    for layer in params.lstm_layers():
        views += [layer.w, layer.b]
    for t in range(params.space.n_params):
        views += [*params.projection(t), params.action_table(t)]
    return views


def assert_views_read_own_vector(params):
    """Each view is a view of ``params.flat`` and equals a freshly built one."""
    fresh = ControllerParams(params.space, params.dims, params.n_tasks, params.flat.copy())
    for got, want in zip(controller_views(params), controller_views(fresh), strict=True):
        assert np.shares_memory(got, params.flat)
        assert np.array_equal(got, want)


def test_cached_views_read_an_in_place_adam_step_and_polyak_blend():
    actor = init_controller(TINY, 2, 0, SMALL_DIMS)
    critic = actor.copy()
    before = [v.copy() for v in controller_views(critic)]
    controller_views(actor)
    grads = np.random.default_rng(1).normal(size=critic.flat.shape)
    adaptive_update(critic.flat, grads, AdamState.zeros(critic.flat.size), 0.01)
    assert_views_read_own_vector(critic)
    assert not any(np.array_equal(a, b) for a, b in zip(before, controller_views(critic)))
    polyak_average(actor.flat, critic.flat, 0.5)
    assert_views_read_own_vector(actor)
    actions = (1, 2)
    assert np.array_equal(
        sequence_log_probs(actor, 1, actions), sequence_log_probs(actor.copy(), 1, actions)
    )


def test_stacked_lstm_blocks_view_the_named_weights_and_gradients():
    params, fwd, rng = batch20_pass()
    d = rng.normal(size=(20, 1)) * np.ones(params.space.n_params) / 20
    grads = params.with_flat(policy_backward(params, fwd, d))
    for p in (params, grads):
        for l, layer in enumerate(p.lstm_layers()):
            w_x, w_h = p.get(f"lstm{l}.w_x"), p.get(f"lstm{l}.w_h")
            assert np.shares_memory(layer.w, p.flat)
            assert np.array_equal(layer.w, np.vstack([w_x, w_h]))
            assert np.array_equal(layer.w_x, w_x) and np.array_equal(layer.w_h, w_h)
            assert np.any(w_x) and np.any(w_h)


def test_unpickled_controller_views_its_own_vector():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    controller_views(params)  # the caches are full when it pickles
    copy = pickle.loads(pickle.dumps(params))
    assert type(copy) is ControllerParams
    assert not np.shares_memory(copy.flat, params.flat)
    copy.flat += 0.5
    assert_views_read_own_vector(copy)


def test_unpickled_trainer_state_trains_its_own_vectors():
    config = load_experiment_config(Path(__file__).parents[1] / "configs" / "planted-pair.yaml")
    cfg = dataclasses.replace(config.trainer, steps_per_sync=2)
    rng = np.random.default_rng(5)
    state = build_state(config.space, build_evaluators(config), cfg, rng, config.dims)
    for _ in range(3):
        train_iteration(state, rng)
    copy, copy_rng = pickle.loads(pickle.dumps((state, rng)))
    for _ in range(4):  # Adam steps and two Polyak blends, in place
        train_iteration(state, rng)
        train_iteration(copy, copy_rng)
    for name in ("actor", "critic"):
        ours, theirs = getattr(copy, name), getattr(state, name)
        assert_views_read_own_vector(ours)
        assert ours.flat.tobytes() == theirs.flat.tobytes()
        assert not any(np.shares_memory(v, theirs.flat) for v in controller_views(ours))


def test_copies_grown_and_loaded_controllers_have_their_own_views(tmp_path):
    tasks = [(f"t{i}", None) for i in range(2)]
    state = build_state(TINY, tasks, TrainerConfig(), 0, SMALL_DIMS)
    params = state.actor
    controller_views(params)
    save_checkpoint(state, tmp_path / "c.bin")
    loaded = load_checkpoint(tmp_path / "c.bin", TINY)
    grown, _ = add_task(params, np.random.default_rng(0))
    for other in (params.copy(), grown, loaded.actor, loaded.critic):
        assert other.lstm_layers() is not params.lstm_layers()
        assert not any(np.shares_memory(v, params.flat) for v in controller_views(other))
        other.flat += 0.5
        assert_views_read_own_vector(other)
    assert not any(np.shares_memory(v, loaded.critic.flat) for v in controller_views(loaded.actor))
