import numpy as np
import pytest

from modelsearch.controller import (
    ControllerDims,
    action_distributions,
    add_task,
    exact_action_distributions,
    init_controller,
    sample_batch,
    sample_sequence,
    sequence_log_probs,
    teacher_forced,
)
from modelsearch.errors import UnknownTask
from modelsearch.space import ParamSpec, SearchSpace, default_search_space

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
    model = sample_sequence(params, 0, np.random.default_rng(0))
    expected = np.array([-np.log(2), -np.log(3)])
    assert np.allclose(model.behavior_log_probs, expected, atol=1e-12)
    lp = sequence_log_probs(params, 0, model.actions)
    assert np.allclose(lp, expected, atol=1e-12)


def test_sampled_log_probs_match_rescoring_exactly():
    params = init_controller(TINY, 2, 5, SMALL_DIMS)
    rng = np.random.default_rng(9)
    for _ in range(20):
        model = sample_sequence(params, 1, rng)
        lp = sequence_log_probs(params, 1, model.actions)
        assert np.array_equal(lp, model.behavior_log_probs)


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
