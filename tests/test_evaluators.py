import numpy as np
import pytest

from modelsearch import evaluators
from modelsearch.errors import (
    InvalidConfig,
    NotBruteForceable,
    OutOfRange,
    UnknownConfig,
)
from modelsearch.evaluators import (
    EvaluatorBinding,
    OracleTable,
    binding_from_table,
    brute_force_optimum,
    child_forward_logits,
    child_grads,
    child_init,
    child_loss_and_grads,
    child_parameter_count,
    planted_table,
    reward_from_accuracy,
    tabular_evaluate,
    train_child_network,
)
from modelsearch.fixtures import (
    child_search_space,
    planted_pair_a,
    toy_overlap,
    toy_separable,
)
from modelsearch.space import ParamSpec, SearchSpace

TINY = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])


def test_reward_from_accuracy():
    assert reward_from_accuracy(0.9) == pytest.approx(0.729)
    assert reward_from_accuracy(1.0) == 1.0
    assert reward_from_accuracy(0.0) == 0.0
    with pytest.raises(OutOfRange):
        reward_from_accuracy(1.5)
    with pytest.raises(OutOfRange):
        reward_from_accuracy(-0.1)


def test_tabular_deterministic_when_noise_free():
    table = OracleTable(TINY, np.full(6, 0.5))
    cfg = TINY.decode([0, 0])
    vals = {tabular_evaluate(table, cfg, seed) for seed in range(5)}
    assert vals == {0.125}


def test_tabular_noise_mean_matches_monte_carlo():
    table = OracleTable(TINY, np.full(6, 0.5), noise_sigma=0.05)
    cfg = TINY.decode([1, 2])
    n = 10_000
    samples = np.array([tabular_evaluate(table, cfg, s) for s in range(n)])
    # independent oracle: the analytic mean of (0.5+N(0,.05))^3 with
    # negligible clamping is 0.5^3 + 3*0.5*sigma^2
    analytic = 0.5**3 + 3 * 0.5 * 0.05**2
    assert abs(samples.mean() - analytic) < 3 * samples.std() / np.sqrt(n)


def test_tabular_unknown_config():
    table = OracleTable(TINY, np.full(6, 0.5))
    other = SearchSpace([ParamSpec("a", (5, 6)), ParamSpec("b", ("x", "y", "z"))])
    cfg = other.decode([1, 0])
    with pytest.raises(UnknownConfig):
        tabular_evaluate(table, cfg, 0)


def test_tabular_purity_same_seed_same_reward():
    table = OracleTable(TINY, np.linspace(0.1, 0.9, 6), noise_sigma=0.1)
    cfg = TINY.decode([1, 1])
    assert tabular_evaluate(table, cfg, 77) == tabular_evaluate(table, cfg, 77)


def test_reward_scale_multiplies_cubed_reward():
    table = OracleTable(TINY, np.full(6, 0.5), reward_scale=10.0)
    cfg = TINY.decode([0, 1])
    assert tabular_evaluate(table, cfg, 0) == pytest.approx(1.25)


def test_oracle_table_requires_complete_coverage():
    with pytest.raises(ValueError):
        OracleTable(TINY, np.full(5, 0.5))
    with pytest.raises(ValueError):
        OracleTable(TINY, np.full(6, 1.5))


def test_oracle_table_csv_round_trip(tmp_path):
    table = planted_table(TINY, (1, 2), 0.9, falloff=0.8)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    loaded = OracleTable.from_csv(path, TINY)
    assert np.array_equal(loaded.accuracies, table.accuracies)


def test_oracle_table_csv_incomplete(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("index,accuracy\n0,0.5\n")
    with pytest.raises(ValueError):
        OracleTable.from_csv(path, TINY)


def test_brute_force_constant_table_breaks_ties_lexicographically():
    table = OracleTable(TINY, np.full(6, 0.5))
    cfg, reward = brute_force_optimum(binding_from_table("t", table))
    assert TINY.encode(cfg) == (0, 0)
    assert reward == pytest.approx(0.125)


def test_brute_force_finds_planted_optimum():
    table = planted_table(TINY, (1, 2), 0.9, falloff=0.8)
    cfg, reward = brute_force_optimum(binding_from_table("t", table))
    assert TINY.encode(cfg) == (1, 2)
    assert reward == pytest.approx(0.9**3)


def test_brute_force_two_task_fixture_has_distinct_optima():
    pair = planted_pair_a()
    tables = pair.tables()
    optima = {}
    for t in pair.tasks:
        cfg, _ = brute_force_optimum(binding_from_table(t.name, tables[t.name]))
        optima[t.name] = pair.space.encode(cfg)
        assert optima[t.name] == t.optimum
    names = list(optima)
    diff = sum(a != b for a, b in zip(optima[names[0]], optima[names[1]]))
    assert diff >= 3


def test_brute_force_refuses_non_tabular():
    binding = EvaluatorBinding("child", TINY, lambda c, s: 0.5)
    with pytest.raises(NotBruteForceable):
        brute_force_optimum(binding)


# --- child networks ---------------------------------------------------------


def test_child_parameter_count_matches_arrays():
    rng = np.random.default_rng(0)
    params = child_init(12, 3, 7, 2, rng)
    total = sum(p.size for p in params)
    assert total == child_parameter_count(12, 3, 7, 2)


def test_child_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    params = child_init(6, 2, 5, 3, rng)
    x = rng.normal(0, 1, (8, 6))
    y = rng.integers(0, 3, 8)
    loss, grads, d_input = child_loss_and_grads(params, x, y, input_grad=True)
    h = 1e-6
    for p, g in zip(params, grads):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = child_loss_and_grads(params, x, y)[0]
            flat[i] = orig - h
            dn = child_loss_and_grads(params, x, y)[0]
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(gflat[i] - fd) / max(abs(fd), 1e-6) < 1e-4
    # input gradient
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        up = child_loss_and_grads(params, x, y)[0]
        x.flat[i] = orig - h
        dn = child_loss_and_grads(params, x, y)[0]
        x.flat[i] = orig
        fd = (up - dn) / (2 * h)
        assert abs(d_input.flat[i] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_toy_task_generation_is_deterministic():
    a = toy_separable(3)
    b = toy_separable(3)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.val_y, b.val_y)
    assert set(a.extractors) == set(b.extractors)
    for k in a.extractors:
        assert np.array_equal(a.extractors[k], b.extractors[k])


def test_toy_task_balanced_and_disjoint_splits():
    task = toy_separable(5)
    assert task.train_x.shape[0] == task.train_y.shape[0]
    assert abs(task.train_y.mean() - 0.5) < 0.05
    assert abs(task.val_y.mean() - 0.5) < 0.05
    assert task.train_x.shape[0] != 0 and task.val_x.shape[0] != 0


def _good_config(space):
    return space.decode(
        space.encode(
            space.decode([0, 0, 0, 1, 1, 1, 0])  # Spanish, trainable, 1 layer, 32 nodes
        )
    )


def test_zero_iteration_child_is_at_chance_level():
    space = child_search_space()
    task = toy_overlap(11)
    cfg_items = space.decode([0, 0, 0, 1, 1, 0, 0]).as_dict()
    cfg_items["train_iterations"] = 0
    from modelsearch.space import ModelConfig

    cfg = ModelConfig(list(cfg_items.items()))
    accs = [train_child_network(cfg, task, seed) for seed in range(16)]
    assert 0.4 <= float(np.mean(accs)) <= 0.6


def test_child_training_is_deterministic():
    space = child_search_space()
    task = toy_separable(7)
    cfg = space.decode([0, 0, 0, 1, 1, 0, 0])
    a = train_child_network(cfg, task, 123)
    b = train_child_network(cfg, task, 123)
    assert a == b


def test_sensible_config_learns_separable_task():
    space = child_search_space()
    task = toy_separable(7)
    cfg = space.decode([0, 0, 0, 1, 1, 1, 0])  # verified by direct training
    acc = train_child_network(cfg, task, 0)
    assert acc > 0.95


def test_poor_extractor_hurts_when_frozen():
    space = child_search_space()
    task = toy_separable(7)
    # Japanese extractor buries the signal; frozen keeps it buried
    frozen = space.decode([1, 1, 0, 1, 1, 1, 0])
    trainable = space.decode([1, 0, 0, 1, 1, 1, 0])
    acc_frozen = train_child_network(frozen, task, 0)
    acc_trainable = train_child_network(trainable, task, 0)
    assert acc_trainable > acc_frozen


def test_invalid_child_configs_rejected():
    task = toy_separable(7)
    cfg = TINY.decode([0, 0])
    with pytest.raises(InvalidConfig):
        train_child_network(cfg, task, 0)
    space = child_search_space()
    from modelsearch.space import ModelConfig

    items = space.decode([0, 0, 0, 0, 0, 0, 0]).as_dict()
    items["embedding"] = "Martian"
    with pytest.raises(InvalidConfig):
        train_child_network(ModelConfig(list(items.items())), task, 0)


def test_child_forward_logits_shapes():
    rng = np.random.default_rng(2)
    params = child_init(4, 2, 6, 3, rng)
    out = child_forward_logits(params, rng.normal(0, 1, (5, 4)))
    assert out.shape == (5, 3)


# --- flat-vector training against the per-array loop ------------------------


def _per_array_training(config, task, seed):
    """Reference: one Adagrad call per array per step, the loss computed."""
    rng = np.random.default_rng(seed)
    extractor = task.extractors[config.embedding_choice].copy()
    mlp = child_init(extractor.shape[1], config.n_layers, config.n_nodes, task.n_classes, rng)
    trainable = config.embedding_trainable
    trained = ([extractor] if trainable else []) + mlp
    acc_state = [np.zeros_like(p) for p in trained]
    for _ in range(config.train_iterations):
        idx = rng.integers(0, task.train_x.shape[0], size=100)
        raw = task.train_x[idx]
        _, mlp_grads, d_feat = child_loss_and_grads(
            mlp, raw @ extractor, task.train_y[idx], input_grad=trainable
        )
        grads = ([raw.T @ d_feat] if trainable else []) + mlp_grads
        for j, (p, g) in enumerate(zip(trained, grads)):
            p_new, acc_state[j] = evaluators.adagrad_l2_update(
                p, g, acc_state[j], config.learning_rate, config.l2_weight
            )
            p[...] = p_new
    return mlp, task.val_x @ extractor


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dataset", [toy_separable, toy_overlap])
@pytest.mark.parametrize("l2_index", [0, 1])
@pytest.mark.parametrize("n_layers_index", [0, 1])
@pytest.mark.parametrize("trainable_index", [0, 1])
def test_flat_training_matches_per_array_loop_bitwise(
    monkeypatch, dataset, l2_index, n_layers_index, trainable_index
):
    from modelsearch.space import ModelConfig

    space = child_search_space()
    items = space.decode([0, trainable_index, n_layers_index, 1, 1, 0, l2_index]).as_dict()
    items["train_iterations"] = 30
    cfg = ModelConfig(list(items.items()))
    task = dataset(7)

    captured = []
    real_forward = evaluators.child_forward_logits
    real_update = evaluators.adagrad_l2_update

    def capture(params, x):
        captured.append(([p.copy() for p in params], x.copy()))
        return real_forward(params, x)

    calls = []

    def count(*args, **kwargs):
        calls.append(1)
        return real_update(*args, **kwargs)

    monkeypatch.setattr(evaluators, "child_forward_logits", capture)
    monkeypatch.setattr(evaluators, "adagrad_l2_update", count)
    acc = train_child_network(cfg, task, 5)
    assert len(calls) == cfg.train_iterations
    monkeypatch.undo()

    ref_mlp, ref_features = _per_array_training(cfg, task, 5)
    (mlp, features), = captured
    assert len(mlp) == len(ref_mlp) == 2 * (cfg.n_layers + 1)
    for got, want in zip(mlp, ref_mlp):
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(features), _bits(ref_features))
    pred = np.argmax(child_forward_logits(ref_mlp, ref_features), axis=1)
    assert acc == float(np.mean(pred == task.val_y))


def test_frozen_extractor_is_left_untouched():
    space = child_search_space()
    task = toy_separable(7)
    before = {k: v.copy() for k, v in task.extractors.items()}
    for trainable_index in (0, 1):
        train_child_network(space.decode([0, trainable_index, 0, 0, 0, 0, 1]), task, 3)
    for k, v in task.extractors.items():
        assert np.array_equal(v, before[k])


def test_loss_and_grads_returns_child_grads_unchanged():
    rng = np.random.default_rng(4)
    params = child_init(6, 2, 5, 3, rng)
    x = rng.normal(0, 1, (8, 6))
    y = rng.integers(0, 3, 8)
    logits, grads, d_input = child_grads(params, x, y, input_grad=True)
    loss, grads2, d_input2 = child_loss_and_grads(params, x, y, input_grad=True)
    assert np.array_equal(logits, child_forward_logits(params, x))
    assert len(grads) == len(grads2) == len(params)
    for g, g2 in zip(grads, grads2):
        assert np.array_equal(_bits(g), _bits(g2))
    assert np.array_equal(_bits(d_input), _bits(d_input2))
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    assert loss == pytest.approx(-logp[np.arange(8), y].mean(), rel=1e-12)
