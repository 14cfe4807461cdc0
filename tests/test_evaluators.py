import csv
import pickle
from pathlib import Path

import numpy as np
import pytest

from modelsearch import evaluators
from modelsearch.config import CHILD_DATASETS, build_evaluators, load_experiment_config
from modelsearch.errors import (
    InvalidConfig,
    NotBruteForceable,
    OutOfRange,
    UnknownConfig,
)
from modelsearch.evaluators import (
    ChildBuffers,
    EvaluatorBinding,
    OracleTable,
    ToyTask,
    binding_from_child_task,
    brute_force_optimum,
    child_forward_logits,
    child_grads,
    child_init,
    child_loss_and_grads,
    planted_table,
    reward_from_accuracy,
    tabular_evaluate,
    train_child_network,
)
from modelsearch.space import ParamSpec, SearchSpace

TINY = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CHILD_SPACE = load_experiment_config(CONFIGS / "child-networks.yaml").space


def toy_separable(seed=None):
    name, default_seed, separation = CHILD_DATASETS["separable"]
    return ToyTask.generate(name, default_seed if seed is None else seed, separation)


def toy_overlap(seed=None):
    name, default_seed, separation = CHILD_DATASETS["overlap"]
    return ToyTask.generate(name, default_seed if seed is None else seed, separation)


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
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "accuracy"])
        w.writerows((i, repr(float(a))) for i, a in enumerate(table.accuracies))
    loaded = OracleTable.from_csv(path, TINY)
    assert np.array_equal(loaded.accuracies, table.accuracies)


def test_oracle_table_csv_incomplete(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("index,accuracy\n0,0.5\n")
    with pytest.raises(ValueError):
        OracleTable.from_csv(path, TINY)


def _table_text(lines):
    return "\n".join(lines) + "\n"


GOOD_ROWS = ["index,accuracy"] + [f"{i},0.5" for i in range(6)]

BAD_TABLES = {
    "index past the space": (GOOD_ROWS + ["6,0.5"], "line 8: index 6 outside [0, 6)"),
    "negative index": (GOOD_ROWS[:6] + ["-1,0.5"], "line 7: index -1 outside"),
    "duplicate index": (GOOD_ROWS[:4] + ["1,0.7"] + GOOD_ROWS[4:], "line 5: index 1 appears twice"),
    "fractional index": (GOOD_ROWS[:2] + ["1.5,0.5"], "line 3: invalid literal"),
    "accuracy not a number": (GOOD_ROWS[:2] + ["1,high"], "line 3: could not convert"),
    "accuracy NaN": (GOOD_ROWS[:2] + ["1,nan"], "line 3: accuracy nan outside"),
    "accuracy above 1": (GOOD_ROWS[:2] + ["1,1.5"], "line 3: accuracy 1.5 outside"),
    "short row": (GOOD_ROWS[:3] + ["2"], "line 4: "),
    "no index column": (["rank,accuracy"] + GOOD_ROWS[1:], "line 1: no 'index' column"),
    "no accuracy column": (["index,acc"] + GOOD_ROWS[1:], "line 1: no 'accuracy' column"),
    "empty file": ([""], "line 1: no 'index' column"),
}


@pytest.mark.parametrize("lines, message", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_oracle_table_csv_rejects_bad_rows(tmp_path, lines, message):
    path = tmp_path / "table.csv"
    path.write_text(_table_text(lines))
    with pytest.raises(ValueError) as exc:
        OracleTable.from_csv(path, TINY)
    assert str(exc.value).startswith(f"table at {path}, {message}")


def test_cli_search_with_bad_table_row_is_config_error(tmp_path, capsys):
    from modelsearch.cli import main as cli_main

    (tmp_path / "t.csv").write_text(_table_text(GOOD_ROWS + ["6,0.5"]))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "name: d\n"
        "search_space: [{name: a, choices: [0, 1]}, {name: b, choices: [x, y, z]}]\n"
        "tasks:\n"
        "  - {name: t, evaluator: {kind: table_csv, path: t.csv}}\n"
    )
    rc = cli_main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tasks[t].evaluator.path: table at ")
    assert "line 8: index 6 outside [0, 6)" in err
    assert not list(tmp_path.rglob("seed_*"))


def test_brute_force_constant_table_breaks_ties_lexicographically():
    table = OracleTable(TINY, np.full(6, 0.5))
    cfg, reward = brute_force_optimum(EvaluatorBinding("t", table=table))
    assert TINY.encode(cfg) == (0, 0)
    assert reward == pytest.approx(0.125)


def test_brute_force_finds_planted_optimum():
    table = planted_table(TINY, (1, 2), 0.9, falloff=0.8)
    cfg, reward = brute_force_optimum(EvaluatorBinding("t", table=table))
    assert TINY.encode(cfg) == (1, 2)
    assert reward == pytest.approx(0.9**3)


def test_brute_force_two_task_fixture_has_distinct_optima():
    """Every bundled config's planted optimum is its brute-force optimum,
    and the two planted-pair optima differ in at least 3 positions."""
    optima = {}
    for path in sorted(CONFIGS.glob("*.yaml")):
        config = load_experiment_config(path)
        for task, (name, binding) in zip(config.tasks, build_evaluators(config)):
            if task.evaluator["kind"] != "planted":
                continue
            cfg, _ = brute_force_optimum(binding)
            optima[path.stem, name] = config.space.encode(cfg)
            assert optima[path.stem, name] == tuple(task.evaluator["optimum"])
    first, second = optima["planted-pair", "sentiment"], optima["planted-pair", "language-id"]
    assert sum(a != b for a, b in zip(first, second)) >= 3


def test_brute_force_refuses_non_tabular():
    binding = EvaluatorBinding("child", lambda c, s: 0.5)
    with pytest.raises(NotBruteForceable):
        brute_force_optimum(binding)


# --- child networks ---------------------------------------------------------


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
    space = CHILD_SPACE
    task = toy_overlap(11)
    cfg_items = space.decode([0, 0, 0, 1, 1, 0, 0]).as_dict()
    cfg_items["train_iterations"] = 0
    from modelsearch.space import ModelConfig

    cfg = ModelConfig(list(cfg_items.items()))
    accs = [train_child_network(cfg, task, seed) for seed in range(16)]
    assert 0.4 <= float(np.mean(accs)) <= 0.6


def test_child_training_is_deterministic():
    space = CHILD_SPACE
    task = toy_separable(7)
    cfg = space.decode([0, 0, 0, 1, 1, 0, 0])
    a = train_child_network(cfg, task, 123)
    b = train_child_network(cfg, task, 123)
    assert a == b


def test_sensible_config_learns_separable_task():
    space = CHILD_SPACE
    task = toy_separable(7)
    cfg = space.decode([0, 0, 0, 1, 1, 1, 0])  # verified by direct training
    acc = train_child_network(cfg, task, 0)
    assert acc > 0.95


def test_poor_extractor_hurts_when_frozen():
    space = CHILD_SPACE
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
    space = CHILD_SPACE
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


# the embedding index selects extractor widths 24, 16 and 40; index 0
# keeps the plain dataset name as its id
DATASET_EMBEDDINGS = [
    pytest.param(make, e, id=make.__name__ + (f"-emb{e}" if e else ""))
    for e in (0, 1, 2)
    for make in (toy_separable, toy_overlap)
]


@pytest.mark.parametrize("dataset, embedding_index", DATASET_EMBEDDINGS)
@pytest.mark.parametrize("l2_index", [0, 1])
@pytest.mark.parametrize("n_layers_index", [0, 1])
@pytest.mark.parametrize("trainable_index", [0, 1])
def test_flat_training_matches_per_array_loop_bitwise(
    monkeypatch, dataset, l2_index, n_layers_index, trainable_index, embedding_index
):
    from modelsearch.space import ModelConfig

    space = CHILD_SPACE
    actions = [embedding_index, trainable_index, n_layers_index, 1, 1, 0, l2_index]
    items = space.decode(actions).as_dict()
    items["train_iterations"] = 30
    cfg = ModelConfig(list(items.items()))
    task = dataset(7)

    captured = []
    real_forward = evaluators.child_forward_logits
    real_update = evaluators.adagrad_l2_update

    def capture(params, x, outs=None):
        if outs is None:  # the validation pass; training steps write into buffers
            captured.append(([p.copy() for p in params], x.copy()))
        return real_forward(params, x, outs)

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


@pytest.mark.parametrize("n", [1200, 2**31 + 1])
@pytest.mark.parametrize("batch", [100, 7])
def test_one_index_draw_equals_per_step_draws(n, batch):
    # training draws every step's batch indices in one call; this must
    # leave the same values and the same generator state as one call per
    # step. At n = 2**31 + 1 about half of all raw draws are rejected.
    steps = 60
    for seed in range(20):
        one, per = np.random.default_rng(seed), np.random.default_rng(seed)
        one.uniform(size=seed % 3)
        per.uniform(size=seed % 3)
        drawn = one.integers(0, n, size=(steps, batch))
        stepwise = np.stack([per.integers(0, n, size=batch) for _ in range(steps)])
        assert np.array_equal(drawn, stepwise)
        assert one.bit_generator.state == per.bit_generator.state


def test_frozen_extractor_is_left_untouched():
    space = CHILD_SPACE
    task = toy_separable(7)
    before = {k: v.copy() for k, v in task.extractors.items()}
    for trainable_index in (0, 1):
        train_child_network(space.decode([0, trainable_index, 0, 0, 0, 0, 1]), task, 3)
    for k, v in task.extractors.items():
        assert np.array_equal(v, before[k])


def _allocating_child_grads(params, x, y):
    """Reference: the backward pass with fresh arrays for every result."""
    n_pairs = len(params) // 2
    acts = [x]
    h = x
    for i in range(n_pairs):
        z = h @ params[2 * i] + params[2 * i + 1]
        h = np.maximum(z, 0.0) if i + 1 < n_pairs else z
        acts.append(h)
    d = evaluators.softmax(acts[-1])
    d[np.arange(x.shape[0]), y] -= 1.0
    d /= x.shape[0]
    grads = [None] * len(params)
    for i in reversed(range(n_pairs)):
        grads[2 * i] = acts[i].T @ d
        grads[2 * i + 1] = d.sum(axis=0)
        if i > 0:
            d = (d @ params[2 * i].T) * (acts[i] > 0.0)
    return acts[-1], grads, d @ params[0].T


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_buffered_child_grads_match_allocating_reference_bitwise(n_layers):
    rng = np.random.default_rng(n_layers)
    params = child_init(24, n_layers, 32, 2, rng)
    grads = [np.empty_like(p) for p in params]
    bufs = ChildBuffers(params, 100, input_grad=True)
    for _ in range(5):  # the buffers are reused from batch to batch
        x = rng.normal(0, 1, (100, 24))
        y = rng.integers(0, 2, 100)
        want_logits, want_grads, want_d_input = _allocating_child_grads(params, x, y)
        logits = child_grads(params, x, y, grads, bufs)
        assert np.array_equal(_bits(logits), _bits(want_logits))
        for g, want in zip(grads, want_grads):
            assert np.array_equal(_bits(g), _bits(want))
        assert np.array_equal(_bits(bufs.d_input), _bits(want_d_input))


def test_loss_and_grads_returns_child_grads_unchanged():
    rng = np.random.default_rng(4)
    params = child_init(6, 2, 5, 3, rng)
    x = rng.normal(0, 1, (8, 6))
    y = rng.integers(0, 3, 8)
    grads = [np.empty_like(p) for p in params]
    bufs = ChildBuffers(params, 8, input_grad=True)
    logits = child_grads(params, x, y, grads, bufs)
    d_input = bufs.d_input
    loss, grads2, d_input2 = child_loss_and_grads(params, x, y, input_grad=True)
    assert np.array_equal(logits, child_forward_logits(params, x))
    assert len(grads) == len(grads2) == len(params)
    for g, g2 in zip(grads, grads2):
        assert np.array_equal(_bits(g), _bits(g2))
    assert np.array_equal(_bits(d_input), _bits(d_input2))
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    assert loss == pytest.approx(-logp[np.arange(8), y].mean(), rel=1e-12)


def test_unpickled_table_is_read_only_and_equal():
    accuracies = planted_table(TINY, (1, 2), 0.9, falloff=0.8).accuracies
    table = OracleTable(TINY, accuracies, reward_scale=2.0)
    copy = pickle.loads(pickle.dumps(table))
    assert not copy.accuracies.flags.writeable
    assert copy.accuracies.tobytes() == table.accuracies.tobytes()
    assert (copy.noise_sigma, copy.reward_scale) == (table.noise_sigma, table.reward_scale)
    with pytest.raises(ValueError):
        copy.accuracies[0] = 0.5


def test_bindings_pickle_and_give_the_same_rewards():
    table = OracleTable(TINY, np.linspace(0.1, 0.9, 6), noise_sigma=0.05)
    child = toy_separable()
    space = CHILD_SPACE
    config = space.decode((0,) * space.n_params)
    for binding, cfg in [
        (EvaluatorBinding("t", table=table), TINY.decode((1, 2))),
        (binding_from_child_task("c", child), config),
    ]:
        copy = pickle.loads(pickle.dumps(binding))
        assert copy.name == binding.name
        assert copy(cfg, 7) == binding(cfg, 7)


def test_a_built_tabular_binding_holds_its_table_once(monkeypatch):
    config = load_experiment_config(CONFIGS / "planted-pair.yaml")
    (_, binding), _ = build_evaluators(config)
    tables = [v for v in vars(binding).values() if isinstance(v, OracleTable)]
    assert tables == [binding.table] and binding.fn is None
    read = []
    real = evaluators.tabular_evaluate

    def recording(table, config, seed):
        read.append(table)
        return real(table, config, seed)

    monkeypatch.setattr(evaluators, "tabular_evaluate", recording)
    cfg, reward = brute_force_optimum(binding)
    assert binding(cfg, 0) == reward
    assert read == [binding.table]


def test_a_binding_needs_exactly_one_reward_source():
    table = OracleTable(TINY, np.full(6, 0.5))
    for sources in ({}, {"fn": lambda c, s: 0.5, "table": table}):
        with pytest.raises(ValueError, match="exactly one of fn and table"):
            EvaluatorBinding("t", **sources)
