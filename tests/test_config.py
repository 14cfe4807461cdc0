import textwrap

import pytest

from modelsearch.config import (
    build_evaluators,
    load_experiment_config,
    parse_experiment_config,
    verify_reference_defaults,
)
from modelsearch.errors import ConfigError

GOOD = """
name: demo
seeds: [0, 1]
out_dir: out
search_space:
  - {name: a, choices: [0, 1]}
  - {name: b, choices: [x, y, z]}
trainer:
  total_iterations: 10
tasks:
  - name: t0
    evaluator: {kind: planted, optimum: [0, 1], ceiling: 0.9}
  - name: t1
    evaluator: {kind: planted, optimum: {a: 1, b: z}, ceiling: 0.8}
"""


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(textwrap.dedent(text))
    return p


def test_good_config_parses(tmp_path):
    cfg = load_experiment_config(write(tmp_path, GOOD))
    assert cfg.name == "demo"
    assert cfg.seeds == [0, 1]
    assert cfg.space.choice_counts == (2, 3)
    assert cfg.trainer.total_iterations == 10
    assert cfg.trainer.batch_size == 20  # untouched defaults survive
    evs = build_evaluators(cfg)
    assert [n for n, _ in evs] == ["t0", "t1"]
    from modelsearch.evaluators import brute_force_optimum

    cfg0, _ = brute_force_optimum(evs[0][1])
    assert cfg.space.encode(cfg0) == (0, 1)
    cfg1, _ = brute_force_optimum(evs[1][1])
    assert cfg.space.encode(cfg1) == (1, 2)


def test_default_space_keyword(tmp_path):
    cfg = load_experiment_config(
        write(
            tmp_path,
            """
            name: d
            search_space: default
            tasks:
              - {name: t, evaluator: {kind: planted, optimum: [0,0,0,0,0,0,0]}}
            """,
        )
    )
    assert cfg.space.cardinality() == 15360


@pytest.mark.parametrize(
    "mutation, field",
    [
        ("seeds: []", "seeds"),
        ("seeds: [a]", "seeds"),
        ("seeds: [true]", "seeds"),
        ("seeds: [-1]", "seeds"),
        ("seeds: [0, 0]", "seeds"),
        ("mode: fly", "mode"),
        ("heatmap_samples: 0", "heatmap_samples"),
        ("heatmap_samples: lots", "heatmap_samples"),
        ("heatmap_samples: 2.5", "heatmap_samples"),
        ("controller: {hidden_size: -2}", "controller: hidden_size"),
        ("controller: {hidden_size: 0}", "controller: hidden_size"),
        ("controller: {num_layers: 0}", "controller: num_layers"),
        ("controller: {task_embed: 2.5}", "controller: task_embed"),
        ("controller: {action_embed: true}", "controller: action_embed"),
        ("unknown_top: 3", "unknown_top"),
        # report mode takes its threshold from the command line, never a config
        ("report: {threshold: 0.5}", "unknown field report"),
    ],
)
def test_bad_top_level_fields(tmp_path, mutation, field):
    text = GOOD + "\n" + mutation + "\n"
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, text))
    assert field in str(exc.value)


@pytest.mark.parametrize("name, ok", [("t" * 245, True), ("t" * 246, False), ("é" * 123, False)])
def test_task_name_must_fit_a_file_name_in_bytes(name, ok):
    # curve_<name>.csv is at most 255 bytes; "é" takes two bytes in UTF-8
    raw = {
        "search_space": [{"name": "a", "choices": [0, 1]}],
        "tasks": [{"name": name, "evaluator": {"kind": "planted", "optimum": [0]}}],
    }
    if ok:
        assert parse_experiment_config(raw).tasks[0].name == name
    else:
        with pytest.raises(ConfigError, match=r"tasks\[0\]\.name is too long"):
            parse_experiment_config(raw)


def test_missing_tasks_named(tmp_path):
    text = """
    name: d
    search_space: default
    """
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, text))
    assert "tasks" in str(exc.value)


def test_unknown_evaluator_kind_named(tmp_path):
    text = """
    name: d
    search_space: [{name: a, choices: [0, 1]}]
    tasks:
      - {name: t, evaluator: {kind: alien}}
    """
    cfg = load_experiment_config(write(tmp_path, text))
    with pytest.raises(ConfigError) as exc:
        build_evaluators(cfg)
    assert "kind" in str(exc.value) and "alien" in str(exc.value)


def test_unknown_trainer_field_named(tmp_path):
    text = GOOD.replace("total_iterations: 10", "total_iterationz: 10")
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, text))
    assert "total_iterationz" in str(exc.value)


@pytest.mark.parametrize(
    "field",
    [
        "batch_size: 2.5",
        "replay_capacity: 2.5",
        "samples_per_iteration: 1.5",
        "total_iterations: 5.5",
        "steps_per_sync: 2.5",
        "critic_steps_per_iteration: true",
        "grad_clip_norm: '5'",
        "grad_clip_norm: -1",
        "critic_lr: fast",
        "critic_lr: .nan",
    ],
)
def test_bad_trainer_field_values_named(tmp_path, field):
    text = GOOD.replace("total_iterations: 10", field)
    name = field.split(":")[0]
    with pytest.raises(ConfigError, match=f"^trainer: {name} must"):
        load_experiment_config(write(tmp_path, text))


def test_trainer_accepts_null_grad_clip_and_integer_rates(tmp_path):
    text = GOOD.replace("total_iterations: 10", "grad_clip_norm: null\n  critic_lr: 1")
    cfg = load_experiment_config(write(tmp_path, text))
    assert cfg.trainer.grad_clip_norm is None and cfg.trainer.critic_lr == 1


@pytest.mark.parametrize(
    "evaluator, field",
    [
        ("optimum: [1, z]", "optimum"),
        ("optimum: [1, true]", "optimum"),
        ("optimum: [0, 1], reward_scale: -1", "reward_scale"),
        ("optimum: [0, 1], reward_scale: 0", "reward_scale"),
        ("optimum: [0, 1], reward_scale: .inf", "reward_scale"),
    ],
)
def test_bad_planted_evaluator_values_named(tmp_path, evaluator, field):
    text = GOOD.replace("optimum: [0, 1]", evaluator)
    cfg = load_experiment_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match=r"^tasks\[t0\]\.evaluator") as exc:
        build_evaluators(cfg)
    assert field in str(exc.value)


def test_transfer_mode_requires_checkpoint():
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(
            {
                "name": "d",
                "mode": "transfer",
                "search_space": [{"name": "a", "choices": [0, 1]}],
                "tasks": [
                    {"name": "t", "evaluator": {"kind": "planted", "optimum": [0]}}
                ],
            }
        )
    assert "checkpoint" in str(exc.value)


def test_table_csv_evaluator(tmp_path):
    import csv

    with open(tmp_path / "t.csv", "w", newline="") as f:
        csv.writer(f).writerows([("index", "accuracy"), (0, 0.3), (1, 0.8)])
    cfg = load_experiment_config(
        write(
            tmp_path,
            """
            name: d
            search_space: [{name: a, choices: [0, 1]}]
            tasks:
              - {name: t, evaluator: {kind: table_csv, path: t.csv}}
            """,
        )
    )
    evs = build_evaluators(cfg)
    from modelsearch.evaluators import brute_force_optimum

    best, reward = brute_force_optimum(evs[0][1])
    assert cfg.space.encode(best) == (1,)
    assert reward == pytest.approx(0.8**3)


def test_child_network_evaluator_config(tmp_path):
    text = """
    name: d
    search_space:
      - {name: embedding, choices: [Spanish]}
      - {name: embedding_trainable, choices: [true]}
      - {name: n_layers, choices: [1]}
      - {name: n_nodes, choices: [8]}
      - {name: learning_rate, choices: [0.05]}
      - {name: train_iterations, choices: [30]}
      - {name: l2_weight, choices: [0]}
    tasks:
      - {name: t, evaluator: {kind: child_network, dataset: separable, seed: 3}}
    """
    cfg = load_experiment_config(write(tmp_path, text))
    evs = build_evaluators(cfg)
    reward = evs[0][1](cfg.space.decode([0] * 7), 5)
    assert 0.0 <= reward <= 1.0


def test_reference_defaults_all_pass():
    checks = verify_reference_defaults()
    failed = [k for k, ok in checks.items() if not ok]
    assert failed == []
