import contextlib
import csv
import io
import json
import logging
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsearch.checkpoint import TIMESTAMP_OFFSET, TIMESTAMP_SIZE
from modelsearch.cli import main as cli_main
from modelsearch.errors import ConfigError, MissingLog
from modelsearch.harness import read_event_log, report_compare, run_experiment

SMALL_EXPERIMENT = """
name: smoke
seeds: [0, 1, 2]
out_dir: out
search_space:
  - {name: a, choices: [0, 1]}
  - {name: b, choices: [x, y, z]}
controller: {hidden_size: 8, action_embed: 4, task_embed: 4}
trainer:
  total_iterations: 40
  replay_capacity: 50
tasks:
  - name: t0
    evaluator: {kind: planted, optimum: [0, 1], ceiling: 0.9, falloff: 0.8}
  - name: t1
    evaluator: {kind: planted, optimum: [1, 2], ceiling: 0.8, falloff: 0.8}
"""


PLANTED_T0 = "{kind: planted, optimum: [0, 1], ceiling: 0.9, falloff: 0.8}"


def write_config(tmp_path, text=SMALL_EXPERIMENT, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


def test_search_experiment_produces_all_artifacts(tmp_path):
    cfg_path = write_config(tmp_path)
    out = run_experiment(cfg_path, mode="search")
    assert out == tmp_path / "out"
    for seed in (0, 1, 2):
        seed_dir = out / f"seed_{seed}"
        assert (seed_dir / "events.csv").exists()
        assert (seed_dir / "best_models.json").exists()
        assert (seed_dir / "checkpoint.bin").exists()
    agg = out / "aggregate"
    assert (agg / "curve_t0.csv").exists()
    assert (agg / "curve_t1.csv").exists()
    assert (agg / "heatmap.csv").exists()
    assert (agg / "embedding_correlations.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "search"
    for rel in manifest["artifacts"]:
        f = out / rel
        assert f.exists() and f.stat().st_size > 0


def test_event_log_schema_and_heatmap_schema(tmp_path):
    cfg_path = write_config(tmp_path)
    out = run_experiment(cfg_path, mode="search", seeds=[0])
    header = (out / "seed_0" / "events.csv").read_text().splitlines()[0]
    assert header == "iteration,task,reward,baseline,advantage_norm"
    lines = (out / "aggregate" / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "task,parameter,choice,probability"
    # marginals per task/parameter sum to one
    rows = [l.split(",") for l in lines[1:]]
    totals = {}
    for task, param, choice, prob in rows:
        totals[(task, param)] = totals.get((task, param), 0.0) + float(prob)
    assert all(abs(v - 1.0) < 1e-6 for v in totals.values())
    corr_lines = (out / "aggregate" / "embedding_correlations.csv").read_text().splitlines()
    assert corr_lines[0] == "task_a,task_b,pearson"


def _masked(path):
    """File bytes, with a checkpoint's timestamp field zeroed."""
    data = bytearray(path.read_bytes())
    if path.name == "checkpoint.bin":
        data[TIMESTAMP_OFFSET : TIMESTAMP_OFFSET + TIMESTAMP_SIZE] = bytes(TIMESTAMP_SIZE)
    return bytes(data)


def test_reruns_reproduce_event_logs_bitwise(tmp_path):
    cfg_path = write_config(tmp_path)
    out1 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r1")
    out2 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r2")
    b1 = (out1 / "seed_0" / "events.csv").read_bytes()
    b2 = (out2 / "seed_0" / "events.csv").read_bytes()
    assert b1 == b2
    # every artifact, best models and aggregates included
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert (out2 / "manifest.json").read_text() == (out1 / "manifest.json").read_text()
    assert "checkpoint.bin" in {Path(rel).name for rel in manifest["artifacts"]}
    for rel in manifest["artifacts"]:
        assert _masked(out1 / rel) == _masked(out2 / rel), rel


def test_best_models_reports_argmax(tmp_path):
    cfg_path = write_config(tmp_path)
    out = run_experiment(cfg_path, mode="search", seeds=[0])
    best = json.loads((out / "seed_0" / "best_models.json").read_text())
    per_task = read_event_log(out / "seed_0" / "events.csv")
    for task, payload in best.items():
        _, rewards = per_task[task]
        assert payload["reward"] == pytest.approx(rewards.max())


def _constant_evaluators(config):
    from modelsearch.evaluators import EvaluatorBinding

    return [(t.name, EvaluatorBinding(t.name, lambda c, s: 0.5)) for t in config.tasks]


def test_best_models_take_the_first_event_on_ties(tmp_path, monkeypatch):
    from modelsearch import harness

    monkeypatch.setattr(harness, "build_evaluators", _constant_evaluators)
    out = run_experiment(write_config(tmp_path), mode="search", seeds=[0])
    best = json.loads((out / "seed_0" / "best_models.json").read_text())
    with open(out / "seed_0" / "events.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    first = {}
    for row in rows:
        first.setdefault(row["task"], int(row["iteration"]))
    assert rows[0]["iteration"] == "0"
    assert {t: b["iteration"] for t, b in best.items()} == first
    assert all(b["reward"] == 0.5 for b in best.values())


def test_mode_conflict_is_config_error(tmp_path):
    text = SMALL_EXPERIMENT + "\nmode: search\n"
    cfg_path = write_config(tmp_path, text)
    from modelsearch.errors import ConfigError

    with pytest.raises(ConfigError):
        run_experiment(cfg_path, mode="brute-force")


def test_brute_force_mode(tmp_path):
    cfg_path = write_config(tmp_path)
    out = run_experiment(cfg_path, mode="brute-force", out_dir=tmp_path / "bf")
    lines = (out / "brute_force.csv").read_text().splitlines()
    assert lines[0] == "task,a,b,reward"
    assert lines[1].startswith("t0,0,y,")
    assert lines[2].startswith("t1,1,z,")


def test_transfer_mode_via_harness(tmp_path):
    cfg_path = write_config(tmp_path)
    pre = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "pre")
    transfer_text = SMALL_EXPERIMENT.replace("name: smoke", "name: moved").replace(
        "t0", "n0"
    ).replace("t1", "n1") + f"\ntransfer:\n  checkpoint: {pre / 'seed_0' / 'checkpoint.bin'}\n"
    cfg2 = write_config(tmp_path, transfer_text, name="cfg2.yaml")
    out = run_experiment(cfg2, mode="transfer", seeds=[5], out_dir=tmp_path / "tr")
    per_task = read_event_log(out / "seed_5" / "events.csv")
    assert set(per_task) == {"n0", "n1"}
    # correlations cover old and new tasks
    corr_lines = (out / "aggregate" / "embedding_correlations.csv").read_text().splitlines()
    tasks_in_corr = {l.split(",")[0] for l in corr_lines[1:]}
    assert tasks_in_corr == {"t0", "t1", "n0", "n1"}


def test_cli_transfer_rejects_a_task_name_the_checkpoint_has(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    pre = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "pre")
    ckpt = pre / "seed_0" / "checkpoint.bin"
    out = tmp_path / "tr"
    argv = ["transfer", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: tasks: 't0' is already a task of checkpoint {ckpt}")
    assert not list(out.glob("seed_*"))


def test_report_compare_and_sentinel(tmp_path):
    cfg_path = write_config(tmp_path)
    r1 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r1")
    r2 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r2")
    rows = report_compare([r1, r2], threshold=2.0)  # unreachable
    assert all(r.iterations_to_threshold is None for r in rows)
    rows = report_compare([r1, r2], threshold=0.0)
    assert all(r.iterations_to_threshold is not None for r in rows)
    a = [r for r in rows if r.run.endswith("r1")]
    b = [r for r in rows if r.run.endswith("r2")]
    for x, y in zip(a, b):
        assert x.task == y.task
        assert x.iterations_to_threshold == y.iterations_to_threshold
        assert x.best_reward == y.best_reward
        assert x.auc_smoothed == y.auc_smoothed


def test_report_missing_log(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingLog):
        report_compare([empty, empty], threshold=0.5)


GOOD_LOG = "iteration,task,reward,baseline,advantage_norm\n0,t0,0.5,0.5,0.0\n1,t0,0.6,0.5,0.2\n"
BAD_LOGS = {
    "missing reward column": (GOOD_LOG.replace("reward,baseline", "baseline"), 1),
    "non-numeric reward": (GOOD_LOG.replace("1,t0,0.6", "1,t0,abc"), 3),
    "non-integer iteration": (GOOD_LOG.replace("1,t0,0.6", "1.5,t0,0.6"), 3),
    "nan reward": (GOOD_LOG.replace("1,t0,0.6", "1,t0,nan"), 3),
    "inf reward": (GOOD_LOG.replace("0,t0,0.5", "0,t0,inf"), 2),
}


@pytest.mark.parametrize("text,line", BAD_LOGS.values(), ids=BAD_LOGS.keys())
def test_malformed_event_log_raises_missing_log(tmp_path, text, line):
    path = tmp_path / "events.csv"
    path.write_text(GOOD_LOG)
    assert read_event_log(path)["t0"][1].tolist() == [0.5, 0.6]
    path.write_text(text)
    with pytest.raises(MissingLog, match=f"line {line}:") as exc:
        read_event_log(path)
    assert str(path) in str(exc.value)


# --- CLI ---------------------------------------------------------------------


def test_cli_search_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    rc = cli_main(
        ["search", "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path / "c1")]
    )
    assert rc == 0
    rc = cli_main(
        ["search", "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path / "c2")]
    )
    assert rc == 0
    report_out = tmp_path / "cmp.csv"
    rc = cli_main(
        [
            "report",
            str(tmp_path / "c1"),
            str(tmp_path / "c2"),
            "--threshold",
            "0.1",
            "--out",
            str(report_out),
        ]
    )
    assert rc == 0
    lines = report_out.read_text().splitlines()
    assert lines[0] == "run,seed,task,iterations_to_threshold,best_reward,auc_smoothed"
    assert len(lines) == 5  # 2 runs x 1 seed x 2 tasks


def test_cli_logs_to_the_stderr_and_at_the_level_of_each_call(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    runs = [str(tmp_path / "c1"), str(tmp_path / "c2")]
    for run in runs:
        assert cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", run]) == 0
    report = ["report", *runs, "--threshold", "0.1", "--out", str(tmp_path / "cmp.csv")]

    def run_and_probe(*args, **kwargs):
        logging.getLogger("modelsearch.harness").debug("probe")
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr("modelsearch.cli.run_experiment", run_and_probe)
    logs = []
    for argv in (report, report, report, ["-v", *report], report):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(argv) == 0
        logs.append(err.getvalue())
    for log in logs:
        assert "INFO modelsearch.smoothing: smoothing window shrunk" in log
    assert ["DEBUG modelsearch.harness: probe" in log for log in logs] == [
        False, False, False, True, False
    ]


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("tasks: []\nsearch_space: default\n")
    rc = cli_main(["search", "--config", str(bad)])
    assert rc == 1


def test_cli_unknown_evaluator_is_config_error(tmp_path):
    text = """
    name: d
    search_space: [{name: a, choices: [0, 1]}]
    tasks:
      - {name: t, evaluator: {kind: warp-drive}}
    """
    cfg_path = write_config(tmp_path, text)
    rc = cli_main(["search", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1


@pytest.mark.parametrize(
    "name",
    ["en/de", "'en\\de'", '"en\\0de"', "t" * 250, '"t\\udcff"'],
    ids=["slash", "backslash", "nul", "too-long", "surrogate"],
)
def test_cli_rejects_task_names_that_cannot_be_file_names(tmp_path, capsys, name):
    cfg_path = write_config(tmp_path, SMALL_EXPERIMENT.replace("name: t0", f"name: {name}"))
    out = tmp_path / "x"
    rc = cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tasks[0].name")
    assert not list(tmp_path.rglob("seed_*"))


@pytest.mark.parametrize(
    "old, new, prefix",
    [
        ("hidden_size: 8", "hidden_size: -2", "controller: hidden_size"),
        ("hidden_size: 8", "hidden_size: 0", "controller: hidden_size"),
        ("task_embed: 4}", "task_embed: 4, num_layers: 0}", "controller: num_layers"),
        ("seeds: [0, 1, 2]", "seeds: [true]", "seeds"),
        ("out_dir: out", "heatmap_samples: lots", "heatmap_samples"),
        ("replay_capacity: 50", "replay_capacity: 2.5", "trainer: replay_capacity"),
        ("replay_capacity: 50", "batch_size: 2.5", "trainer: batch_size"),
        ("replay_capacity: 50", "samples_per_iteration: 1.5", "trainer: samples_per_iteration"),
        ("total_iterations: 40", "total_iterations: 5.5", "trainer: total_iterations"),
        ("replay_capacity: 50", "steps_per_sync: 2.5", "trainer: steps_per_sync"),
        ("replay_capacity: 50", "grad_clip_norm: '5'", "trainer: grad_clip_norm"),
        ("replay_capacity: 50", "grad_clip_norm: -1", "trainer: grad_clip_norm"),
        ("optimum: [0, 1]", "optimum: [1, z]", "tasks[t0].evaluator.optimum"),
        ("ceiling: 0.9,", "reward_scale: -1,", "tasks[t0].evaluator: reward_scale"),
        (PLANTED_T0, "{kind: child_network, seed: abc}", "tasks[t0].evaluator.seed"),
        (PLANTED_T0, "{kind: child_network, seed: -1}", "tasks[t0].evaluator.seed"),
        (PLANTED_T0, "{kind: child_network, seed: 1.5}", "tasks[t0].evaluator.seed"),
        (PLANTED_T0, "{kind: child_network, seed: true}", "tasks[t0].evaluator.seed"),
    ],
)
def test_cli_rejects_bad_config_values(tmp_path, capsys, old, new, prefix):
    assert old in SMALL_EXPERIMENT
    cfg_path = write_config(tmp_path, SMALL_EXPERIMENT.replace(old, new, 1))
    rc = cli_main(["search", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")
    assert not list(tmp_path.rglob("seed_*"))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("ceiling: 0.9,", "ceiling: null,", "ceiling"),
        ("ceiling: 0.9,", "ceiling: '0.9',", "ceiling"),
        ("ceiling: 0.9,", "ceiling: true,", "ceiling"),
        ("ceiling: 0.9,", "reward_scale: [1],", "reward_scale"),
        (PLANTED_T0, "{kind: table_csv, path: t0.csv, noise_sigma: null}", "noise_sigma"),
    ],
    ids=["ceiling-null", "ceiling-string", "ceiling-bool", "reward_scale-list", "table-noise-null"],
)
@pytest.mark.parametrize("command", ["search", "brute-force"])
def test_cli_rejects_evaluator_numbers_before_making_the_out_dir(
    tmp_path, capsys, old, new, field, command
):
    (tmp_path / "t0.csv").write_text("index,accuracy\n" + "".join(f"{i},0.5\n" for i in range(6)))
    cfg_path = write_config(tmp_path, SMALL_EXPERIMENT.replace(old, new, 1))
    out = tmp_path / "x"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: tasks[t0].evaluator.{field} must be a number, got ")
    assert not out.exists()


TRAINER_BLOCK = "trainer:\n  total_iterations: 40\n  replay_capacity: 50\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        (TRAINER_BLOCK, "trainer:\n", "trainer must be a mapping, got None"),
        (
            "controller: {hidden_size: 8, action_embed: 4, task_embed: 4}",
            "controller: 5",
            "controller must be a mapping, got 5",
        ),
        ("out_dir: out", "out_dir: out\ntransfer: 5", "transfer must be a mapping, got 5"),
        ("choices: [0, 1]", "choices: [[1], [2]]", "search_space[0].choices[0] must be a scalar"),
        ("choices: [0, 1]", "choices: [{x: 1}, 2]", "search_space[0].choices[0] must be a scalar"),
        ("choices: [0, 1]", "choices: [0, .nan]", "search_space[0].choices[1] must not be NaN"),
        ("ceiling: 0.9,", "noise_sigma: .nan,", "tasks[t0].evaluator: noise_sigma"),
        ("ceiling: 0.9,", "noise_sigma: .inf,", "tasks[t0].evaluator: noise_sigma"),
        (
            PLANTED_T0,
            "{kind: table_csv, path: t0.csv, noise_sigma: .nan}",
            "tasks[t0].evaluator: noise_sigma",
        ),
        (
            "choices: [0, 1]}",
            "choices: [0, 1], choises: [5]}",
            "unknown field search_space[0].choises",
        ),
    ],
    ids=[
        "trainer-null",
        "controller-int",
        "transfer-int",
        "choice-list",
        "choice-mapping",
        "choice-nan",
        "noise-nan",
        "noise-inf",
        "table-noise-nan",
        "space-unknown-key",
    ],
)
@pytest.mark.parametrize("command", ["search", "brute-force"])
def test_cli_rejects_malformed_blocks_and_values_without_an_out_dir(
    tmp_path, capsys, old, new, message, command
):
    assert old in SMALL_EXPERIMENT
    (tmp_path / "t0.csv").write_text("index,accuracy\n" + "".join(f"{i},0.5\n" for i in range(6)))
    cfg_path = write_config(tmp_path, SMALL_EXPERIMENT.replace(old, new, 1))
    out = tmp_path / "x"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("fault, code", [("reused task name", 1), ("malformed checkpoint", 2)])
def test_cli_rejected_transfer_leaves_no_out_dir(tmp_path, capsys, fault, code):
    cfg_path = write_config(tmp_path)
    if fault == "reused task name":
        pre = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "pre")
        ckpt = pre / "seed_0" / "checkpoint.bin"
    else:
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(b"not a checkpoint")
    out = tmp_path / "tr"
    argv = ["transfer", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", str(out)]
    assert cli_main(argv) == code
    assert capsys.readouterr().err.startswith("config error: " if code == 1 else "error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "controller",
    ["{hidden_size: 9, action_embed: 4, task_embed: 4}", "{hidden_size: 8, num_layers: 3}", None],
    ids=["hidden_size", "num_layers", "no-block"],
)
def test_cli_transfer_with_other_controller_sizes_leaves_no_out_dir(tmp_path, capsys, controller):
    cfg_path = write_config(tmp_path)
    pre = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "pre")
    ckpt = pre / "seed_0" / "checkpoint.bin"
    old = "controller: {hidden_size: 8, action_embed: 4, task_embed: 4}\n"
    text = SMALL_EXPERIMENT.replace("t0", "n0").replace("t1", "n1")
    text = text.replace(old, "" if controller is None else f"controller: {controller}\n")
    out = tmp_path / "tr"
    argv = ["transfer", "--config", str(write_config(tmp_path, text, name="cfg2.yaml"))]
    assert cli_main(argv + ["--checkpoint", str(ckpt), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: controller: sizes ")
    assert not out.exists()


def test_cli_brute_force_without_an_oracle_table_leaves_no_out_dir(tmp_path, capsys):
    text = SMALL_EXPERIMENT.replace(
        "{kind: planted, optimum: [1, 2], ceiling: 0.8, falloff: 0.8}", "{kind: child_network}"
    )
    out = tmp_path / "bf"
    cfg_path = write_config(tmp_path, text)
    assert cli_main(["brute-force", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: evaluator 't1' has no oracle table")
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["-1", "0,-3", ",", "x", ""])
def test_cli_rejects_bad_seed_lists(tmp_path, capsys, seeds):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "x"
    argv = ["search", "--config", str(cfg_path), "--seed", seeds, "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: --seed")
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        {"seeds": [-1]},
        {"seeds": [True]},
        {"seeds": [1.5]},
        {"seeds": []},
        {"seeds": [0, 0]},
        {"mode": "serch"},
    ],
    ids=["seed-negative", "seed-bool", "seed-float", "seeds-empty", "seed-repeated", "mode-misspelt"],
)
def test_run_experiment_rejects_bad_overrides_without_an_out_dir(tmp_path, override):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "x"
    kwargs = {"mode": "search", **override}
    with pytest.raises(ConfigError, match=next(iter(override))):
        run_experiment(cfg_path, out_dir=out, **kwargs)
    assert not out.exists()


def test_cli_rejects_a_repeated_seed_without_an_out_dir(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "x"
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "0,1,0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: seeds must be")
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_report_rejects_a_non_finite_threshold(tmp_path, capsys, threshold):
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for run in runs:
        (run / "seed_0").mkdir(parents=True)
        (run / "seed_0" / "events.csv").write_text(GOOD_LOG)
    out = tmp_path / "c.csv"
    argv = ["report", *map(str, runs), f"--threshold={threshold}", "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: threshold must be a finite number")
    assert not out.exists()


def test_cli_transfer_without_checkpoint_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli_main(["transfer", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1


def test_cli_missing_run_dir_is_runtime_error(tmp_path):
    rc = cli_main(
        ["report", str(tmp_path / "nope1"), str(tmp_path / "nope2"), "--threshold", "0.5"]
    )
    assert rc == 2


def test_cli_report_on_malformed_event_log_exits_2(tmp_path, capsys):
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for run, text in zip(runs, (GOOD_LOG, BAD_LOGS["non-numeric reward"][0])):
        (run / "seed_0").mkdir(parents=True)
        (run / "seed_0" / "events.csv").write_text(text)
        (run / "manifest.json").write_text("{}\n")  # report reads finished runs only
    rc = cli_main(["report", *map(str, runs), "--threshold", "0.5", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    bad = runs[1] / "seed_0" / "events.csv"
    # the smoothing log lines of the good run come first
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: event log {bad} is malformed at line 3")
    assert not (tmp_path / "c.csv").exists()


@pytest.fixture(scope="module")
def report_runs(tmp_path_factory):
    """A searched run and a second run directory for a damaged copy of its log."""
    root = tmp_path_factory.mktemp("fuzz")
    good = run_experiment(write_config(root), mode="search", seeds=[0], out_dir=root / "good")
    (root / "bad" / "seed_0").mkdir(parents=True)
    (root / "bad" / "manifest.json").write_bytes((good / "manifest.json").read_bytes())
    return good, root / "bad"


FOREIGN_CELLS = st.one_of(
    st.sampled_from(["", "0", "-3", "1.5", "nan", "-inf", "1e999", "t0", "t1", '"', "\r"]),
    st.text(max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_report_on_a_damaged_event_log_exits_0_or_names_the_log(report_runs, data):
    good, bad = report_runs
    log = bytearray((good / "seed_0" / "events.csv").read_bytes())
    del log[data.draw(st.integers(0, len(log)), label="cut") :]
    if log:
        flips = st.tuples(st.integers(0, len(log) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=4), label="flips"):
            log[pos] ^= mask
    for row in data.draw(st.lists(st.lists(FOREIGN_CELLS, max_size=7), max_size=3), label="rows"):
        log += (",".join(row) + "\n").encode()
    (bad / "seed_0" / "events.csv").write_bytes(log)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["report", str(good), str(bad), "--threshold", "0.5",
                       "--out", str(bad / "report.csv")])
    assert "Traceback" not in err.getvalue()
    if rc != 0:  # smoothing notes may be logged above the error line
        assert rc == 2
        assert err.getvalue().splitlines()[-1].startswith(f"error: event log {bad}/seed_0/")


def test_cli_search_and_report_round_trip_task_names_with_csv_syntax(tmp_path):
    odd = 'sent,"iment'
    text = SMALL_EXPERIMENT.replace("name: t0", "name: 'sent,\"iment'")
    cfg_path = write_config(tmp_path, text)
    runs = [tmp_path / "c1", tmp_path / "c2"]
    for run in runs:
        rc = cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(run)])
        assert rc == 0
    events = read_event_log(runs[0] / "seed_0" / "events.csv")
    assert set(events) == {odd, "t1"}
    for rel in json.loads((runs[0] / "manifest.json").read_text())["artifacts"]:
        if rel.endswith(".csv"):
            with open(runs[0] / rel, newline="") as f:
                rows = list(csv.reader(f))
            assert all(len(r) == len(rows[0]) for r in rows), rel
    report_out = tmp_path / "cmp.csv"
    rc = cli_main(
        ["report", *map(str, runs), "--threshold", "0.1", "--out", str(report_out)]
    )
    assert rc == 0
    with open(report_out, newline="") as f:
        tasks = [row["task"] for row in csv.DictReader(f)]
    assert sorted(tasks) == sorted([odd, "t1"] * 2)


def test_cli_search_skips_non_finite_rewards(tmp_path, monkeypatch):
    from modelsearch import harness
    from modelsearch.evaluators import EvaluatorBinding

    calls = {"n": 0}

    def half_nan(config, seed):
        calls["n"] += 1
        return float("nan") if calls["n"] % 2 == 0 else 0.5

    def stub_evaluators(config):
        return [(t.name, EvaluatorBinding(t.name, half_nan)) for t in config.tasks]

    monkeypatch.setattr(harness, "build_evaluators", stub_evaluators)
    cfg_path = write_config(tmp_path)
    out = tmp_path / "nan"
    rc = cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(out)])
    assert rc == 0
    with open(out / "seed_0" / "events.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 20  # 40 iterations, every other reward NaN
    assert all(float(r["reward"]) == 0.5 for r in rows)


def test_cli_search_that_fails_mid_run_leaves_no_seed_dir(tmp_path, monkeypatch, capsys):
    from modelsearch import trainer
    from modelsearch.errors import NonFiniteGradient

    critic_step = trainer._critic_step

    def failing_step(state, rng):
        if state.iteration == 20:
            raise NonFiniteGradient("gradient contains NaN or inf")
        return critic_step(state, rng)

    monkeypatch.setattr(trainer, "_critic_step", failing_step)
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(out)]) == 2
    assert "NaN or inf" in capsys.readouterr().err
    # no events.csv cut short at the failure that reads like a finished run
    assert not (out / "seed_0").exists()


def test_report_refuses_a_run_whose_later_seed_failed(tmp_path, monkeypatch, capsys):
    from modelsearch import trainer
    from modelsearch.errors import NonFiniteGradient

    cfg_path = write_config(tmp_path)
    done = tmp_path / "done"
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(done)]) == 0
    critic_step = trainer._critic_step
    at_20 = []

    def failing_step(state, rng):
        if state.iteration == 20:
            at_20.append(state)
            if len(at_20) == 2:  # iteration 20 of the second seed
                raise NonFiniteGradient("gradient contains NaN or inf")
        return critic_step(state, rng)

    monkeypatch.setattr(trainer, "_critic_step", failing_step)
    cut = tmp_path / "cut"
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "0,1", "--out", str(cut)]) == 2
    assert (cut / "seed_0" / "events.csv").exists() and not (cut / "manifest.json").exists()
    capsys.readouterr()
    report_out = tmp_path / "cmp.csv"
    argv = ["report", str(done), str(cut), "--threshold", "0.1", "--out", str(report_out)]
    assert cli_main(argv) == 2
    assert f"no manifest.json under {cut}" in capsys.readouterr().err
    assert not report_out.exists()
