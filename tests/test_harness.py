import csv
import json
import textwrap

import pytest

from modelsearch.cli import main as cli_main
from modelsearch.errors import MissingLog
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


def test_reruns_reproduce_event_logs_bitwise(tmp_path):
    cfg_path = write_config(tmp_path)
    out1 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r1")
    out2 = run_experiment(cfg_path, mode="search", seeds=[0], out_dir=tmp_path / "r2")
    b1 = (out1 / "seed_0" / "events.csv").read_bytes()
    b2 = (out2 / "seed_0" / "events.csv").read_bytes()
    assert b1 == b2


def test_best_models_reports_argmax(tmp_path):
    cfg_path = write_config(tmp_path)
    out = run_experiment(cfg_path, mode="search", seeds=[0])
    best = json.loads((out / "seed_0" / "best_models.json").read_text())
    per_task = read_event_log(out / "seed_0" / "events.csv")
    for task, payload in best.items():
        _, rewards = per_task[task]
        assert payload["reward"] == pytest.approx(rewards.max())


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
    "name", ["en/de", "'en\\de'", '"en\\0de"'], ids=["slash", "backslash", "nul"]
)
def test_cli_rejects_task_names_that_cannot_be_file_names(tmp_path, capsys, name):
    cfg_path = write_config(tmp_path, SMALL_EXPERIMENT.replace("name: t0", f"name: {name}"))
    out = tmp_path / "x"
    rc = cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tasks[0].name")
    assert not list(tmp_path.rglob("seed_*"))


def test_cli_transfer_without_checkpoint_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    rc = cli_main(["transfer", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1


def test_cli_missing_run_dir_is_runtime_error(tmp_path):
    rc = cli_main(
        ["report", str(tmp_path / "nope1"), str(tmp_path / "nope2"), "--threshold", "0.5"]
    )
    assert rc == 2


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
        return [(t.name, EvaluatorBinding(t.name, config.space, half_nan)) for t in config.tasks]

    monkeypatch.setattr(harness, "build_evaluators", stub_evaluators)
    cfg_path = write_config(tmp_path)
    out = tmp_path / "nan"
    rc = cli_main(["search", "--config", str(cfg_path), "--seed", "0", "--out", str(out)])
    assert rc == 0
    with open(out / "seed_0" / "events.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 20  # 40 iterations, every other reward NaN
    assert all(float(r["reward"]) == 0.5 for r in rows)
