import json
import struct
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsearch.checkpoint import (
    MAGIC,
    TIMESTAMP_OFFSET,
    TIMESTAMP_SIZE,
    load_checkpoint,
    save_checkpoint,
    space_fingerprint,
    task_embedding_correlations,
    transfer_init,
)
from modelsearch.controller import ControllerDims, init_controller
from modelsearch.errors import (
    DegenerateEmbedding,
    FingerprintMismatch,
    IoFailure,
    ModelSearchError,
    UnknownTask,
    VersionMismatch,
)
from modelsearch.evaluators import EvaluatorBinding, planted_table
from modelsearch.space import ParamSpec, SearchSpace
from modelsearch.trainer import TrainerConfig, build_state, run_state

TINY = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
SMALL_DIMS = ControllerDims(hidden_size=8, action_embed=4, task_embed=4, num_layers=2)


def make_state(iters=40, seed=0):
    table = planted_table(TINY, (1, 2), 0.9, falloff=0.8)
    tasks = [
        ("alpha", EvaluatorBinding("alpha", table=table)),
        ("beta", EvaluatorBinding("beta", table=table)),
    ]
    state = build_state(TINY, tasks, TrainerConfig(total_iterations=iters), seed, SMALL_DIMS)
    run_state(state, np.random.default_rng(seed))
    return state, tasks


def test_round_trip_reproduces_weights_bitwise(tmp_path):
    state, _ = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path, TINY)
    assert np.array_equal(loaded.actor.flat, state.actor.flat)
    assert np.array_equal(loaded.critic.flat, state.critic.flat)
    assert loaded.baselines.as_dict() == state.baselines.as_dict()
    assert loaded.task_names == ["alpha", "beta"]
    assert loaded.config == state.config
    assert (tmp_path / "ck.bin.manifest.txt").exists()


def test_resave_identical_apart_from_timestamp(tmp_path):
    state, _ = make_state()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1, TINY)
    save_checkpoint(loaded, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert len(b1) == len(b2)
    lo, hi = TIMESTAMP_OFFSET, TIMESTAMP_OFFSET + TIMESTAMP_SIZE
    assert b1[:lo] == b2[:lo]
    assert b1[hi:] == b2[hi:]


def test_fingerprint_mismatch_on_different_space(tmp_path):
    state, _ = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    other = SearchSpace([ParamSpec("a", (0, 1)), ParamSpec("b", ("x", "y"))])
    with pytest.raises(FingerprintMismatch):
        load_checkpoint(path, other)


def test_truncated_file_raises_io_failure(tmp_path):
    state, _ = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IoFailure):
        load_checkpoint(path, TINY)


def test_garbage_file_raises_io_failure(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(IoFailure):
        load_checkpoint(path, TINY)


def _rewrite_meta(path, edit):
    """Replace the JSON metadata block of a saved checkpoint by edit(bytes)."""
    data = path.read_bytes()
    at = TIMESTAMP_OFFSET + TIMESTAMP_SIZE
    (n,) = struct.unpack_from("<I", data, at)
    new = edit(data[at + 4 : at + 4 + n])
    path.write_bytes(data[:at] + struct.pack("<I", len(new)) + new + data[at + 4 + n :])


def _edit_json(change):
    def edit(meta_b):
        meta = json.loads(meta_b)
        change(meta)
        return json.dumps(meta).encode()

    return edit


BAD_META = {
    "negative hidden_size": _edit_json(lambda m: m["dims"].update(hidden_size=-1)),
    "unknown dims key": _edit_json(lambda m: m["dims"].update(depth=3)),
    "dims not a mapping": _edit_json(lambda m: m.update(dims=[8, 4, 4, 2])),
    "missing dims": _edit_json(lambda m: m.pop("dims")),
    "missing registry": _edit_json(lambda m: m.pop("registry")),
    "missing trainer_config": _edit_json(lambda m: m.pop("trainer_config")),
    "bad trainer_config value": _edit_json(lambda m: m["trainer_config"].update(batch_size="x")),
    "unknown trainer_config key": _edit_json(lambda m: m["trainer_config"].update(speed=1)),
    "fractional n_tasks": _edit_json(lambda m: m.update(n_tasks=2.5)),
    "string n_tasks": _edit_json(lambda m: m.update(n_tasks="2")),
    "n_tasks unlike registry": _edit_json(lambda m: m.update(n_tasks=3)),
    "bad baseline value": _edit_json(lambda m: m["baselines"]["0"].update(value="high")),
    "registry not a list": _edit_json(lambda m: m.update(registry={"0": "alpha"})),
    "registry entry without active": _edit_json(lambda m: m["registry"][0].pop("active")),
    "registry entry without task_id": _edit_json(lambda m: m["registry"][1].pop("task_id")),
    "registry ids not row indices": _edit_json(lambda m: m["registry"][1].update(task_id=5)),
    "duplicate registry names": _edit_json(lambda m: m["registry"][1].update(name="alpha")),
    "meta a JSON list": lambda meta_b: b"[]",
    "meta not JSON": lambda meta_b: b"{not json",
    "meta not UTF-8": lambda meta_b: b"\xff\xfe{}",
}


def test_rewritten_meta_block_still_loads(tmp_path):
    state, _ = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _rewrite_meta(path, _edit_json(lambda m: None))
    loaded = load_checkpoint(path, TINY)
    assert np.array_equal(loaded.actor.flat, state.actor.flat)


@pytest.mark.parametrize("edit", BAD_META.values(), ids=BAD_META.keys())
def test_malformed_metadata_raises_io_failure(tmp_path, edit):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _rewrite_meta(path, edit)
    with pytest.raises(IoFailure, match="malformed metadata") as exc:
        load_checkpoint(path, TINY)
    assert str(path) in str(exc.value)


def test_cli_transfer_from_malformed_checkpoint_exits_2(tmp_path, capsys):
    from modelsearch.cli import main as cli_main

    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _rewrite_meta(path, BAD_META["negative hidden_size"])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(textwrap.dedent("""
        name: moved
        search_space:
          - {name: a, choices: [0, 1]}
          - {name: b, choices: [x, y, z]}
        trainer: {total_iterations: 5}
        tasks:
          - name: n0
            evaluator: {kind: planted, optimum: [0, 1]}
        """))
    out = tmp_path / "tr"
    argv = ["transfer", "--config", str(cfg), "--checkpoint", str(path), "--out", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint at {path} has malformed metadata")
    assert not list(tmp_path.rglob("seed_*"))


def _cli_transfer(tmp_path, path) -> int:
    """``modelsearch transfer`` of a one-task config on TINY from ``path``."""
    from modelsearch.cli import main as cli_main

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(textwrap.dedent("""
        name: moved
        search_space:
          - {name: a, choices: [0, 1]}
          - {name: b, choices: [x, y, z]}
        trainer: {total_iterations: 5}
        tasks:
          - name: n0
            evaluator: {kind: planted, optimum: [0, 1]}
        """))
    out = tmp_path / "tr"
    return cli_main(["transfer", "--config", str(cfg), "--checkpoint", str(path), "--out", str(out)])


def _first_array_at(data: bytes) -> int:
    """Offset of the first array header (its name length) in a checkpoint."""
    at = TIMESTAMP_OFFSET + TIMESTAMP_SIZE
    (n,) = struct.unpack_from("<I", data, at)
    return at + 4 + n + 4


def _name_byte(data, at):
    data[at + 2] = 0xFF


def _ndim(data, at):
    (name_len,) = struct.unpack_from("<H", data, at)
    data[at + 2 + name_len] = 200


def _first_dim(data, at):
    (name_len,) = struct.unpack_from("<H", data, at)
    struct.pack_into("<I", data, at + 2 + name_len + 1, 2**31 - 1)


BAD_ARRAY_HEADER = {"name byte 0xff": _name_byte, "ndim 200": _ndim, "first dim 2**31-1": _first_dim}


def _corrupt_first_array(path, corrupt):
    data = bytearray(path.read_bytes())
    corrupt(data, _first_array_at(data))
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("corrupt", BAD_ARRAY_HEADER.values(), ids=BAD_ARRAY_HEADER.keys())
def test_bad_array_header_raises_io_failure(tmp_path, corrupt):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _corrupt_first_array(path, corrupt)
    with pytest.raises(IoFailure, match="truncated or malformed") as exc:
        load_checkpoint(path, TINY)
    assert str(path) in str(exc.value)


def _version_2(path):
    """Rewrite a saved checkpoint's format version to 2."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, len(MAGIC), 2)
    path.write_bytes(bytes(data))


def test_unknown_format_version_raises_version_mismatch(tmp_path):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _version_2(path)
    with pytest.raises(VersionMismatch, match="version 2") as exc:
        load_checkpoint(path, TINY)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda path: _corrupt_first_array(path, _first_dim), "is truncated or malformed"),
        (_version_2, "has unsupported format version 2"),
    ],
    ids=["first dim 2**31-1", "version 2"],
)
def test_cli_transfer_from_bad_header_exits_2(tmp_path, capsys, corrupt, message):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    corrupt(path)
    assert _cli_transfer(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint at {path} {message}")
    assert not list(tmp_path.rglob("seed_*"))


def _array_data_at(data: bytes, wanted: str) -> int:
    """Offset of the first value of the array named ``wanted``."""
    at = _first_array_at(data)
    while True:
        (name_len,) = struct.unpack_from("<H", data, at)
        name = data[at + 2 : at + 2 + name_len].decode()
        ndim = data[at + 2 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", data, at + 3 + name_len)
        at += 3 + name_len + 4 * ndim
        if name == wanted:
            return at
        at += 8 * int(np.prod(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_weight_raises_io_failure(tmp_path, value):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, _array_data_at(data, "critic/lstm0.w_x") + 16, value)
    path.write_bytes(bytes(data))
    with pytest.raises(IoFailure, match="array critic/lstm0.w_x holds a NaN or an infinity") as exc:
        load_checkpoint(path, TINY)
    assert str(path) in str(exc.value)
    assert _cli_transfer(tmp_path, path) == 2
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_baseline_raises_io_failure(tmp_path, value):
    state, _ = make_state(iters=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    _rewrite_meta(path, _edit_json(lambda m: m["baselines"]["0"].update(value=value)))
    with pytest.raises(IoFailure, match="malformed metadata.*baseline 0 must be a finite number"):
        load_checkpoint(path, TINY)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
    save_checkpoint(make_state(iters=5)[0], path)
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_finite_or_raises_a_package_error(small_checkpoint, data):
    blob = bytearray(small_checkpoint.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length") :]
    at = st.integers(0, max(len(blob) - 8, 0))
    for pos, mask in data.draw(st.lists(st.tuples(at, st.integers(1, 255)), max_size=4)):
        if pos < len(blob):
            blob[pos] ^= mask
    for pos, value in data.draw(st.lists(st.tuples(at, st.floats()), max_size=2)):
        if pos + 8 <= len(blob):
            struct.pack_into("<d", blob, pos, value)
    mutated = small_checkpoint.with_name("mutated.bin")
    mutated.write_bytes(bytes(blob))
    try:
        loaded = load_checkpoint(mutated, TINY)
    except ModelSearchError:
        return
    assert np.all(np.isfinite(loaded.actor.flat)) and np.all(np.isfinite(loaded.critic.flat))
    baselines = [e["value"] for e in loaded.baselines.as_dict().values()]
    assert np.all(np.isfinite(baselines))


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    from modelsearch import checkpoint

    state, _ = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    before = path.read_bytes()
    manifest_before = (tmp_path / "ck.bin.manifest.txt").read_bytes()

    def failing_write_array(f, name, arr):
        f.write(b"partial")  # the header is already written
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "_write_array", failing_write_array)
    with pytest.raises(IoFailure):
        save_checkpoint(state, path)
    assert path.read_bytes() == before
    assert (tmp_path / "ck.bin.manifest.txt").read_bytes() == manifest_before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "ck.bin.manifest.txt"]
    loaded = load_checkpoint(path, TINY)
    assert np.array_equal(loaded.actor.flat, state.actor.flat)


def test_fingerprint_ignores_choice_values_but_not_counts():
    relabeled = SearchSpace([ParamSpec("a", (7, 9)), ParamSpec("b", (1, 2, 3))])
    assert space_fingerprint(TINY) == space_fingerprint(relabeled)
    renamed = SearchSpace([ParamSpec("z", (0, 1)), ParamSpec("b", ("x", "y", "z"))])
    assert space_fingerprint(TINY) != space_fingerprint(renamed)


# --- transfer ----------------------------------------------------------------


def transfer_setup(tmp_path):
    state, tasks = make_state()
    path = tmp_path / "ck.bin"
    save_checkpoint(state, path)
    ckpt = load_checkpoint(path, TINY)
    table = planted_table(TINY, (0, 1), 0.9, falloff=0.8)
    new_tasks = [
        ("gamma", EvaluatorBinding("gamma", table=table)),
        ("delta", EvaluatorBinding("delta", table=table)),
    ]
    return state, ckpt, new_tasks


def test_transfer_preserves_all_pre_existing_weights(tmp_path):
    state, ckpt, new_tasks = transfer_setup(tmp_path)
    new_state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    n_old = state.actor.layout.total_size
    old_names = state.actor.layout.names()
    for name in old_names:
        if name == "task_embeddings":
            old = state.actor.get(name)
            new = new_state.actor.get(name)
            assert np.array_equal(new[: old.shape[0]], old)
        else:
            assert np.array_equal(new_state.actor.get(name), state.actor.get(name))
            assert np.array_equal(new_state.critic.get(name), state.critic.get(name))


def test_transfer_empties_replay_and_baselines(tmp_path):
    state, ckpt, new_tasks = transfer_setup(tmp_path)
    assert len(state.events) > 0
    new_state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    assert len(new_state.events) == 0
    for task_id, name in enumerate(new_state.task_names):
        if name in ("gamma", "delta"):
            assert not new_state.baselines.initialized(task_id)


def test_transfer_registers_new_tasks_active_old_inactive(tmp_path):
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    new_state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    active = {new_state.task_names[t] for t in new_state.evaluators}
    assert active == {"gamma", "delta"}
    assert len(new_state.task_names) == 4
    new_rows = new_state.actor.task_embeddings()[2:]
    assert np.all(np.abs(new_rows) <= 0.08)
    assert np.array_equal(
        new_state.actor.task_embeddings()[2:], new_state.critic.task_embeddings()[2:]
    )


def test_transfer_search_leaves_the_checkpoint_untouched(tmp_path):
    # every seed of a transfer experiment starts from one loaded checkpoint
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    at_load = [ckpt.actor.flat.copy(), ckpt.critic.flat.copy()]
    baselines_at_load = ckpt.baselines.as_dict()
    cfg = TrainerConfig(total_iterations=30, steps_per_sync=5)
    state = transfer_init(ckpt, new_tasks, np.random.default_rng(1), config=cfg)
    run_state(state, np.random.default_rng(1))
    assert state.adam.step == 30
    assert not np.array_equal(state.actor.flat[: at_load[0].size], at_load[0])
    for now, before in zip([ckpt.actor.flat, ckpt.critic.flat], at_load):
        assert np.array_equal(now.view(np.int64), before.view(np.int64))
    assert ckpt.baselines.as_dict() == baselines_at_load


@pytest.mark.parametrize("start", ["build_state", "transfer_init"])
def test_controllers_and_checkpoint_share_no_memory(tmp_path, start):
    state, ckpt, new_tasks = transfer_setup(tmp_path)
    if start == "transfer_init":
        state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    arrays = [state.actor.flat, state.critic.flat, ckpt.actor.flat, ckpt.critic.flat]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_transfer_rejects_a_task_name_the_checkpoint_has(tmp_path):
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    clash = [new_tasks[0], ("beta", new_tasks[1][1])]
    with pytest.raises(ValueError, match="'beta'"):
        transfer_init(ckpt, clash, np.random.default_rng(1))


def test_transfer_checkpoint_records_which_tasks_were_searched(tmp_path):
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    new_state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    run_state(new_state, np.random.default_rng(2))
    path = tmp_path / "tr.bin"
    save_checkpoint(new_state, path)
    registry = load_checkpoint(path, TINY).meta["registry"]
    assert registry == [
        {"task_id": i, "name": name, "evaluator_ref": name, "active": i >= 2}
        for i, name in enumerate(["alpha", "beta", "gamma", "delta"])
    ]


def test_chained_transfer_loads_and_trains(tmp_path):
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    first = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    run_state(first, np.random.default_rng(2))
    path = tmp_path / "tr.bin"
    save_checkpoint(first, path)
    table = planted_table(TINY, (1, 0), 0.9, falloff=0.8)
    second = transfer_init(
        load_checkpoint(path, TINY),
        [("epsilon", EvaluatorBinding("epsilon", table=table))],
        np.random.default_rng(3),
        config=TrainerConfig(total_iterations=10),
    )
    assert second.task_names == ["alpha", "beta", "gamma", "delta", "epsilon"]
    assert list(second.evaluators) == [4]
    run_state(second, np.random.default_rng(4))
    assert len(second.events) == 10
    assert {e.task_name for e in second.events} == {"epsilon"}
    save_checkpoint(second, path)
    assert load_checkpoint(path, TINY).task_names == second.task_names


def test_transferred_state_trains(tmp_path):
    _, ckpt, new_tasks = transfer_setup(tmp_path)
    new_state = transfer_init(ckpt, new_tasks, np.random.default_rng(1))
    new_state.config = TrainerConfig(total_iterations=20)
    res = run_state(new_state, np.random.default_rng(2))
    assert len(res.events) == 20
    assert {e.task_name for e in res.events} <= {"gamma", "delta"}


# --- correlations ------------------------------------------------------------


def test_correlations_identical_and_negated_embeddings():
    params = init_controller(TINY, 3, 0, SMALL_DIMS)
    emb = params.task_embeddings()
    emb[1] = emb[0]
    emb[2] = -emb[0]
    corr = task_embedding_correlations(params, [0, 1, 2])
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T)
    assert np.all(corr >= -1.0 - 1e-12) and np.all(corr <= 1.0 + 1e-12)


def test_correlations_reject_zero_variance():
    params = init_controller(TINY, 2, 0, SMALL_DIMS)
    params.task_embeddings()[1] = 0.25  # constant vector has zero variance
    with pytest.raises(DegenerateEmbedding):
        task_embedding_correlations(params, [0, 1])


@pytest.mark.parametrize("bad", [3, -1])
def test_correlations_reject_unknown_task_ids(bad):
    # -1 must not wrap around to the last embedding row
    params = init_controller(TINY, 3, 0, SMALL_DIMS)
    with pytest.raises(UnknownTask) as info:
        task_embedding_correlations(params, [0, bad, 1])
    assert info.value.task_id == bad
