"""Config value rules: every YAML value either loads or is a ConfigError.

The strategies for the trainer and controller fields are built from the
rule each dataclass field carries in its metadata.
"""

import copy
import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsearch.config import build_evaluators, parse_experiment_config
from modelsearch.controller import ControllerDims
from modelsearch.errors import ConfigError
from modelsearch.trainer import TrainerConfig

BASE = {
    "name": "fuzz",
    "mode": "search",
    "seeds": [0, 1],
    "out_dir": "out",
    "search_space": [
        {"name": "a", "choices": [0, 1]},
        {"name": "b", "choices": ["x", None, 0.5]},
    ],
    "controller": {"hidden_size": 8, "num_layers": 1},
    "trainer": {"total_iterations": 10, "grad_clip_norm": 5.0, "polyak_keep": 0.9},
    "tasks": [
        {
            "name": "p",
            "evaluator": {
                "kind": "planted",
                "optimum": [0, 1],
                "ceiling": 0.9,
                "falloff": 0.8,
                "noise_sigma": 0.0,
                "reward_scale": 1.0,
            },
        },
        {"name": "q", "evaluator": {"kind": "planted", "optimum": {"a": 1, "b": "x"}}},
        {
            "name": "t",
            "evaluator": {
                "kind": "table_csv",
                "path": "t.csv",
                "noise_sigma": 0.1,
                "reward_scale": 2.0,
            },
        },
        {"name": "c", "evaluator": {"kind": "child_network", "dataset": "overlap", "seed": 3}},
    ],
    "transfer": {"checkpoint": "ck.bin"},
    "heatmap_samples": 100,
}

BLOCKS = {"trainer": TrainerConfig, "controller": ControllerDims}


def _paths(node, prefix=()):
    """Every field path of a nested config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


PATHS = sorted(
    set(_paths(BASE))
    | {(block, f.name) for block, cls in BLOCKS.items() for f in dataclasses.fields(cls)},
    key=repr,
)
KEYS = sorted({p[-1] for p in PATHS if isinstance(p[-1], str)})

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, -1, ""])
)
YAML_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=4) | st.integers() | st.none() | st.booleans(),
        kids,
        max_size=3,
    ),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "t.csv").write_text("index,accuracy\n" + "".join(f"{i},0.5\n" for i in range(6)))
    return d


def _put(config, path, value):
    for k in path[:-1]:
        config = config[k]
    config[path[-1]] = value


def test_base_config_loads(base_dir):
    assert len(build_evaluators(parse_experiment_config(BASE, base_dir))) == 4


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), value=YAML_VALUES)
def test_any_value_at_any_field_path_loads_or_raises_config_error(base_dir, path, value):
    raw = copy.deepcopy(BASE)
    _put(raw, path, value)
    try:
        build_evaluators(parse_experiment_config(raw, base_dir))
    except ConfigError:
        pass


TOO_BIG_FOR_A_FLOAT = 10**400
RULED = [(block, f) for block, cls in BLOCKS.items() for f in dataclasses.fields(cls)]


def _valid(rule):
    """Values that meet ``rule``, drawn from its bounds."""
    if rule.integer:
        high = None if rule.high is None else rule.high - 1
        values = st.integers(min_value=rule.low, max_value=high)
    else:
        values = st.floats(
            min_value=rule.low,
            max_value=rule.high,
            exclude_min=rule.low is not None,
            exclude_max=rule.high is not None,
            allow_nan=False,
        )
        ints = st.integers(
            min_value=None if rule.low is None else math.floor(rule.low) + 1,
            max_value=10**300 if rule.high in (None, math.inf) else math.ceil(rule.high) - 1,
        )
        if rule.high is None or rule.high - (rule.low or 0) > 1:
            values = values | ints
    return values | st.none() if rule.nullable else values


def _invalid(rule):
    """A bool, a string, NaN, a value past each bound, and null unless allowed."""
    bad = [True, False, "1", math.nan, [1], {"v": 1}]
    if not rule.nullable:
        bad.append(None)
    if rule.integer:
        bad += [rule.low + 0.5, rule.low - 1, float(rule.low)]
    else:
        bad += [TOO_BIG_FOR_A_FLOAT]
        if rule.low is not None:
            bad += [rule.low, rule.low - 1, -math.inf]
        if rule.high is not None:
            bad += sorted({rule.high, math.inf})
    return bad


def _label(value):
    return "10**400" if value == TOO_BIG_FOR_A_FLOAT else repr(value)


def _load_block(block, name, value):
    raw = copy.deepcopy(BASE)
    raw[block] = {name: value}
    return getattr(parse_experiment_config(raw), "dims" if block == "controller" else block)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_values_that_meet_a_fields_rule_load(data):
    block, f = data.draw(st.sampled_from(RULED))
    value = data.draw(_valid(f.metadata["rule"]))
    assert getattr(_load_block(block, f.name, value), f.name) == value


@pytest.mark.parametrize(
    "block, name, value",
    [
        pytest.param(b, f.name, v, id=f"{b}.{f.name}={_label(v)}")
        for b, f in RULED
        for v in _invalid(f.metadata["rule"])
    ],
)
def test_values_that_break_a_fields_rule_are_named(block, name, value):
    with pytest.raises(ConfigError, match=f"^{block}: {name} must be "):
        _load_block(block, name, value)


def _readme_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))


def test_readme_example_parses_and_lists_every_default():
    raw = _readme_example()
    cfg = parse_experiment_config(raw)
    assert raw["controller"] == dataclasses.asdict(ControllerDims())
    assert raw["trainer"] == dataclasses.asdict(TrainerConfig())
    assert cfg.dims == ControllerDims() and cfg.trainer == TrainerConfig()
