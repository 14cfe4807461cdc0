"""Discrete search space: an ordered menu of parameters and the bidirectional
mapping between action-index sequences and concrete model configurations.

A space is immutable after construction, so it can be shared freely between
threads and between the controller, evaluators and the brute-force oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .errors import IndexOutOfRange, LengthMismatch, UnknownChoice

# Canonical parameter names used by the child-network evaluator. Tiny test
# spaces are free to use any names; only child training requires these.
EMBEDDING = "embedding"
EMBEDDING_TRAINABLE = "embedding_trainable"
N_LAYERS = "n_layers"
N_NODES = "n_nodes"
LEARNING_RATE = "learning_rate"
TRAIN_ITERATIONS = "train_iterations"
L2_WEIGHT = "l2_weight"


@dataclass(frozen=True)
class ParamSpec:
    """One searchable parameter: a name and its ordered list of choices."""

    name: str
    choices: tuple

    def __post_init__(self):
        if not isinstance(self.choices, tuple):
            object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) == 0:
            raise ValueError(f"parameter {self.name!r} has no choices")
        seen = []
        for c in self.choices:
            if any(c == s for s in seen):
                raise ValueError(f"duplicate choice {c!r} in parameter {self.name!r}")
            seen.append(c)

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    def index_of(self, value) -> int:
        for i, c in enumerate(self.choices):
            if c == value:
                return i
        raise UnknownChoice(self.name, value)


class ModelConfig:
    """One decoded point of a search space: an ordered (name, value) mapping.

    Accessor properties expose the canonical child-network fields; they raise
    UnknownChoice if the space does not define the corresponding parameter.
    """

    __slots__ = ("_items", "_by_name")

    def __init__(self, items: Sequence[tuple[str, Any]]):
        self._items = tuple((str(k), v) for k, v in items)
        self._by_name = dict(self._items)

    @property
    def items(self) -> tuple:
        return self._items

    def __getitem__(self, name: str):
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownChoice(name, None) from None

    def as_dict(self) -> dict:
        return dict(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelConfig) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"ModelConfig({body})"

    # canonical accessors used by the child-network evaluator
    @property
    def embedding_choice(self):
        return self[EMBEDDING]

    @property
    def embedding_trainable(self) -> bool:
        return bool(self[EMBEDDING_TRAINABLE])

    @property
    def n_layers(self) -> int:
        return int(self[N_LAYERS])

    @property
    def n_nodes(self) -> int:
        return int(self[N_NODES])

    @property
    def learning_rate(self) -> float:
        return float(self[LEARNING_RATE])

    @property
    def train_iterations(self) -> int:
        return int(self[TRAIN_ITERATIONS])

    @property
    def l2_weight(self) -> float:
        return float(self[L2_WEIGHT])


class SearchSpace:
    """Ordered, immutable list of ParamSpec with index codec operations."""

    __slots__ = ("_params", "_counts")

    def __init__(self, params: Sequence[ParamSpec]):
        params = tuple(params)
        if len(params) == 0:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in search space")
        self._params = params
        self._counts = tuple(p.n_choices for p in params)

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        return self._params

    @property
    def n_params(self) -> int:
        return len(self._params)

    @property
    def choice_counts(self) -> tuple[int, ...]:
        return self._counts

    def cardinality(self) -> int:
        n = 1
        for c in self._counts:
            n *= c
        return n

    def validate_actions(self, actions: Sequence[int]) -> tuple[int, ...]:
        actions = tuple(int(a) for a in actions)
        if len(actions) != self.n_params:
            raise LengthMismatch(
                f"expected {self.n_params} actions, got {len(actions)}"
            )
        for p, a in zip(self._params, actions):
            if not 0 <= a < p.n_choices:
                raise IndexOutOfRange(p.name, a)
        return actions

    def decode(self, actions: Sequence[int]) -> ModelConfig:
        actions = self.validate_actions(actions)
        return ModelConfig(
            [(p.name, p.choices[a]) for p, a in zip(self._params, actions)]
        )

    def encode(self, config: ModelConfig) -> tuple[int, ...]:
        return tuple(p.index_of(config[p.name]) for p in self._params)

    def enumerate_actions(self) -> Iterator[tuple[int, ...]]:
        """Yield every action sequence in lexicographic order."""
        return itertools.product(*(range(c) for c in self._counts))

    def rank(self, actions: Sequence[int]) -> int:
        """Lexicographic rank of an action sequence (row-major index)."""
        actions = self.validate_actions(actions)
        r = 0
        for a, c in zip(actions, self._counts):
            r = r * c + a
        return r

    def actions_at(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.cardinality():
            raise IndexOutOfRange("<rank>", rank)
        out = []
        for c in reversed(self._counts):
            out.append(rank % c)
            rank //= c
        return tuple(reversed(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, SearchSpace) and self._params == other._params

    def __hash__(self) -> int:
        return hash(self._params)

    def __repr__(self) -> str:
        return f"SearchSpace({', '.join(p.name for p in self._params)})"


def space_from_entries(entries: Sequence[dict]) -> SearchSpace:
    """Build a space from declarative `{name, choices: [...]}` entries."""
    params = []
    for e in entries:
        params.append(ParamSpec(name=str(e["name"]), choices=tuple(e["choices"])))
    return SearchSpace(params)


def default_search_space() -> SearchSpace:
    """The bundled default space of seven text-classifier tuning parameters.

    Six embedding tables, trainability, depth, width, learning rate,
    training iterations and L2 weight; 15,360 combinations in total.
    """
    return SearchSpace(
        [
            ParamSpec(
                EMBEDDING,
                (
                    "Spanish",
                    "German",
                    "Japanese",
                    "English-small",
                    "English-big",
                    "English-wiki",
                ),
            ),
            ParamSpec(EMBEDDING_TRAINABLE, (True, False)),
            ParamSpec(N_LAYERS, (1, 2, 3, 5, 10)),
            ParamSpec(N_NODES, (5, 10, 50, 100)),
            ParamSpec(LEARNING_RATE, (0.001, 0.01, 0.05, 0.1)),
            ParamSpec(TRAIN_ITERATIONS, (5000, 10000, 15000, 20000)),
            ParamSpec(L2_WEIGHT, (0, 0.0001, 0.001, 0.01)),
        ]
    )
