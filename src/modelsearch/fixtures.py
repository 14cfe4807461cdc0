"""Bundled desk-scale fixtures used by tests and example experiments.

The planted tabular pairs give two tasks with different difficulty
ceilings and optima that disagree on most parameters, so multitask
differentiation is observable. The related pair's optima are near-copies
of the base pair's, which is what makes transfer measurably faster than
searching from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluators import OracleTable, ToyTask, planted_table
from .space import (
    EMBEDDING,
    EMBEDDING_TRAINABLE,
    L2_WEIGHT,
    LEARNING_RATE,
    N_LAYERS,
    N_NODES,
    TRAIN_ITERATIONS,
    ParamSpec,
    SearchSpace,
)


def reduced_space() -> SearchSpace:
    """Seven-parameter space with 432 combinations; shape mirrors the default."""
    return SearchSpace(
        [
            ParamSpec(EMBEDDING, ("Spanish", "German", "Japanese")),
            ParamSpec(EMBEDDING_TRAINABLE, (True, False)),
            ParamSpec(N_LAYERS, (1, 2)),
            ParamSpec(N_NODES, (5, 10, 50)),
            ParamSpec(LEARNING_RATE, (0.001, 0.01, 0.1)),
            ParamSpec(TRAIN_ITERATIONS, (100, 300)),
            ParamSpec(L2_WEIGHT, (0, 0.001)),
        ]
    )


def child_search_space() -> SearchSpace:
    """Small space whose every config is trainable as a real toy child net."""
    return SearchSpace(
        [
            ParamSpec(EMBEDDING, ("Spanish", "Japanese", "English-wiki")),
            ParamSpec(EMBEDDING_TRAINABLE, (True, False)),
            ParamSpec(N_LAYERS, (1, 2)),
            ParamSpec(N_NODES, (8, 32)),
            ParamSpec(LEARNING_RATE, (0.01, 0.05, 0.2)),
            ParamSpec(TRAIN_ITERATIONS, (150, 400)),
            ParamSpec(L2_WEIGHT, (0, 0.001)),
        ]
    )


@dataclass(frozen=True)
class PlantedTask:
    name: str
    optimum: tuple[int, ...]
    ceiling: float


@dataclass(frozen=True)
class PlantedPair:
    space: SearchSpace
    tasks: tuple[PlantedTask, PlantedTask]
    falloff: float

    def tables(self) -> dict[str, OracleTable]:
        return {
            t.name: planted_table(self.space, t.optimum, t.ceiling, self.falloff)
            for t in self.tasks
        }


# Optima agree on positions 1 and 4 and differ on the other five.
_PAIR_A0 = (0, 0, 0, 1, 1, 0, 0)
_PAIR_A1 = (2, 0, 1, 2, 1, 1, 1)
# Related near-copies: one position changed each.
_PAIR_R0 = (0, 0, 0, 2, 1, 0, 0)
_PAIR_R1 = (2, 0, 1, 1, 1, 1, 1)

FALLOFF = 0.88


def planted_pair_a() -> PlantedPair:
    """Two tasks with different accuracy ceilings and mostly-different optima."""
    return PlantedPair(
        space=reduced_space(),
        tasks=(
            PlantedTask("sentiment", _PAIR_A0, 0.85),
            PlantedTask("language-id", _PAIR_A1, 0.99),
        ),
        falloff=FALLOFF,
    )


def planted_pair_related() -> PlantedPair:
    """Near-copies of pair A's optima, used as transfer targets."""
    return PlantedPair(
        space=reduced_space(),
        tasks=(
            PlantedTask("sentiment-reviews", _PAIR_R0, 0.87),
            PlantedTask("language-id-reviews", _PAIR_R1, 0.97),
        ),
        falloff=FALLOFF,
    )


def toy_separable(seed: int = 2024) -> ToyTask:
    return ToyTask.generate("separable", seed=seed, separation=3.0)


def toy_overlap(seed: int = 2025) -> ToyTask:
    return ToyTask.generate("noisy-overlap", seed=seed, separation=0.8)


def differing_positions(a, b) -> list[int]:
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
