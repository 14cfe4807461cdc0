"""Reward sources for the search loop.

Two families are provided: exhaustive tabular oracles (optionally noisy)
whose true optimum is known, which makes them usable as ground truth in
tests; and a real toy child-network trainer that builds a small ReLU
feed-forward classifier from a sampled configuration and reports its
validation accuracy. Every evaluator is pure: the same (config, seed)
always yields the same reward.

Child training keeps all trained arrays as views into one flat vector and
makes one Adagrad call per step.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InvalidConfig,
    NotBruteForceable,
    OutOfRange,
    UnknownChoice,
    UnknownConfig,
)
from .kernel import log_softmax, softmax
from .optim import adagrad_l2_update
from .parameters import FlatParams, ParamLayout
from .space import ModelConfig, SearchSpace


def reward_from_accuracy(acc: float) -> float:
    """Cubed validation accuracy; monotone, so argmax is preserved."""
    acc = float(acc)
    if not 0.0 <= acc <= 1.0:
        raise OutOfRange(f"accuracy {acc} outside [0, 1]")
    return acc**3


@dataclass
class EvaluatorBinding:
    """A task's reward source: (ModelConfig, seed) -> reward."""

    name: str
    space: SearchSpace
    fn: Callable
    table: "OracleTable | None" = None

    def __call__(self, config: ModelConfig, seed: int) -> float:
        return self.fn(config, seed)


class OracleTable:
    """Base accuracy for every configuration of a space, plus optional noise.

    ``accuracies[rank]`` holds the noise-free accuracy of the config with
    that lexicographic rank. ``reward_scale`` rescales the cubed reward and
    exists so experiments can shift one task's reward distribution without
    touching its accuracy structure.
    """

    def __init__(
        self,
        space: SearchSpace,
        accuracies: np.ndarray,
        noise_sigma: float = 0.0,
        reward_scale: float = 1.0,
    ):
        accuracies = np.asarray(accuracies, dtype=np.float64).copy()
        if accuracies.shape != (space.cardinality(),):
            raise ValueError(
                f"table covers {accuracies.shape[0]} configs, space has {space.cardinality()}"
            )
        if np.any(accuracies < 0.0) or np.any(accuracies > 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.space = space
        self.accuracies = accuracies
        self.accuracies.flags.writeable = False
        self.noise_sigma = float(noise_sigma)
        self.reward_scale = float(reward_scale)

    def rank_of(self, config: ModelConfig) -> int:
        try:
            return self.space.rank(self.space.encode(config))
        except UnknownChoice as e:
            raise UnknownConfig(str(e)) from e

    def with_reward_scale(self, scale: float) -> "OracleTable":
        return OracleTable(self.space, self.accuracies, self.noise_sigma, scale)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "accuracy"])
            for i, a in enumerate(self.accuracies):
                w.writerow([i, repr(float(a))])

    @classmethod
    def from_csv(cls, path, space: SearchSpace, **kwargs) -> "OracleTable":
        acc = np.full(space.cardinality(), np.nan)
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                acc[int(row["index"])] = float(row["accuracy"])
        if np.any(np.isnan(acc)):
            missing = int(np.isnan(acc).sum())
            raise ValueError(f"table at {path} misses {missing} configs")
        return cls(space, acc, **kwargs)


def tabular_evaluate(table: OracleTable, config: ModelConfig, seed: int) -> float:
    """Reward of one config: cubed (base + noise) accuracy, clamped first."""
    rank = table.rank_of(config)
    acc = float(table.accuracies[rank])
    if table.noise_sigma > 0.0:
        acc += float(np.random.default_rng(seed).normal(0.0, table.noise_sigma))
        acc = min(max(acc, 0.0), 1.0)
    return reward_from_accuracy(acc) * table.reward_scale


def binding_from_table(name: str, table: OracleTable) -> EvaluatorBinding:
    return EvaluatorBinding(
        name=name,
        space=table.space,
        fn=lambda config, seed: tabular_evaluate(table, config, seed),
        table=table,
    )


def brute_force_optimum(binding: EvaluatorBinding) -> tuple[ModelConfig, float]:
    """Exact argmax of the noise-free reward over the whole space.

    Ties break toward the lexicographically first action sequence.
    """
    if binding.table is None:
        raise NotBruteForceable(f"evaluator {binding.name!r} has no oracle table")
    table = binding.table
    rewards = table.accuracies**3 * table.reward_scale
    rank = int(np.argmax(rewards))
    actions = table.space.actions_at(rank)
    return table.space.decode(actions), float(rewards[rank])


def planted_table(
    space: SearchSpace,
    optimum_actions,
    ceiling: float,
    falloff: float = 0.9,
) -> OracleTable:
    """Accuracy table with a single planted optimum.

    accuracy(a) = ceiling * prod_i falloff^|a_i - o_i|, so every parameter
    contributes a consistent, learnable penalty for straying from the
    planted choice.
    """
    optimum = space.validate_actions(optimum_actions)
    if not 0.0 < ceiling <= 1.0:
        raise ValueError("ceiling must lie in (0, 1]")
    if not 0.0 < falloff < 1.0:
        raise ValueError("falloff must lie in (0, 1)")
    acc = np.empty(space.cardinality())
    for rank, actions in enumerate(space.enumerate_actions()):
        dist = sum(abs(a - o) for a, o in zip(actions, optimum))
        acc[rank] = ceiling * falloff**dist
    return OracleTable(space, acc)


# --- toy child networks ----------------------------------------------------


#: per embedding label: (output dim, signal gain, noise gain). Labels with
#: high signal gain preserve class structure; low ones bury it in noise,
#: which a trainable extractor can partially undo.
DEFAULT_EXTRACTOR_MENU = {
    "Spanish": (24, 1.00, 0.30),
    "German": (24, 0.55, 0.60),
    "Japanese": (16, 0.15, 1.00),
    "English-small": (8, 0.55, 0.60),
    "English-big": (32, 1.00, 0.30),
    "English-wiki": (40, 1.25, 0.25),
}


def _label_seed(base_seed: int, label: str) -> int:
    h = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass
class ToyTask:
    """Synthetic labeled dataset plus per-embedding-choice feature maps."""

    name: str
    n_classes: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    extractors: dict = field(default_factory=dict)  # label -> (d_raw, d_out)

    @classmethod
    def generate(
        cls,
        name: str,
        seed: int,
        separation: float,
        n_train: int = 1200,
        n_val: int = 400,
        raw_dim: int = 16,
        signal_dims: int = 4,
        n_classes: int = 2,
        extractor_menu: dict | None = None,
    ) -> "ToyTask":
        """Gaussian class blobs living in the first ``signal_dims`` coords.

        ``separation`` scales the distance between class means relative to
        unit noise; large values give a linearly separable task, small ones
        an irreducibly overlapping one. Train and validation splits are
        drawn independently from the same distribution.
        """
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, 1.0, size=(n_classes, signal_dims))
        means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

        def make_split(n):
            y = np.arange(n) % n_classes
            y = rng.permutation(y)
            x = rng.normal(0.0, 1.0, size=(n, raw_dim))
            x[:, :signal_dims] += means[y]
            return x, y

        train_x, train_y = make_split(n_train)
        val_x, val_y = make_split(n_val)

        menu = DEFAULT_EXTRACTOR_MENU if extractor_menu is None else extractor_menu
        extractors = {}
        for label, (d_out, signal_gain, noise_gain) in menu.items():
            erng = np.random.default_rng(_label_seed(seed, label))
            mat = erng.normal(0.0, 1.0 / np.sqrt(raw_dim), size=(raw_dim, d_out))
            mat[:signal_dims] *= signal_gain
            mat[signal_dims:] *= noise_gain
            extractors[label] = mat
        return cls(
            name=name,
            n_classes=n_classes,
            train_x=train_x,
            train_y=train_y,
            val_x=val_x,
            val_y=val_y,
            extractors=extractors,
        )


def child_parameter_count(d_in: int, n_layers: int, n_nodes: int, n_classes: int) -> int:
    """Weights + biases of the ReLU stack and the softmax head."""
    count = d_in * n_nodes + n_nodes
    count += (n_layers - 1) * (n_nodes * n_nodes + n_nodes)
    count += n_nodes * n_classes + n_classes
    return count


def child_init(d_in: int, n_layers: int, n_nodes: int, n_classes: int, rng) -> list:
    """Uniform Glorot-style init; biases start at zero."""
    if n_layers < 1 or n_nodes < 1:
        raise InvalidConfig("need at least one layer and one node")
    sizes = [d_in] + [n_nodes] * n_layers + [n_classes]
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def child_forward_logits(params: list, x: np.ndarray) -> np.ndarray:
    h = x
    n_pairs = len(params) // 2
    for i in range(n_pairs):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i + 1 < n_pairs:  # the head stays linear
            h = np.maximum(h, 0.0)
    return h


def child_grads(params: list, x: np.ndarray, y: np.ndarray, input_grad: bool = False):
    """Logits, exact mean-cross-entropy parameter gradients, optional input grad."""
    n_pairs = len(params) // 2
    acts = [x]
    h = x
    for i in range(n_pairs):
        z = h @ params[2 * i] + params[2 * i + 1]
        h = np.maximum(z, 0.0) if i + 1 < n_pairs else z
        acts.append(h)
    logits = acts[-1]
    B = x.shape[0]

    d = softmax(logits)
    d[np.arange(B), y] -= 1.0
    d /= B
    grads: list = [None] * len(params)
    for i in reversed(range(n_pairs)):
        grads[2 * i] = acts[i].T @ d
        grads[2 * i + 1] = d.sum(axis=0)
        if i > 0:
            d = (d @ params[2 * i].T) * (acts[i] > 0.0)
    d_input = d @ params[0].T if input_grad else None
    return logits, grads, d_input


def child_loss_and_grads(params: list, x: np.ndarray, y: np.ndarray, input_grad: bool = False):
    """Mean cross-entropy, exact parameter gradients, optional input grad."""
    logits, grads, d_input = child_grads(params, x, y, input_grad)
    logp = log_softmax(logits)
    loss = -float(logp[np.arange(x.shape[0]), y].mean())
    return loss, grads, d_input


def train_child_network(config: ModelConfig, task: ToyTask, seed: int) -> float:
    """Build and train the child classifier a config describes.

    Inputs pass through the feature extractor chosen by the embedding
    parameter; the extractor receives gradient updates only when the
    trainability flag is set. Training runs for the configured number of
    iterations on batches of 100 with Adagrad and the configured learning
    rate and L2 weight; returns accuracy on the full validation split.
    """
    try:
        label = config.embedding_choice
        trainable = config.embedding_trainable
        n_layers = config.n_layers
        n_nodes = config.n_nodes
        lr = config.learning_rate
        iters = config.train_iterations
        l2 = config.l2_weight
    except UnknownChoice as e:
        raise InvalidConfig(f"config misses a child-network field: {e}") from e
    if label not in task.extractors:
        raise InvalidConfig(f"task {task.name!r} has no extractor {label!r}")
    if n_layers < 1 or n_nodes < 1 or lr <= 0 or iters < 0 or l2 < 0:
        raise InvalidConfig("invalid child-network hyperparameters")

    rng = np.random.default_rng(seed)
    extractor = task.extractors[label]
    mlp = child_init(extractor.shape[1], n_layers, n_nodes, task.n_classes, rng)

    # every trained array is a view into one flat vector, so one Adagrad
    # call per step updates them all; a frozen extractor is only read
    trained = ([extractor] if trainable else []) + mlp
    names = (["extractor"] if trainable else []) + [
        f"{kind}{i}" for i in range(n_layers + 1) for kind in ("w", "b")
    ]
    layout = ParamLayout([(n, a.shape) for n, a in zip(names, trained)])
    params = FlatParams(layout, np.concatenate([a.ravel() for a in trained]))
    grad = FlatParams.zeros(layout)
    views = [params.get(n) for n in names]
    grad_views = [grad.get(n) for n in names]
    if trainable:
        extractor = views[0]
    mlp = views[-len(mlp):]
    acc_state = np.zeros(layout.total_size)

    n_train = task.train_x.shape[0]
    batch = 100
    for _ in range(iters):
        idx = rng.integers(0, n_train, size=batch)
        raw = task.train_x[idx]
        yb = task.train_y[idx]
        _, mlp_grads, d_feat = child_grads(mlp, raw @ extractor, yb, input_grad=trainable)
        grads = ([raw.T @ d_feat] if trainable else []) + mlp_grads
        for view, g in zip(grad_views, grads):
            view[...] = g
        new, acc_state = adagrad_l2_update(params.flat, grad.flat, acc_state, lr, l2)
        params.flat[...] = new

    val_logits = child_forward_logits(mlp, task.val_x @ extractor)
    pred = np.argmax(val_logits, axis=1)
    return float(np.mean(pred == task.val_y))


def binding_from_child_task(name: str, task: ToyTask, space: SearchSpace) -> EvaluatorBinding:
    return EvaluatorBinding(
        name=name,
        space=space,
        fn=lambda config, seed: reward_from_accuracy(
            train_child_network(config, task, seed)
        ),
    )
