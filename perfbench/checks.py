"""Checks on what one search wrote, and on two searches of one seed.

Each check returns a list of problems; an empty list means it passed. A
search with any problem counts as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from modelsearch import checkpoint
from modelsearch.evaluators import brute_force_optimum

CHILD_REWARD_FLOOR = 0.95**3  # the bundled child-networks config promises this
REWARD_REL_TOL = 1e-12  # table rewards are cubed in numpy and in Python


def _parse_csv(path: Path) -> list[str]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [f"{path.name} is empty"]
    width = len(rows[0])
    bad = [i for i, r in enumerate(rows) if len(r) != width]
    return [f"{path.name}: rows {bad[:3]} do not have {width} fields"] if bad else []


def artifact_problems(out_dir: Path, space) -> list[str]:
    """Every artifact the manifest lists exists and parses."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    for rel in manifest["artifacts"]:
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel} listed in the manifest but missing")
        elif path.suffix == ".csv":
            problems += _parse_csv(path)
        elif path.suffix == ".json":
            json.loads(path.read_text())
        elif path.suffix == ".bin":
            checkpoint.load_checkpoint(path, space)
        elif not path.read_text().strip():
            problems.append(f"{rel} is empty")
    return problems


def output_problems(out_dir: Path, seed: int, config, bindings, rows: int, skips: int) -> list[str]:
    """Artifacts, event-log row count and best rewards of one search."""
    seed_dir = out_dir / f"seed_{seed}"
    problems = artifact_problems(out_dir, config.space)
    if problems:
        return problems
    expected = config.trainer.total_iterations * config.trainer.samples_per_iteration - skips
    if rows != expected:
        problems.append(f"events.csv has {rows} rows, expected {expected}")
    best = json.loads((seed_dir / "best_models.json").read_text())
    for name, binding in bindings:
        if name not in best:
            problems.append(f"task {name!r} has no best model")
            continue
        reward = best[name]["reward"]
        if binding.table is not None:
            _, optimum = brute_force_optimum(binding)
            if not math.isclose(reward, optimum, rel_tol=REWARD_REL_TOL):
                problems.append(f"task {name!r}: best reward {reward} != optimum {optimum}")
        elif reward < CHILD_REWARD_FLOOR:
            problems.append(f"task {name!r}: best reward {reward} < {CHILD_REWARD_FLOOR}")
    return problems


def _masked_checkpoint(path: Path) -> bytes:
    data = bytearray(path.read_bytes())
    lo = checkpoint.TIMESTAMP_OFFSET
    data[lo : lo + checkpoint.TIMESTAMP_SIZE] = bytes(checkpoint.TIMESTAMP_SIZE)
    return bytes(data)


def determinism_problems(dir_a: Path, dir_b: Path) -> list[str]:
    """Two searches of one seed wrote the same bytes, timestamp aside."""
    manifest = json.loads((dir_a / "manifest.json").read_text())
    problems = []
    for rel in manifest["artifacts"]:
        a, b = dir_a / rel, dir_b / rel
        if not b.is_file():
            problems.append(f"{rel} missing from the repeat")
            continue
        if a.name == "checkpoint.bin":
            same = _masked_checkpoint(a) == _masked_checkpoint(b)
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            problems.append(f"{rel} differs between two searches of one seed")
    return problems
