"""The benchmark's workloads: a bundled config plus trainer overrides.

Every workload runs the real ``modelsearch search`` path on a config the
benchmark generates from one of the bundled ``configs/`` files. The
workload seed becomes the search seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str  # relative to the checkout root
    trainer: dict = field(default_factory=dict)  # merged into the trainer block


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # the paper's main experiment: the critic path dominates
        Workload("planted-search", "configs/planted-pair.yaml"),
        # 16 samples per critic step: batch-1 sampling dominates; 500 iterations
        # make one search about as long as a planted-search one, enough to
        # average out machine drift
        Workload(
            "planted-sampling",
            "configs/planted-pair.yaml",
            {"samples_per_iteration": 16, "total_iterations": 500},
        ),
        # child training dominates; 4 samples per iteration (the bundled 300
        # trainings in 75 iterations) keep the iteration-time median from
        # jumping between training lengths
        Workload(
            "child-search",
            "configs/child-networks.yaml",
            {"samples_per_iteration": 4, "total_iterations": 75},
        ),
    )
}


def write_config(workload: Workload, root: Path, run_dir: Path, seed: int) -> Path:
    """The workload's config for one seed, written into ``run_dir``."""
    raw = yaml.safe_load((root / workload.base_config).read_text())
    raw["trainer"] = {**raw.get("trainer", {}), **workload.trainer}
    raw["seeds"] = [seed]
    path = run_dir / f"{workload.name}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path
