"""Time one search set-up in a fresh interpreter.

Set-up is what a search does before its first iteration: importing the
package, parsing the config, building the evaluators (planted-table
enumeration or toy-dataset generation) and initialising the controllers.

Usage, from the root of a checkout: ``python3 perfbench/setup_probe.py
CONFIG SEED``. Prints the seconds taken as its only line.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import numpy as np

    from modelsearch.config import build_evaluators, load_experiment_config
    from modelsearch.trainer import build_state

    config = load_experiment_config(sys.argv[1])
    tasks = build_evaluators(config)
    rng = np.random.default_rng(int(sys.argv[2]))
    build_state(config.space, tasks, config.trainer, rng, config.dims)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
