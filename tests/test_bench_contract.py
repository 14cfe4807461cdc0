"""The benchmark's traced mode wraps program names that must keep existing.

perfbench/tracing.py replaces functions and methods by name in the
modules and classes that look them up. Installing and removing every one
of those wrappers here makes a deleted or moved name fail in the test
suite, not only in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import modelsearch  # noqa: E402
import modelsearch.cli  # noqa: E402,F401
import modelsearch.config  # noqa: E402,F401
import modelsearch.controller  # noqa: E402,F401
import modelsearch.evaluators  # noqa: E402,F401
import modelsearch.harness  # noqa: E402,F401
import modelsearch.kernel  # noqa: E402,F401
import modelsearch.space  # noqa: E402,F401
import modelsearch.trainer  # noqa: E402,F401
import tracing  # noqa: E402


def test_every_traced_name_can_be_wrapped_and_restored():
    wraps = tracing.Tracer().wraps(modelsearch)
    originals = [vars(w.owner)[w.attr] for w in wraps]
    with tracing.patched(wraps):
        for w, original in zip(wraps, originals):
            assert vars(w.owner)[w.attr] is not original
    assert [vars(w.owner)[w.attr] for w in wraps] == originals
