"""Command-line front end.

Subcommands: ``search``, ``transfer``, ``brute-force`` and ``report``.
Exit codes: 0 on success, 1 on configuration errors, 2 on runtime
failures.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError, ModelSearchError
from .harness import run_experiment
from .rules import NON_NEGATIVE_INT


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.replace(" ", "").split(",") if s]
    except ValueError:
        seeds = []
    if not seeds or not all(map(NON_NEGATIVE_INT.holds, seeds)):
        raise ConfigError(
            f"--seed expects a comma-separated list of non-negative integers, got {text!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelsearch",
        description="Multitask model-configuration search with a task-conditioned controller.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="experiment config file (YAML)")
        p.add_argument("--seed", help="comma-separated seed list, overrides the config")
        p.add_argument("--out", help="output directory, overrides the config")

    p_search = sub.add_parser("search", help="fresh multitask search")
    add_common(p_search)

    p_transfer = sub.add_parser("transfer", help="continue a pre-trained controller on new tasks")
    add_common(p_transfer)
    p_transfer.add_argument("--checkpoint", help="pre-trained checkpoint path, overrides the config")

    p_bf = sub.add_parser("brute-force", help="exhaustive optimum of every tabular task")
    add_common(p_bf)

    p_report = sub.add_parser("report", help="compare runs by iterations-to-threshold")
    p_report.add_argument("run_dirs", nargs="+", help="run directories to compare")
    p_report.add_argument("--threshold", type=float, required=True, help="smoothed reward threshold")
    p_report.add_argument("--out", help="output CSV path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's log lines go to this call's stderr at this call's level;
    # handlers other code put on the root logger still get them
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_log = logging.getLogger("modelsearch")
    level = package_log.level
    package_log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    package_log.addHandler(handler)
    try:
        if args.command == "report":
            out = run_experiment(
                None,
                mode="report",
                out_dir=args.out,
                threshold=args.threshold,
                report_dirs=args.run_dirs,
            )
        else:
            out = run_experiment(
                args.config,
                mode=args.command,
                seeds=_parse_seeds(args.seed) if args.seed else None,
                out_dir=args.out,
                checkpoint=getattr(args, "checkpoint", None),
            )
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except ModelSearchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
