"""Command line front end.

Every subcommand takes a JSON config (--config) and optional overrides;
see ``ExperimentConfig`` for the key set. Exit codes: 0 all checks
passed, 1 a tolerance check failed, 2 configuration error, 3 runtime or
numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, StochTransportError
from .experiments import (ExperimentConfig, cmd_hypotheses, cmd_solve,
                          cmd_uniqueness_crosscheck, cmd_verify_weak,
                          cmd_wong_zakai)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochtransport",
        description="Transport noise studies on periodic boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "solve": "run one configuration and dump artifacts",
        "verify-weak": "audit dumped artifacts against the weak identity",
        "uniqueness": "cross-check both schemes on a refinement ladder",
        "wong-zakai": "piecewise-linear path approximation study",
        "hypotheses": "drift integrability checks",
    }
    for name, text in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="artifact directory override")
        if name != "hypotheses":
            p.add_argument("--seed", type=int, default=None,
                           help="seed override: the path, or verify-weak's test functions")
        if name in ("solve", "uniqueness", "wong-zakai"):
            p.add_argument("--path-file", default=None,
                           help="replay a dumped path CSV instead of sampling")
        if name == "wong-zakai":
            p.add_argument("--seeds", type=int, default=1,
                           help="number of consecutive seeds; reports worst case")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.command == "solve":
            result = cmd_solve(cfg, out_dir=args.out, seed=args.seed,
                               path_file=args.path_file)
        elif args.command == "verify-weak":
            result = cmd_verify_weak(cfg, out_dir=args.out, seed=args.seed)
        elif args.command == "uniqueness":
            result = cmd_uniqueness_crosscheck(cfg, out_dir=args.out, seed=args.seed,
                                               path_file=args.path_file)
        elif args.command == "wong-zakai":
            result = cmd_wong_zakai(cfg, out_dir=args.out, seed=args.seed,
                                    n_seeds=args.seeds, path_file=args.path_file)
        else:
            result = cmd_hypotheses(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StochTransportError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for line in result.lines:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
