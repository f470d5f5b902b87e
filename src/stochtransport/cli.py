"""Command line front end.

Every subcommand takes a JSON config (--config) and optional overrides;
see ``schema.CONFIG`` for the key set. Exit codes: 0 all checks
passed, 1 a tolerance check failed, 2 configuration error, 3 runtime or
numeric failure. A configuration error removes the artifact directory,
and any parent of it, that the command made and left empty; a runtime
failure leaves the directory and what was written into it. The commands
that solve report the steps at which a solution touched the wrap-around
margin on stdout, so the library's ``SupportMarginWarning`` is not also
printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from .errors import ConfigError, StochTransportError, SupportMarginWarning
from .experiments import (ExperimentConfig, cmd_hypotheses, cmd_solve,
                          cmd_uniqueness_crosscheck, cmd_verify_weak,
                          cmd_wong_zakai)


@functools.cache  # built once per process; parsing leaves it as it was
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


def _absent_dirs(path) -> list:
    """``path`` and each of its parents that does not exist yet, deepest first."""
    absent = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        absent.append(path)
        path, child = os.path.dirname(path), path
        if path == child:
            break
    return absent


def _remove_empty(dirs) -> None:
    """Remove ``dirs``, deepest first, up to the first that is not an empty
    directory: a directory the command made and wrote nothing into."""
    for path in dirs:
        try:
            os.rmdir(path)
        except OSError:
            break


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made = []
    try:
        cfg = ExperimentConfig.from_json(args.config)
        made = _absent_dirs(args.out if args.out is not None else cfg.out_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportMarginWarning)
            result = _run(args, cfg)
    except ConfigError as exc:
        _remove_empty(made)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StochTransportError, ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for line in result.lines:
        print(line)
    return result.exit_code


def _run(args, cfg: ExperimentConfig):
    """Run the subcommand ``args`` names on ``cfg``."""
    if args.command == "solve":
        return cmd_solve(cfg, out_dir=args.out, seed=args.seed, path_file=args.path_file)
    if args.command == "verify-weak":
        return cmd_verify_weak(cfg, out_dir=args.out, seed=args.seed)
    if args.command == "uniqueness":
        return cmd_uniqueness_crosscheck(cfg, out_dir=args.out, seed=args.seed,
                                         path_file=args.path_file)
    if args.command == "wong-zakai":
        return cmd_wong_zakai(cfg, out_dir=args.out, seed=args.seed,
                              n_seeds=args.seeds, path_file=args.path_file)
    return cmd_hypotheses(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
