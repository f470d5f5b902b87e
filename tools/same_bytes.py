"""Compare the outputs of this tree with those of another commit, byte for byte.

    python3 tools/same_bytes.py --base REV|DIR [--config FILE]

The base is a git revision, unpacked with ``git archive REV src demos``
under ``.bench_work/``, or a directory that holds ``src`` and ``demos``.
Both trees run the same scope, each command in a fresh process with one
thread and ``PYTHONHASHSEED=0``:

- every op of the three benchmark workloads of ``bench/workloads.py``, on
  their configs at the default seeds, each ``solve`` followed by its
  replay, a ``solve --path-file`` of the ``path.csv`` it wrote, then the
  six demos; or
- with ``--config FILE``, the five commands on that one config: solve,
  verify-weak, uniqueness, wong-zakai and hypotheses.

It compares every exit code, stdout and stderr with the work directory
and the tree masked, and the sha256 of every file the runs leave, the
configs included. In this tree it also checks that each replay wrote
the files of its seeded ``solve``, byte for byte. It prints one line:
that everything is identical, or the first op, demo or file that
differs, with the largest |delta| of a snapshot's values. It exits 0
when everything is identical, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import runpy
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work", "same_bytes")

#: The five commands of ``--config``, each with its output directory.
COMMANDS = [("solve", "run"), ("verify-weak", "run"), ("uniqueness", "uniq"),
            ("wong-zakai", "wz"), ("hypotheses", "hyp")]

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def unpack(base: str, work: str) -> str:
    """The tree of ``base``: a directory as it is, or a git revision unpacked
    under ``work``."""
    if os.path.isdir(base):
        return os.path.abspath(base)
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{base}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(work, "trees", sha)
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.run(["git", "archive", sha, "src", "demos"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def scope(tree: str, config: str | None) -> list:
    """What to run, in order: (name, directory, {config file: text}, argv,
    replay), where ``replay`` is None, or the output directories of a seeded
    ``solve`` and of its replay, which must hold the same files."""
    if config is not None:
        with open(config, encoding="utf-8") as fh:
            files = {"config.json": fh.read()}
        return [(f"{command} --config {os.path.basename(config)}", "config", files,
                 ["-m", "stochtransport", command, "--config", "config.json", "--out", out],
                 None)
                for command, out in COMMANDS]
    bench = runpy.run_path(os.path.join(ROOT, "bench", "workloads.py"),
                           run_name="bench_workloads")
    units = []
    for workload, seed in bench["DEFAULT_SEEDS"].items():
        files = {f"{name}.json": json.dumps(cfg, indent=1)
                 for name, cfg in bench["configs"](workload, seed).items()}
        for op in bench["ops"](workload):
            argv = ["-m", "stochtransport", op.command, "--config", f"{op.config}.json"]
            units.append((f"{workload} {op.label}", workload, files, argv + ["--out", op.out],
                          None))
            if op.command == "solve":
                replay = f"{op.out}_replay"
                units.append((f"{workload} {op.label} replay", workload, files,
                              argv + ["--out", replay, "--path-file",
                                      os.path.join(op.out, "path.csv")], (op.out, replay)))
    demos = sorted(n for n in os.listdir(os.path.join(tree, "demos")) if n.endswith(".py"))
    return units + [(f"demo {name}", os.path.join("demos", name[:-3]), {},
                     [os.path.join(tree, "demos", name)], None) for name in demos]


def run(tree: str, work: str, config: str | None) -> tuple[dict, dict]:
    """Run the scope of ``tree`` in a fresh ``work`` directory: the exit
    code, stdout and stderr of each op and demo, with ``work`` and
    ``tree`` masked, and for each replay, what :func:`replay_difference`
    finds right after it ran."""
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(tree, "src"))
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    outcomes, replays = {}, {}
    for name, where, files, argv, replay in scope(tree, config):
        cwd = os.path.join(work, where)
        os.makedirs(cwd, exist_ok=True)
        for file, text in files.items():
            with open(os.path.join(cwd, file), "w", encoding="utf-8") as fh:
                fh.write(text)
        proc = subprocess.run([sys.executable] + argv, cwd=cwd, env=env,
                              capture_output=True, text=True)
        # the work directory lies inside this tree, so it is masked first
        outcomes[name] = (proc.returncode,) + tuple(
            text.replace(work, "<work>").replace(tree, "<tree>")
            for text in (proc.stdout, proc.stderr))
        if replay is not None:
            replays[name] = replay_difference(cwd, *replay)
    return outcomes, replays


def digests(work: str) -> dict:
    """The sha256 of every file under ``work``, keyed by its relative path."""
    found = {}
    for top, _, names in os.walk(work):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def replay_difference(cwd: str, seeded: str, replayed: str):
    """The first file, by path, that the replay under ``cwd/replayed`` of
    the seeded run under ``cwd/seeded`` did not write with the same bytes,
    in words; None when both hold the same files, byte for byte."""
    a, b = digests(os.path.join(cwd, seeded)), digests(os.path.join(cwd, replayed))
    for rel in sorted(a.keys() | b.keys()):
        if a.get(rel) != b.get(rel):
            where = "bytes differ" if rel in a and rel in b else "written by one run only"
            return f"{os.path.join(replayed, rel)}: {where}"
    return None


def _snapshot_delta(a: str, b: str) -> str:
    """The largest |delta| between the value cells of two snapshots, whose
    rows start with their index."""
    values = []
    for path in (a, b):
        with open(path, encoding="utf-8") as fh:
            values.append([float(line.rsplit(",", 1)[1]) for line in fh if line[:1].isdigit()])
    if len(values[0]) != len(values[1]):
        return f"{len(values[0])} rows against {len(values[1])}"
    return f"largest |delta| {max(abs(x - y) for x, y in zip(*values))!r}"


def first_difference(base_work: str, head_work: str, base_runs: dict, head_runs: dict):
    """The first op or demo, in run order, then the first file, by path,
    that differs between two runs, in words; None when none does."""
    for name in list(base_runs) + [n for n in head_runs if n not in base_runs]:
        if name not in base_runs or name not in head_runs:
            return f"{name}: runs in one tree only"
        for what, x, y in zip(("exit code", "stdout", "stderr"), base_runs[name],
                              head_runs[name]):
            if x != y:
                return f"{name}: {what} differs" + (f", {x} against {y}"
                                                    if what == "exit code" else "")
    base_files, head_files = digests(base_work), digests(head_work)
    for rel in sorted(base_files.keys() | head_files.keys()):
        if rel not in base_files or rel not in head_files:
            return f"{rel}: written in one tree only"
        if base_files[rel] != head_files[rel]:
            delta = ""
            if os.path.basename(rel)[:3] in ("u_t", "v_t"):
                delta = ", " + _snapshot_delta(os.path.join(base_work, rel),
                                               os.path.join(head_work, rel))
            return f"{rel}: bytes differ{delta}"
    return None


def compare(base: str, config: str | None = None, work: str = WORK) -> tuple[bool, str]:
    """Run the scope on ``base`` and on this tree: (identical, summary line)."""
    tree = unpack(base, work)
    base_work, head_work = os.path.join(work, "base"), os.path.join(work, "head")
    base_runs, _ = run(tree, base_work, config)
    head_runs, replays = run(ROOT, head_work, config)
    fault = first_difference(base_work, head_work, base_runs, head_runs)
    if fault is not None:
        return False, f"same-bytes: DIFFERS from {base}: {fault}"
    for name, fault in replays.items():
        if fault is not None:
            return False, f"same-bytes: a replay DIFFERS from its seeded solve: {name}: {fault}"
    demos = sum(name.startswith("demo ") for name in head_runs)
    ops = len(head_runs) - demos - len(replays)
    return True, (f"same-bytes: identical to {base}: {len(digests(head_work))} files, "
                  f"{ops} ops" + (f", {len(replays)} replays" if replays else "")
                  + f" and {demos} demos, with the same exit codes, stdout and stderr")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="a git revision or a directory")
    parser.add_argument("--config", default=None,
                        help="run only the five commands on this config")
    args = parser.parse_args(argv)
    same, line = compare(args.base, args.config)
    print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
