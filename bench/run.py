"""Benchmark of the stochtransport CLI on three study workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {field2d,ladder1d,rough_tm1d,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each cycle runs the workload's op sequence in one fresh single-threaded
Python process (``bench/child.py``) on configs generated from the seed.
Cycles repeat until ``--seconds`` of measurement are spent (at least
two, so every op's artifact tree can be compared across runs of the same
seed). Set-up is also timed in extra processes that only import and load
the configs, after one unmeasured warm-up process.

``--trace 0`` reports the end-to-end metrics: medians over cycles. The
gated times are in units of a reference kernel timed in the same process
(see ``child.py`` and ``NOTES.md``); the seconds are printed for reading.
``--trace 1`` runs one untraced and one traced cycle and reports the
per-layer metrics of the traced one. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Notes on the workloads are in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple

from workloads import DEFAULT_SEEDS, OutputError, check_op, configs, ops, scheme_discrepancy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SETUP_PROCESSES = 3
MIN_CYCLES = 2
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Gated metrics. ``*_rel`` are op seconds over the mean time of the
#: reference kernel that ``child.py`` runs in the same process (unit "ref").
END_TO_END = {"wall_rel": "ref", "march_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> reported fields: calls, s (outermost-call total) or self_s
_SPAN_METRICS = [
    ("paths.eval_path", ("calls", "s")),
    ("drifts.eval_drift", ("calls", "s")),
    ("drifts.check_hypotheses", ("s",)),
    ("drifts.divergence_of", ("s",)),
    ("transport.solve_transport", ("s",)),
    ("transport.semi_lagrangian_step", ("calls", "self_s")),
    ("transport.upwind_fv_step", ("calls", "self_s")),
    ("transport.cfl_number", ("s",)),
    ("transport.mollified_drift", ("calls", "s")),
    ("transport.mollified_fn", ("calls", "s")),
    ("fields.interpolate", ("calls", "s")),
    ("fields.SpatialGrid.nodes", ("calls", "s")),
    ("fields.ScalarField.new", ("calls",)),
    ("fields.shift_field", ("s",)),
    ("fields.lp_norm", ("calls", "s")),
    ("fields.write_field_csv", ("s",)),
    ("fields.read_field_csv", ("s",)),
    ("paths.write_path_csv", ("s",)),
    ("paths.read_path_csv", ("s",)),
    ("weakform.write_weak_report_csv", ("s",)),
    ("spde.solve_spde", ("calls", "s", "self_s")),
    ("spde.solve_spde_wong_zakai", ("calls", "s", "self_s")),
    ("weakform.weak_residual", ("s", "self_s")),
    ("experiments.ExperimentConfig.from_json", ("s",)),
    ("experiments.cmd_solve", ("self_s",)),
    ("experiments.cmd_verify_weak", ("self_s",)),
    ("experiments.cmd_uniqueness_crosscheck", ("self_s",)),
    ("experiments.cmd_wong_zakai", ("self_s",)),
    ("experiments.cmd_hypotheses", ("self_s",)),
]
_COUNT_METRICS = ["fields.interpolate.points", "fields.write_field_csv.bytes",
                  "fields.read_field_csv.bytes"]
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "points": "count", "bytes": "bytes"}


def per_layer_names() -> dict:
    """Every per-layer metric with its unit, in report order."""
    names = {}
    for span, fields in _SPAN_METRICS:
        for f in fields:
            names[f"{span}.{f}"] = _UNITS[f]
    for name in _COUNT_METRICS:
        names[name] = _UNITS[name.rsplit(".", 1)[1]]
    names["fields.interpolate.ns_per_point"] = "ns"
    names["experiments.artifact_bytes"] = "bytes"
    names["cli.import_s"] = "s"
    names["trace_overhead_frac"] = "frac"
    return names


# ---------------------------------------------------------------------------
# processes


def _child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict layout in every cycle's process
    return env


def _run_child(root, work, tag, cfg_paths, op_list, cycle_dir, trace) -> dict:
    spec_path = os.path.join(work, f"{tag}.spec.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    spec = {"configs": cfg_paths, "trace": trace, "cycle_dir": cycle_dir,
            "result": result_path,
            "ops": [[o.label, o.command, o.config, o.out] for o in op_list]}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                          cwd=root, env=_child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process {tag} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _tree_digest(cycle_dir, files) -> str:
    digest = hashlib.sha256()
    for rel in files:
        digest.update(rel.encode())
        with open(os.path.join(cycle_dir, rel), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# one workload


class Outcome(NamedTuple):
    """One attempted op (or check). ``correct`` is false when output was wrong."""

    cycle: int
    label: str
    ok: bool
    correct: bool
    note: str


class WorkloadRun:
    """All cycles of one workload at one seed, with their checks."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.ops = ops(workload)
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{os.getpid()}")
        self.cycles = []       # child results of measured cycles, untraced first
        self.setups = []       # setup_s samples
        self.outcomes: list[Outcome] = []
        self.accuracy = {}
        self.digests = {}
        self.env = {}

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cfg_paths = {}
        for name, cfg in configs(self.workload, self.seed).items():
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
            self.cfg_paths[name] = path
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
        return False

    def setup_only(self, tag) -> dict:
        return _run_child(self.root, self.work, tag, self.cfg_paths, [], self.work, False)

    def cycle(self, trace: bool) -> dict:
        index = len(self.cycles)
        cycle_dir = os.path.join(self.work, f"cycle{index}")
        os.makedirs(cycle_dir)
        res = _run_child(self.root, self.work, f"cycle{index}", self.cfg_paths,
                         self.ops, cycle_dir, trace)
        self._verify_package(res)
        self.env = res["env"]
        self.setups.append(res["setup_s"])
        res["artifact_bytes"] = sum(
            os.path.getsize(os.path.join(dp, n))
            for dp, _, names in os.walk(cycle_dir) for n in names)
        for op, rec in zip(self.ops, res["ops"]):
            self._check(index, op, rec, cycle_dir)
        if self.workload == "rough_tm1d":
            try:
                self.accuracy["scheme_disc_rel"] = scheme_discrepancy(cycle_dir)
            except OutputError as exc:
                self.outcomes.append(Outcome(index, "scheme-discrepancy", False, False, str(exc)))
        shutil.rmtree(cycle_dir)
        self.cycles.append(res)
        return res

    def _verify_package(self, res) -> None:
        expected = os.path.join(self.root, "src", "stochtransport")
        if os.path.realpath(res["package"]) != os.path.realpath(expected):
            raise RuntimeError(f"imported stochtransport from {res['package']}, "
                               f"expected {expected}")

    def _check(self, index, op, rec, cycle_dir) -> None:
        code = rec["exit_code"]
        if code not in (0, 1):
            # the command ended in a config or runtime error: a failed op
            note = (rec["stderr"].strip().splitlines() or [f"exit {code}"])[-1]
            self.outcomes.append(Outcome(index, op.label, False, True, f"exit {code}: {note}"))
            return
        try:
            values = check_op(self.workload, op, cycle_dir, rec["stdout"], code)
        except OutputError as exc:
            self.outcomes.append(Outcome(index, op.label, False, False, str(exc)))
            return
        self.accuracy.update({f"{op.label}.{k}": v for k, v in values.items()})
        digest = _tree_digest(cycle_dir, rec["files"])
        first = self.digests.setdefault(op.label, digest)
        if digest != first:
            self.outcomes.append(Outcome(index, op.label, False, False,
                                         "artifact tree differs from the first cycle"))
            return
        verdict = rec["stdout"].strip().splitlines()[-1] if rec["stdout"].strip() else ""
        self.outcomes.append(Outcome(index, op.label, True, True, f"exit {code}: {verdict}"))

    # -- summaries ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def correct(self) -> bool:
        return all(o.correct for o in self.outcomes)

    def op_seconds(self, cycles, pick) -> list:
        return [sum(rec["seconds"] for op, rec in zip(self.ops, c["ops"]) if pick(op))
                for c in cycles]


def _measure(run: WorkloadRun, seconds: float) -> list:
    """Untraced cycles until the next one would overrun ``seconds``."""
    start = perf_counter()
    measured = []
    while True:
        measured.append(run.cycle(trace=False))
        elapsed = perf_counter() - start
        if len(measured) >= MIN_CYCLES and elapsed * (1 + 1 / len(measured)) > seconds:
            return measured


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.4f} max {max(values):.4f} n={len(values)}"


def end_to_end(run: WorkloadRun, seconds: float):
    run.setup_only("warmup")  # compiles bytecode; not measured
    for i in range(SETUP_PROCESSES):
        run.setups.append(run.setup_only(f"setup{i}")["setup_s"])
    cycles = _measure(run, seconds)
    wall = run.op_seconds(cycles, lambda op: True)
    march = run.op_seconds(cycles, lambda op: op.marches)
    reference = [statistics.fmean(c["reference_s"]) for c in cycles]
    samples = {
        "wall_rel": [w / r for w, r in zip(wall, reference)],
        "march_rel": [m / r for m, r in zip(march, reference)],
        "setup_s": run.setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in cycles],
    }
    report = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
              for name, v in samples.items()}
    # seconds and per-command medians, printed for reading
    samples.update({"wall_s": wall, "march_s": march, "reference_s": reference})
    for c in cycles:
        for rec in c["ops"]:
            samples.setdefault(rec["label"] + "_s", []).append(rec["seconds"])
    lines = [f"  {name:<16} {statistics.median(v):.4f} "
             f"{END_TO_END.get(name, 's'):<3} median, {_spread(v)}"
             for name, v in samples.items()]
    return report, lines


def per_layer(run: WorkloadRun):
    base = run.cycle(trace=False)
    traced = run.cycle(trace=True)
    wall = sum(r["seconds"] for r in traced["ops"])
    untraced = sum(r["seconds"] for r in base["ops"])
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]
    report = {}
    for name, unit in per_layer_names().items():
        span, _, field = name.rpartition(".")
        if span in spans and field in ("calls", "s", "self_s"):
            calls, total, self_s = spans[span]
            value = {"calls": calls, "s": total, "self_s": self_s}[field]
        else:
            value = counts.get(name, 0)
        report[name] = {"value": value, "unit": unit}
    points = counts.get("fields.interpolate.points", 0)
    interp_s = spans.get("fields.interpolate", [0, 0.0, 0.0])[1]
    report["fields.interpolate.ns_per_point"]["value"] = 1e9 * interp_s / points if points else 0.0
    report["experiments.artifact_bytes"]["value"] = traced["artifact_bytes"]
    report["cli.import_s"]["value"] = traced["import_s"]
    # in reference units, so a drift in machine speed between the cycles cancels
    report["trace_overhead_frac"]["value"] = (
        (wall / statistics.fmean(traced["reference_s"]))
        / (untraced / statistics.fmean(base["reference_s"])) - 1.0)
    # the top-level command spans must account for the traced wall time
    main_s = spans.get("cli.main", [0, 0.0, 0.0])[1]
    covered = abs(main_s - wall) <= 0.01 * wall + 0.01
    run.outcomes.append(Outcome(len(run.cycles) - 1, "span-sum", covered, covered,
                                f"cli.main spans {main_s:.4f} s vs traced wall {wall:.4f} s"))
    lines = [f"  traced wall {wall:.4f} s, untraced {untraced:.4f} s, "
             f"cli.main spans {main_s:.4f} s, all root spans {trace['root_s']:.4f} s"]
    lines += [f"  {name:<48} {m['value']:.6g} {m['unit']}" for name, m in report.items()]
    return report, lines


def run_workload(root, workload, seed, seconds, trace):
    with WorkloadRun(root, workload, seed) as run:
        report, lines = per_layer(run) if trace else end_to_end(run, seconds)
    print(f"workload {workload} seed {seed}: {len(run.cycles)} cycles, "
          f"{len(run.setups)} set-ups, {'traced' if trace else 'untraced'}")
    for o in run.outcomes:
        status = "ok" if o.ok else ("FAILED" if o.correct else "FAILED, WRONG OUTPUT")
        print(f"  cycle {o.cycle} {o.label:<13} {status}: {o.note}")
    if run.accuracy:
        print("  accuracy " + " ".join(f"{k}={v:.6g}" for k, v in sorted(run.accuracy.items())))
    print(f"  ops_failed_frac {run.failed / run.attempted:.4f} "
          f"({run.failed} of {run.attempted})")
    for line in lines:
        print(line)
    env = dict(run.env, nproc=os.cpu_count(), cpu=_cpu_model(), blas_omp_threads=1)
    print("  env " + json.dumps(env, sort_keys=True))
    return run, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="path seed; default 14 for 2D and 24 for 1D workloads")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stochtransport", "cli.py")):
        print("error: run from the root of a stochtransport checkout "
              "(src/stochtransport/cli.py not found)", file=sys.stderr)
        return 2
    names = sorted(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        results.append((name,) + run_workload(root, name, seed, args.seconds, bool(args.trace)))
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}.{k}": v for name, _, report in results for k, v in report.items()}
    print(json.dumps({
        "correct": all(run.correct for _, run, _ in results),
        "attempted": sum(run.attempted for _, run, _ in results),
        "failed": sum(run.failed for _, run, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
