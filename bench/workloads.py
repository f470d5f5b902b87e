"""The three benchmark workloads: generated configs, CLI op sequences, checks.

Every workload is a fixed sequence of ``stochtransport`` CLI commands run
on configs generated here from one seed, which becomes the Brownian path
seed. Each op's outcome is checked against what the program itself wrote:
a PASS/FAIL verdict is recomputed from the op's CSV artifacts, so a
verdict the artifacts do not support marks the output incorrect. Why each
workload exists is recorded in ``bench/NOTES.md``.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass

#: Frozen seeds of the acceptance suite; used when no seed is given.
DEFAULT_SEEDS = {"field2d": 14, "ladder1d": 24, "rough_tm1d": 24}

#: ``cmd_verify_weak``'s default tolerance on the normalized residual.
WEAK_TOL = 0.05

_BUMP = {"id": "bump", "radius": 1.2}
_POWER = {"id": "power1d", "alpha": 0.75, "scale": -1.0}
_SNAPSHOT_FILES = 17  # n_snapshots=16 plus the initial field


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``stochtransport <command> --config <config> --out <out>``."""

    label: str
    command: str
    config: str
    out: str

    @property
    def marches(self) -> bool:
        """Ops that run the transport marcher (counted in ``march_s``)."""
        return self.command in ("solve", "uniqueness", "wong-zakai")


def configs(workload: str, seed: int) -> dict:
    """The JSON configs of a workload, keyed by config name."""
    if workload == "field2d":
        return {"run": {
            "d": 2, "L": 4.0, "N": 128, "T": 1.0, "dt": 1.0 / 256,
            "scheme": "semi_lagrangian", "p": 2.0, "seed": seed,
            "drift": {"id": "stream", "amplitude": 1.0}, "u0": _BUMP,
        }}
    if workload == "ladder1d":
        return {"run": {
            "d": 1, "L": 4.0, "N": 256, "T": 1.0, "dt": 1.0 / 2048,
            "scheme": "semi_lagrangian", "p": 2.0, "seed": seed,
            "drift": _POWER, "u0": _BUMP,
        }}
    if workload == "rough_tm1d":
        sl = {
            "d": 1, "L": 4.0, "N": 256, "T": 1.0, "dt": 1.0 / 1024,
            "scheme": "semi_lagrangian", "p": 2.0, "seed": seed,
            "drift": {"id": "time_modulated", "base": _POWER, "gain_id": "sin_squared"},
            "u0": _BUMP,
        }
        return {"sl": sl, "upwind": dict(sl, scheme="upwind_fv")}
    raise KeyError(workload)


def ops(workload: str) -> list[Op]:
    """The op sequence of a workload, in run order."""
    if workload == "field2d":
        return [Op("solve", "solve", "run", "run"),
                Op("verify-weak", "verify-weak", "run", "run"),
                Op("hypotheses", "hypotheses", "run", "hyp")]
    if workload == "ladder1d":
        return [Op("uniqueness", "uniqueness", "run", "uniq"),
                Op("wong-zakai", "wong-zakai", "run", "wz"),
                Op("hypotheses", "hypotheses", "run", "hyp")]
    if workload == "rough_tm1d":
        return [Op("solve-sl", "solve", "sl", "sl"),
                Op("solve-upwind", "solve", "upwind", "upwind"),
                Op("verify-weak", "verify-weak", "sl", "sl"),
                Op("hypotheses", "hypotheses", "sl", "hyp")]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# outcome checks


class OutputError(Exception):
    """An op's printed result disagrees with its artifacts, or artifacts are missing."""


def _rows(path) -> list[dict]:
    if not os.path.isfile(path):
        raise OutputError(f"missing artifact {os.path.basename(path)}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _field_values(path) -> list[float]:
    if not os.path.isfile(path):
        raise OutputError(f"missing artifact {os.path.basename(path)}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[2:]  # grid header, column names
    return [float(line.rsplit(",", 1)[1]) for line in lines]


def _match(pattern: str, stdout: str) -> re.Match:
    m = re.search(pattern, stdout)
    if m is None:
        raise OutputError(f"no line matching {pattern!r} in output {stdout!r}")
    return m


def _verdict(passed: bool, exit_code: int, label: str) -> None:
    if exit_code != (0 if passed else 1):
        raise OutputError(f"{label}: artifacts say {'PASS' if passed else 'FAIL'}, "
                          f"command exited {exit_code}")


def _check_solve(out_dir, stdout, exit_code) -> dict:
    _match(rf"solve: wrote {_SNAPSHOT_FILES} snapshots", stdout)
    if exit_code != 0:
        raise OutputError(f"solve exited {exit_code}")
    for m in range(_SNAPSHOT_FILES):
        for frame in ("u", "v"):
            if not os.path.isfile(os.path.join(out_dir, f"{frame}_t{m:04d}.csv")):
                raise OutputError(f"missing snapshot {frame}_t{m:04d}.csv")
    norms = [float(r["lp_norm"]) for r in _rows(os.path.join(out_dir, "norms.csv"))]
    _rows(os.path.join(out_dir, "manifest.csv"))
    _rows(os.path.join(out_dir, "path.csv"))
    if len(norms) != _SNAPSHOT_FILES or not norms[0] > 0:
        raise OutputError(f"norms.csv holds {len(norms)} rows, first {norms[:1]}")
    return {"norm_drift_rel": max(abs(n - norms[0]) for n in norms) / norms[0]}


def _check_verify_weak(out_dir, stdout, exit_code) -> dict:
    m = _match(r"(PASS|FAIL) verify-weak: max normalized residual (\S+)", stdout)
    rows = _rows(os.path.join(out_dir, "weak_report.csv"))
    worst = max(abs(float(r["residual"])) / float(r["normalizer"]) for r in rows)
    if not math.isclose(float(m.group(2)), worst, rel_tol=1.0e-5):
        raise OutputError(f"verify-weak printed {m.group(2)}, weak_report.csv gives {worst!r}")
    passed = worst <= WEAK_TOL
    if (m.group(1) == "PASS") != passed:
        raise OutputError(f"verify-weak printed {m.group(1)} for residual {worst!r}")
    _verdict(passed, exit_code, "verify-weak")
    return {"weak_residual_max": worst}


def _ladder_errors(path) -> list[float]:
    return [float(r["error"]) for r in _rows(path)]


def _check_uniqueness(out_dir, stdout, exit_code) -> dict:
    m = _match(r"(PASS|FAIL) uniqueness: scheme discrepancy", stdout)
    errors = _ladder_errors(os.path.join(out_dir, "crosscheck.csv"))
    tail = errors[-3:]
    passed = all(a > b or a == b == 0.0 for a, b in zip(tail, tail[1:]))
    if (m.group(1) == "PASS") != passed:
        raise OutputError(f"uniqueness printed {m.group(1)} for ladder {errors}")
    _verdict(passed, exit_code, "uniqueness")
    return {"uniq_final_disc": errors[-1]}


def _check_wong_zakai(out_dir, stdout, exit_code) -> dict:
    m = _match(r"(PASS|FAIL) wong-zakai: errors .* = (\S+)\)", stdout)
    tol = float(m.group(2))
    errors = _ladder_errors(os.path.join(out_dir, "wong_zakai.csv"))
    tail = errors[-4:]
    # the printed tolerance carries 4 significant digits
    passed = (all(a >= b for a, b in zip(tail, tail[1:]))
              and errors[-1] <= tol * (1.0 + 1.0e-3))
    if (m.group(1) == "PASS") != passed:
        raise OutputError(f"wong-zakai printed {m.group(1)} for ladder {errors}, tol {tol}")
    _verdict(passed, exit_code, "wong-zakai")
    return {"wz_final_err": errors[-1], "wz_tol": tol}


def _check_hypotheses(out_dir, stdout, exit_code, d: int) -> dict:
    m = _match(r"(PASS|FAIL) hypotheses\[[^\]]+\]: div_bound=\S+ \(ok=(\w+)\) "
               r"lq=\S+ \(ok=(\w+)\) w1q=\S+ \(ok=(\w+)\) growth=\S+ \(ok=(\w+)\)", stdout)
    printed = [v == "True" for v in m.groups()[1:]]
    rows = _rows(os.path.join(out_dir, "hypotheses.csv"))
    written = [r["ok"] == "true" for r in rows]
    if printed != written:
        raise OutputError(f"hypotheses printed {printed}, hypotheses.csv holds {written}")
    # 2D stream drift is smooth and divergence free; |div b| of the 1D power
    # drift is unbounded at the origin, so only the div_bound check may fail.
    expected = [True, True, True, True] if d == 2 else [False, True, True, True]
    if printed != expected:
        raise OutputError(f"hypotheses verdicts {printed}, expected {expected}")
    _verdict(all(printed), exit_code, "hypotheses")
    return {}


def check_op(workload: str, op: Op, cycle_dir, stdout: str, exit_code: int) -> dict:
    """Validate one op's output; return the accuracy values it yields.

    Raises ``OutputError`` when the output is wrong or incomplete.
    """
    out_dir = os.path.join(cycle_dir, op.out)
    if op.command == "solve":
        return _check_solve(out_dir, stdout, exit_code)
    if op.command == "verify-weak":
        return _check_verify_weak(out_dir, stdout, exit_code)
    if op.command == "uniqueness":
        return _check_uniqueness(out_dir, stdout, exit_code)
    if op.command == "wong-zakai":
        return _check_wong_zakai(out_dir, stdout, exit_code)
    return _check_hypotheses(out_dir, stdout, exit_code, 2 if workload == "field2d" else 1)


def scheme_discrepancy(cycle_dir) -> float:
    """max_m |u_SL(t_m) - u_upwind(t_m)|_2 / |u0|_2 over the rough_tm1d snapshots."""
    def norm(vals):
        return math.sqrt(math.fsum(v * v for v in vals))

    worst = 0.0
    u0 = None
    for m in range(_SNAPSHOT_FILES):
        a = _field_values(os.path.join(cycle_dir, "sl", f"u_t{m:04d}.csv"))
        b = _field_values(os.path.join(cycle_dir, "upwind", f"u_t{m:04d}.csv"))
        if u0 is None:
            u0 = norm(a)
        worst = max(worst, norm([x - y for x, y in zip(a, b)]))
    return worst / u0
