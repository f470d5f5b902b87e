"""``tools/same_bytes.py``: a tree reads identical to itself, one ulp is seen, and a
replay that differs from its seeded solve is named.

The tool is read from source (no bytecode is written). Its smoke run
takes the five commands of one small 1D config in both trees, ten fresh
processes, in a few seconds.
"""

import json
import os
import runpy
import shutil

import numpy as np

from stochtransport.experiments import ExperimentConfig, cmd_solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = runpy.run_path(os.path.join(ROOT, "tools", "same_bytes.py"), run_name="same_bytes")

SMALL = {
    "d": 1, "L": 4.0, "N": 64, "T": 0.25, "dt": 0.25 / 16, "scheme": "semi_lagrangian",
    "p": 1.0, "seed": 3, "drift": {"id": "zero"},
    "u0": {"id": "bump", "center": 0.0, "radius": 1.0}, "wz_levels": [4, 8, 16],
}


def test_the_working_tree_reads_identical_to_itself(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    same, line = TOOL["compare"](ROOT, str(config), work=str(tmp_path / "work"))
    assert same, line
    # 38 files of solve and verify-weak, 2 of uniqueness, 2 of wong-zakai, 1 of
    # hypotheses, and the config
    assert line == (f"same-bytes: identical to {ROOT}: 44 files, 5 ops and 0 demos, "
                    "with the same exit codes, stdout and stderr")


def test_a_snapshot_value_moved_by_one_ulp_is_named(tmp_path):
    cmd_solve(ExperimentConfig.from_dict(SMALL), out_dir=tmp_path / "base" / "run")
    shutil.copytree(tmp_path / "base", tmp_path / "head")
    target = tmp_path / "head" / "run" / "u_t0003.csv"
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    row = max((k for k, line in enumerate(lines) if line[:1].isdigit()),
              key=lambda k: float(lines[k].rsplit(",", 1)[1]))
    head, _, cell = lines[row].rpartition(",")
    value = float(cell)
    moved = float(np.nextafter(value, np.inf))
    lines[row] = f"{head},{moved!r}\n"
    target.write_text("".join(lines), encoding="utf-8")
    fault = TOOL["first_difference"](str(tmp_path / "base"), str(tmp_path / "head"), {}, {})
    assert fault == (f"{os.path.join('run', 'u_t0003.csv')}: bytes differ, "
                     f"largest |delta| {moved - value!r}")


def test_a_replay_that_differs_from_its_seeded_solve_is_named(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    cmd_solve(cfg, out_dir=tmp_path / "run")
    cmd_solve(cfg, out_dir=tmp_path / "run_replay", path_file=tmp_path / "run" / "path.csv")
    assert TOOL["replay_difference"](str(tmp_path), "run", "run_replay") is None
    target = tmp_path / "run_replay" / "norms.csv"
    target.write_bytes(target.read_bytes() + b"\n")
    assert TOOL["replay_difference"](str(tmp_path), "run", "run_replay") == (
        f"{os.path.join('run_replay', 'norms.csv')}: bytes differ")
    target.unlink()
    assert TOOL["replay_difference"](str(tmp_path), "run", "run_replay") == (
        f"{os.path.join('run_replay', 'norms.csv')}: written by one run only")
