"""One fresh benchmark process: import, load configs, run the CLI ops.

Usage: ``python3 bench/child.py SPEC.json``. The spec (written by
``bench/run.py``) names the configs, the ops and the result file. The
process times ``import stochtransport.cli`` plus ``from_json`` on every
config (set-up), then each op as one ``stochtransport.cli.main(argv)``
call, and writes its timings, exit codes, captured output, the files each
op created and its peak RSS to the result file. A fixed reference kernel
is timed before each op and after the last one. With ``"trace": true``
the layers are wrapped by ``tracer.Tracer`` after the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter


def _files(root) -> set:
    found = set()
    for dirpath, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(dirpath, n), root) for n in names)
    return found


def _reference_kernel():
    """A fixed mix of numpy and interpreter-bound work; returns a timer.

    The timer runs next to the ops, in the same process, so that op times
    can also be given in units of its seconds. On a shared machine whose
    speed drifts by tens of percent within minutes, that ratio repeats far
    better from run to run than the seconds do. The mix mirrors the
    workloads: numpy calls on short arrays (the 1D marches), gathers over
    long arrays (the 2D march), float formatting (the CSV artifacts) and
    plain Python arithmetic.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    long_values = rng.random(65536)
    long_index = rng.integers(0, long_values.size, long_values.size)
    short_values = rng.random(256)
    short_index = rng.integers(0, short_values.size, short_values.size)

    def timed() -> float:
        start = perf_counter()
        for _ in range(5000):
            np.take(short_values, short_index) * short_values + np.sin(short_values)
        for _ in range(60):
            np.take(long_values, long_index) * long_values + np.sin(long_values)
        ",".join(repr(float(v)) for v in long_values[:40000])
        acc = 0.0
        for i in range(200_000):
            acc += (i % 7) * 0.5
        return perf_counter() - start

    return timed


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = perf_counter()
    import stochtransport.cli as cli
    import_s = perf_counter() - start

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = perf_counter()
    for path in spec["configs"].values():
        cli.ExperimentConfig.from_json(path)
    from_json_s = perf_counter() - start

    import numpy
    import scipy
    result = {
        "import_s": import_s,
        "setup_s": import_s + from_json_s,
        "package": os.path.dirname(cli.__file__),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
        "ops": [],
        "reference_s": [],
    }
    reference = _reference_kernel()
    cycle_dir = spec["cycle_dir"]
    for label, command, config, out in spec["ops"]:
        result["reference_s"].append(reference())
        argv = [command, "--config", spec["configs"][config],
                "--out", os.path.join(cycle_dir, out)]
        before = _files(cycle_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.main(argv)
        elapsed = perf_counter() - start
        result["ops"].append({
            "label": label, "seconds": elapsed, "exit_code": exit_code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": sorted(_files(cycle_dir) - before),
        })
    if spec["ops"]:
        result["reference_s"].append(reference())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = {
            "root_s": tracer.root_time,
            "spans": {name: [s.calls, s.total, s.self_time]
                      for name, s in tracer.stats.items()},
            "counts": tracer.counts,
        }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
