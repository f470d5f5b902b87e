"""Shared helpers for building closed-form reference solutions in tests."""

import hashlib
import os

import numpy as np

from stochtransport.fields import ScalarField
from stochtransport.paths import eval_path
from stochtransport.spde import SNAPSHOT_INTERVALS, SpdeSolution


def tree_digest(root) -> dict:
    """File name to sha256 map over a flat artifact directory."""
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def closed_form_translation(grid, profile, path, n_snapshots=SNAPSHOT_INTERVALS):
    """Analytic pure-noise solution u(t, x) = u0(x - W(t)) on snapshot times."""
    times = np.linspace(0.0, path.horizon, n_snapshots + 1)
    fields = []
    for t in times:
        delta = eval_path(path, float(t))
        fields.append(
            ScalarField.from_function(grid, lambda q, dd=delta: profile.fn(q - dd))
        )
    return SpdeSolution(tuple(fields), path)
