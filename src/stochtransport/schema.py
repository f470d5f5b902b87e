"""The config schema: the kind of every config value, in one table, and its checker.

A run config holds the keys of :data:`CONFIG`; its ``drift`` and ``u0``
hold an ``id`` of :data:`DRIFTS` or :data:`PROFILES` and that id's
parameters. A fault is a ``ConfigError`` naming the key path, as in
``u0.amplitude must be a finite real number, got inf``. The rules that
tie keys together are checked where the config is built.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple

from .errors import ConfigError

__all__ = ["Kind", "CONFIG", "SCHEMES", "DRIFTS", "PROFILES", "DRIFT", "PROFILE", "check",
           "check_keys"]


class Kind(NamedTuple):
    """What a config value must be, in words (``want``, where ``{d}`` is the
    dimension) and as a rule (``holds(value, d)``); whether its key must be
    given; and, for an object with an ``id``, the keys of each id."""

    want: str
    holds: Callable[[object, int], bool]
    required: bool = False
    catalog: dict | None = None


def _finite(value, d=None) -> bool:
    """One finite real number, not a bool."""
    try:  # the exact types spare JSON's numbers the slower checks
        return ((type(value) in (float, int) or isinstance(value, numbers.Real)
                 and not isinstance(value, bool)) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _integral(value, d=None) -> bool:
    """An integral number, not a bool: 3 or 3.0, not 3.5."""
    return type(value) is int or not isinstance(value, bool) and (
        isinstance(value, float) and value.is_integer() or isinstance(value, numbers.Integral))


def _list_of(value, n, rule) -> bool:
    """A list of ``n`` entries, or of any number when ``n`` is None, each meeting ``rule``."""
    return (isinstance(value, (list, tuple)) and (n is None or len(value) == n)
            and all(map(rule, value)))


def _one_of(ids) -> Kind:
    """One of ``ids``, a required key: a catalog object's id, a gain id or a scheme."""
    return Kind(f"one of {sorted(ids)}", lambda v, d: isinstance(v, str) and v in ids,
                required=True)


def _catalog(params: dict) -> dict:
    """The key table of each id of a catalog: the ``id``, then the parameters."""
    ident = _one_of(params)
    return {name: {"id": ident, **kinds} for name, kinds in params.items()}


def _need(kind: Kind) -> Kind:
    return kind._replace(required=True)


INTEGER = Kind("an integer", _integral)
REAL = Kind("a finite real number", _finite)
STRING = Kind("a string", lambda v, d: isinstance(v, str))
OBJECT = Kind("an object", lambda v, d: isinstance(v, dict))
VECTOR = Kind("a list of {d} finite real numbers", lambda v, d: _list_of(v, d, _finite))
MATRIX = Kind("a {d} x {d} matrix: a list of {d} rows of {d} finite real numbers",
              lambda v, d: _list_of(v, d, lambda row: _list_of(row, d, _finite)))
CENTER = Kind("a finite real number or a list of them that broadcasts to {d} coordinates",
              lambda v, d: _finite(v) or _list_of(v, 1, _finite) or _list_of(v, d, _finite))

#: The advection schemes of a solve.
SCHEMES = ("semi_lagrangian", "upwind_fv")

#: The gains g(t) a ``time_modulated`` drift may take: 1, sin(pi t / T)^2, t / T.
GAIN_IDS = ("one", "sin_squared", "ramp")

#: The catalog drifts: the kind of each key of each id.
DRIFTS = {}
DRIFT = Kind("an object", OBJECT.holds, catalog=DRIFTS)
DRIFTS.update(_catalog({
    "zero": {},
    "constant": {"c": VECTOR},
    "linear": {"matrix": _need(MATRIX)},
    "stream": {"half_width": REAL, "amplitude": REAL},
    "shear": {"half_width": REAL, "amplitude": REAL},
    "power1d": {"alpha": _need(REAL), "scale": REAL},
    "time_modulated": {"base": _need(DRIFT), "gain_id": _one_of(GAIN_IDS)},
}))

#: The catalog initial-data profiles: the kind of each key of each id.
PROFILES = _catalog({
    "bump": {"center": CENTER, "radius": REAL, "amplitude": REAL},
    "double_bump": {
        "centers": Kind(f"two centers, each {CENTER.want}",
                        lambda v, d: _list_of(v, 2, lambda c: CENTER.holds(c, d))),
        "radius": REAL,
        "amplitudes": Kind("two finite real numbers", lambda v, d: _list_of(v, 2, _finite))},
    "step": {"center": CENTER, "half_width": REAL, "amplitude": REAL},
})
PROFILE = Kind("an object", OBJECT.holds, catalog=PROFILES)

#: The keys of a run config; its drift and u0 meet DRIFT and PROFILE once d is valid.
CONFIG = {
    "d": _need(INTEGER), "L": _need(REAL), "N": _need(INTEGER), "T": _need(REAL),
    "dt": _need(REAL), "scheme": _one_of(SCHEMES), "p": _need(REAL), "seed": _need(INTEGER),
    "drift": _need(OBJECT), "u0": _need(OBJECT),
    "phi_count": INTEGER,
    "wz_levels": Kind("a list of integers", lambda v, d: _list_of(v, None, _integral)),
    "mollify_eps": Kind("a finite real number >= 0 or null",
                        lambda v, d: v is None or _finite(v) and v >= 0),
    "out_dir": STRING,
}


def check(value, kind: Kind, path: str, d: int = 0) -> None:
    """Raise ``ConfigError`` naming ``path`` unless ``value`` is of ``kind``
    in dimension ``d``. An object with an ``id`` is checked key by key
    (:func:`check_keys`) against the key table of its id; while its id is
    missing or unknown, the id alone is checked."""
    if not kind.holds(value, d):
        raise ConfigError(f"{path} must be {kind.want.format(d=d)}, got {value!r}")
    if kind.catalog is not None:
        ident = value.get("id")
        keys = kind.catalog.get(ident) if isinstance(ident, str) else None
        check_keys(value, keys or {"id": next(iter(kind.catalog.values()))["id"]}, path, d)


def check_keys(raw: dict, keys: dict, path: str = "", d: int = 0) -> None:
    """Check the object ``raw`` against ``keys``, the kind of each key it may
    hold: that every required key is there, then each value in the order of
    ``keys``, then that ``raw`` holds no other key. ``path`` is the key path
    of ``raw`` itself, empty for a whole config."""
    name = f"{path}." if path else ""
    missing, further = [], []  # one pass finds the keys to report or to check further
    for key, kind in keys.items():
        if key not in raw:
            if kind.required:
                missing.append(name + key)
        elif kind.catalog is not None or not kind.holds(raw[key], d):
            further.append(key)
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for key in further:
        check(raw[key], keys[key], name + key, d)
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {[name + key for key in sorted(unknown)]}")
