"""The config schema: README's config tables, the catalog builders and the
checker's one message form all agree with ``stochtransport.schema``."""

import inspect
import math
import os
import re

import pytest

from stochtransport import drifts, profiles
from stochtransport.errors import ConfigError
from stochtransport.schema import CONFIG, DRIFT, PROFILE, check, check_keys

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_table(first_column: str) -> list:
    """The rows of README's table whose header starts with ``first_column``,
    as lists of cells with their backticks removed."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_column} |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "") for cell in line.strip("|").split("|")])
    return rows


def _want(kind) -> str:
    return kind.want.format(d="d")


class TestReadmeTables:
    def test_top_level_keys(self):
        rows = _readme_table("key")
        assert [(key, kind, required) for key, kind, required, _ in rows] == [
            (key, _want(kind), "yes" if kind.required else "no")
            for key, kind in CONFIG.items()]

    @pytest.mark.parametrize("first_column, kind", [("drift `id`", DRIFT),
                                                    ("profile `id`", PROFILE)])
    def test_catalog_parameters(self, first_column, kind):
        rows = _readme_table(first_column)
        want = []
        for ident, params in kind.catalog.items():
            want += [(ident, key, _want(param), "yes" if param.required else "no")
                     for key, param in params.items() if key != "id"] or [(ident, "", "", "")]
        assert [tuple(row[:4]) for row in rows] == want

    def test_readme_names_every_id(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        for ident in list(DRIFT.catalog) + list(PROFILE.catalog):
            assert f"| `{ident}` |" in text


class TestCatalogBuilders:
    """Each catalog entry's parameters are its builder's keyword arguments."""

    def test_drift_parameters(self):
        builders = {"zero": drifts.zero_drift, "constant": drifts.constant_drift,
                    "linear": drifts.linear_drift, "stream": drifts.stream_function_drift,
                    "shear": drifts.shear_drift, "power1d": drifts.power_drift,
                    "time_modulated": drifts.time_modulated_drift}
        assert set(builders) == set(DRIFT.catalog)
        extra = {"time_modulated": {"horizon"}, "zero": {"d"}}  # not from the spec
        for ident, builder in builders.items():
            names = set(inspect.signature(builder).parameters)
            assert set(DRIFT.catalog[ident]) - {"id"} | extra.get(ident, set()) == names, ident

    def test_profile_parameters(self):
        for ident, params in PROFILE.catalog.items():
            names = set(inspect.signature(getattr(profiles, ident)).parameters)
            assert set(params) - {"id"} | {"d"} == names, ident


class TestMessages:
    @pytest.mark.parametrize("d, spec, message", [
        (1, {"id": "zero", "foo": 1}, "unknown config keys: ['drift.foo']"),
        (1, {"id": "time_modulated", "gain_id": ["ramp"], "base": {"id": "zero"}},
         "drift.gain_id must be one of ['one', 'ramp', 'sin_squared'], got ['ramp']"),
        (1, {"id": ["zero"]}, "drift.id must be one of ['constant', 'linear', 'power1d', "
                              "'shear', 'stream', 'time_modulated', 'zero'], got ['zero']"),
        (2, {"id": "linear", "matrix": [[1.0], [0.0, 1.0]]},
         "drift.matrix must be a 2 x 2 matrix: a list of 2 rows of 2 finite real numbers, "
         "got [[1.0], [0.0, 1.0]]"),
        (1, {"id": "constant", "c": [[1.0]]},
         "drift.c must be a list of 1 finite real numbers, got [[1.0]]"),
        (1, {"id": "linear"}, "missing config keys: ['drift.matrix']"),
        (1, {"alpha": 0.5}, "missing config keys: ['drift.id']"),
        (1, {"id": "time_modulated", "gain_id": "ramp", "base": {"id": "power1d", "alpha": 0.5,
                                                                 "scale": 10**400}},
         f"drift.base.scale must be a finite real number, got {10**400!r}"),
    ], ids=["unknown-parameter", "gain-id-list", "drift-id-list", "ragged-matrix",
            "constant-matrix-in-1d", "missing-matrix", "missing-id", "nested-huge-int"])
    def test_drift_spec(self, d, spec, message):
        with pytest.raises(ConfigError) as info:
            drifts.drift_from_spec(d, 4.0, spec, n=16)
        assert str(info.value) == message

    @pytest.mark.parametrize("spec, message", [
        ({"id": "bump", "d": 2}, "unknown config keys: ['u0.d']"),
        ({"id": "step", "center": [0.0, 1.0, 2.0]},
         "u0.center must be a finite real number or a list of them that broadcasts to 2 "
         "coordinates, got [0.0, 1.0, 2.0]"),
        ({"id": "sinusoid", "mode": 2.5},
         "u0.id must be one of ['bump', 'double_bump', 'step'], got 'sinusoid'"),
        ({"id": {}}, "u0.id must be one of ['bump', 'double_bump', 'step'], got {}"),
    ], ids=["unknown-parameter", "center-of-three", "sinusoid", "id-object"])
    def test_profile_spec(self, spec, message):
        with pytest.raises(ConfigError) as info:
            profiles.profile_from_spec(2, spec)
        assert str(info.value) == message

    def test_the_order_of_faults(self):
        # missing keys first, then each value in the table's order, then unknown keys
        with pytest.raises(ConfigError, match=r"^missing config keys: \['L'\]$"):
            check_keys({"d": "x", "colour": 1}, {"d": CONFIG["d"], "L": CONFIG["L"]})
        with pytest.raises(ConfigError, match="^d must be an integer, got 'x'$"):
            check_keys({"d": "x", "L": math.nan, "colour": 1},
                       {"d": CONFIG["d"], "L": CONFIG["L"]})
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['colour']")):
            check_keys({"d": 1, "L": 4.0, "colour": 1}, {"d": CONFIG["d"], "L": CONFIG["L"]})

    @pytest.mark.parametrize("value, holds", [
        (3, True), (3.0, True), (3.5, False), (True, False), (math.inf, False), ("3", False),
    ])
    def test_an_integer(self, value, holds):
        assert CONFIG["N"].holds(value, 1) is holds

    def test_an_object_spec_names_its_own_path(self):
        with pytest.raises(ConfigError, match=r"^drift must be an object, got \[1\]$"):
            check([1], DRIFT, "drift", 1)
