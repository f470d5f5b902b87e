"""The demos use only the public API.

No test runs the demos, so a removed or renamed public name would break
them silently. Each demo is parsed instead: every ``st.<name>`` must be
in ``stochtransport.__all__``, and every ``from stochtransport.<module>
import <name>`` must resolve.
"""

import ast
import importlib
import pathlib

import pytest

import stochtransport

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_are_public(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "st"}
    assert used, f"{demo.name} does not use the package as st"
    missing = sorted(used - set(stochtransport.__all__))
    assert not missing, f"{demo.name} uses names outside stochtransport.__all__: {missing}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stochtransport"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
