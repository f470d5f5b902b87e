"""The demos run, and use only the public API.

Each demo runs to completion in its own interpreter, with ``src`` on
``PYTHONPATH`` (about 20 s for all six). Each is also parsed: every
``st.<name>`` must be in ``stochtransport.__all__``, as must every
``st.<name>`` the README mentions, and every ``from
stochtransport.<module> import <name>`` must resolve, as must every
``module.name`` in a docstring or the README. Every name in the
package's and each module's ``__all__`` must resolve too, the README's
code fences must pair up, and no module imports a name it never uses.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import stochtransport

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_every_public_name_resolves():
    # bench/tracer.py wraps each module's __all__ through getattr; a stale
    # entry would crash a traced benchmark run.
    modules = [stochtransport] + [
        importlib.import_module(f"stochtransport.{path.stem}")
        for path in sorted((ROOT / "src" / "stochtransport").glob("*.py"))
        if not path.stem.startswith("__")]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_readme_names_are_public():
    # A name deleted from the package must leave the README with it.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bst\.([A-Za-z_]\w*)", text))
    assert named, "README.md names no st.<name>"
    missing = sorted(named - set(stochtransport.__all__))
    assert not missing, f"README.md names st.<name> outside stochtransport.__all__: {missing}"


#: The package's modules, by the name a docstring gives them: ``fields._Workspace``.
MODULES = {path.stem: importlib.import_module(f"stochtransport.{path.stem}")
           for path in sorted((ROOT / "src" / "stochtransport").glob("*.py"))
           if not path.stem.startswith("__")}


def _docstrings():
    """(module, scopes, docstring) of every module, class and function of the
    package, with the namespaces a name in the docstring may live in: its
    class, if any, then its module."""
    for path in sorted((ROOT / "src" / "stochtransport").glob("*.py")):
        module = MODULES.get(path.stem, stochtransport)

        def walk(node, scopes):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield module.__name__, scopes, doc
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, [getattr(scopes[0], child.name)] + scopes)
                elif isinstance(child, ast.FunctionDef):
                    yield from walk(child, scopes)

        yield from walk(ast.parse(path.read_text(encoding="utf-8")), [module])


def _resolves(name: str, scopes) -> bool:
    head, *rest = name.split(".")
    for scope in scopes + [MODULES]:
        obj = scope.get(head) if isinstance(scope, dict) else getattr(scope, head, None)
        if obj is not None:
            for part in rest:
                obj = getattr(obj, part, None)
            return obj is not None
    return False


def test_docstring_references_resolve():
    # Docstrings point to the function that states an argument, so a renamed
    # or deleted name must take its pointers with it. Checked: ``module.name``
    # of a package module or of a name in scope, ``_private_name``, and
    # :func:, :meth:, :class: and :data: roles.
    count, broken = 0, []
    for module, scopes, doc in _docstrings():
        names = [n for n in re.findall(r"``([A-Za-z_][\w.]*)``", doc)
                 if n.startswith("_") or "." in n and _resolves(n.split(".")[0], scopes)]
        names += re.findall(r":(?:func|meth|class|data):`~?([\w.]+)`", doc)
        count += len(names)
        broken += [f"{module}: {name}" for name in names if not _resolves(name, scopes)]
    assert count > 50, f"only {count} references found: the scan is broken"
    assert not broken, "docstring references that resolve to nothing:\n" + "\n".join(broken)


def test_readme_module_references_resolve():
    # README points into the package by ``module.name`` too, as in
    # ``transport._lattice_interp`` or ``stochtransport.schema``.
    scopes = [{"stochtransport": stochtransport}]
    names = [n for n in re.findall(r"`([A-Za-z_][\w.]*\.[\w.]+)`",
                                   (ROOT / "README.md").read_text(encoding="utf-8"))
             if n.split(".")[0] in MODULES or n.startswith("stochtransport.")]
    assert names, "README.md names no module.name: the scan is broken"
    broken = [name for name in names if not _resolves(name, scopes)]
    assert not broken, f"README.md names module.name that resolves to nothing: {broken}"


def test_readme_code_fences_pair_up():
    # A closing fence carries no text: GitHub reads a fence line with text
    # after it as more code, down to the next bare fence.
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    opened = None
    for number, line in enumerate(lines, start=1):
        if not line.startswith("```"):
            continue
        if opened is None:
            assert re.fullmatch(r"```[\w+-]*", line), f"README.md:{number}: bad opening fence"
            opened = number
        else:
            assert line == "```", f"README.md:{number}: closing fence carries text"
            opened = None
    assert opened is None, f"README.md:{opened}: fence never closed"


def test_no_unused_imports():
    # A package __init__ imports to re-export, so it is not scanned.
    unused = []
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                imported.update(dict.fromkeys(names, node.lineno))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for name, line in imported.items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, f"{demo.name} exited {run.returncode}:\n{run.stderr}"
