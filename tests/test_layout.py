"""Checks on the shape of the package: module boundaries, the exported
names and runnable demos."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fullrank

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fullrank"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """Names starting with '_' that the module imports from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not node.module.startswith("fullrank"):
            continue
        found += [f"{node.module or '.'}.{a.name}" for a in node.names
                  if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path) == []


def test_exports_resolve_and_are_listed():
    # a deleted function must not leave a stale name in __all__, and a
    # name imported for export must not be missing from it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for a in node.names if not a.name.startswith("_")}
    assert [n for n in fullrank.__all__ if not hasattr(fullrank, n)] == []
    assert sorted(imported - set(fullrank.__all__)) == []


def test_default_budget_assigned_once():
    # one work budget: every module that has a default budget imports it
    assigned = [path.name for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Assign)
                for target in node.targets
                if getattr(target, "id", None) == "DEFAULT_BUDGET"]
    assert assigned == ["errors.py"]
    from fullrank import attack, cover, errors, recover, verify
    construct = sys.modules["fullrank.construct"]  # the package rebinds the name
    for module in (attack, construct, cover, recover, verify):
        assert module.DEFAULT_BUDGET is errors.DEFAULT_BUDGET


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
