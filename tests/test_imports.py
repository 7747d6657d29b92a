"""Import boundaries of the package.

`training` and `beamform` hold the reference estimators and design matrix
that the tests compare the engine against.  Production code reads its
tables from `bounds.DrawEngine` alone; the two modules stay in the package
only because the benchmark's tracer patches their names, and `detequiv`
keeps a `projected_cov` binding, never called, for the same reason.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mimo_lab"
REFERENCE = {"training", "beamform"}


def source(module):
    return (PACKAGE / f"{module}.py").read_text()


def bindings(text):
    """(package module, name) of every package import in a module's source,
    at any depth; name is None where a module itself is imported."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            parts = [p for p in (node.module or "").split(".") if p]
            if not node.level:
                if parts[:1] != ["mimo_lab"]:
                    continue
                parts = parts[1:]
            if parts:
                out += [(parts[0], alias.name) for alias in node.names]
            else:  # from . import training
                out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name.split(".")[1], None) for alias in node.names
                    if alias.name.startswith("mimo_lab.")]
    return out


def test_bindings_sees_every_import_form():
    text = ("from .training import a, b\nfrom . import beamform\nimport mimo_lab.training\n"
            "from mimo_lab.beamform import c\nimport numpy\nfrom numpy import linalg\n"
            "def f():\n    from .training import d\n")
    assert sorted(bindings(text), key=str) == sorted(
        [("training", "a"), ("training", "b"), ("beamform", None), ("training", None),
         ("beamform", "c"), ("training", "d")], key=str)


@pytest.mark.parametrize("module", ["__init__", "_linalg", "bounds", "cli", "covmodel",
                                    "harness"])
def test_production_modules_import_no_reference(module):
    assert [b for b in bindings(source(module)) if b[0] in REFERENCE] == []


def test_detequiv_binds_only_projected_cov_and_never_calls_it():
    text = source("detequiv")
    assert [b for b in bindings(text) if b[0] in REFERENCE] == [("training", "projected_cov")]
    assert not any(isinstance(node, ast.Name) and node.id == "projected_cov"
                   for node in ast.walk(ast.parse(text)))
