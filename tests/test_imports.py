"""Import boundaries of the package.

`training` and `beamform` hold the reference estimators and design matrix
that the tests compare the engine against.  Production code reads its
tables from `bounds.DrawEngine` alone; the two modules stay in the package
only because the benchmark's tracer patches their names.  The tracer counts
`projected_cov` calls through each module that binds the name: `beamform`
calls its binding, and `detequiv` keeps one, never called, for that reason
alone.

Every random number comes from a stream that `covmodel` keys
(`covmodel.stream`), so that a trial's or a draw's bits depend on its key
alone: no other package module constructs a generator.
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


def test_beamform_binds_projected_cov_and_calls_it():
    text = source("beamform")
    assert ("training", "projected_cov") in bindings(text)
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "projected_cov" for node in ast.walk(ast.parse(text)))


def test_bounds_binds_no_dft_matrix():
    # the engine reads partial-Fourier bases and serving choices off the
    # stored DFT indices and kept positions; it never forms F or its columns
    assert [b for b in bindings(source("bounds")) if b[1] == "dft_matrix"] == []


# numpy.random's generator, its bit generators and the legacy RandomState
RNG_CONSTRUCTORS = {"Generator", "default_rng", "RandomState", "BitGenerator", "MT19937",
                    "PCG64", "PCG64DXSM", "Philox", "SFC64"}


def rng_constructions(text):
    """The RNG constructors a module's source calls, by attribute, by name
    or under an alias it imports them as."""
    alias = {a.asname: a.name for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else alias.get(f.id, f.id) if isinstance(f, ast.Name) else None)
            if name in RNG_CONSTRUCTORS:
                out.append(name)
    return out


def test_rng_constructions_sees_every_call_form():
    text = ("import numpy as np\nfrom numpy.random import PCG64 as P, default_rng\n"
            "a = np.random.default_rng(1)\nb = np.random.Generator(P(2))\n"
            "c = default_rng()\nd = np.random.SeedSequence(3)\n"
            "def f(g: np.random.Generator):\n    return g\n")
    assert sorted(rng_constructions(text)) == ["Generator", "PCG64", "default_rng",
                                               "default_rng"]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_only_covmodel_constructs_generators(module):
    found = rng_constructions(source(module))
    assert bool(found) if module == "covmodel" else found == []
