"""The benchmark's tracer (perfbench/tracing.py) patches mimo-lab's names from
outside the program.  Installing and removing it here fails within seconds
when a traced name is renamed or deleted, without running the benchmark."""

import ast
from pathlib import Path

import numpy as np
import pytest

from mimo_lab import bounds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# DrawEngine's names that the tracer or the tests patch on the class; a
# representation that defined one would bypass the patch without an error
PATCHED = ("__init__", "ul_chunk", "dl_chunk", "_seen_estimates", "_beamformer",
           "detequiv_tables")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_uninstall_restores_every_patched_name(tracing):
    tracer = tracing.install()
    try:
        originals = {}
        for owner, attr, old in tracer._undo:
            originals.setdefault((owner, attr), old)
        assert originals
        for (owner, attr), old in originals.items():
            assert vars(owner)[attr] is not old, f"{owner.__name__}.{attr} not patched"
    finally:
        tracer.uninstall()
    for (owner, attr), old in originals.items():
        assert vars(owner)[attr] is old, f"{owner.__name__}.{attr} not restored"


def test_detequiv_layers_are_attributed(tracing):
    # sinr_mmse_detequiv reaches the solver, the derivative system and Z
    # through the names the tracer patches; a refactor that bypasses them
    # would zero the benchmark's per-layer evidence
    from conftest import make_scenario
    from mimo_lab import detequiv
    from mimo_lab.covmodel import CorrelationModel

    sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4, snr_db=10.0,
                       model=CorrelationModel.PARTIAL_UNITARY)
    tracer = tracing.install()
    try:
        for user in sc.users():
            detequiv.sinr_mmse_detequiv(sc, user)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0.0)
    for name in ("detequiv.solve_fixed_point.calls", "detequiv.fixed_point_iters",
                 "detequiv.solve_primed.busy_s"):
        assert layers[name] > 0, name
    # the calls read the draw's one engine, through the traced name,
    # and build no reference estimator or design matrix
    assert layers["bounds.DrawEngine.init.calls"] == 1
    assert layers["beamform.assemble_Z.calls"] == 0
    assert layers["training.EstimatorBank.build.calls"] == 0


def test_mf_limit_reads_the_draws_engine(tracing):
    # the MF limit reads its tables from the engine run_bounds builds for
    # the draw: no reference estimator and no per-link projection
    from conftest import make_scenario
    from mimo_lab import bounds, detequiv
    from mimo_lab.covmodel import CorrelationModel

    sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4, snr_db=10.0, pilot="nonorthogonal",
                       model=CorrelationModel.PARTIAL_UNITARY)
    tracer = tracing.install()
    try:
        for user in sc.users():
            detequiv.sinr_mf_detequiv(sc, user)
        bounds.run_bounds(sc, "ul", ("coherent", "alt"), 8, 3)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0.0)
    assert layers["bounds.run_bounds.self_s"] > 0
    assert layers["training.EstimatorBank.build.calls"] == 0
    assert layers["training.projected_cov.calls"] == 0
    assert layers["bounds.DrawEngine.init.calls"] == 1


def test_fourier_draws_are_traced(tracing):
    # the tracer fingerprints each bank build's scenario from its profiles'
    # eigenbases; a partial-Fourier draw builds them from its DFT indices
    from conftest import make_scenario
    from mimo_lab import bounds, detequiv, training

    sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4, snr_db=10.0)
    tracer = tracing.install()
    try:
        bounds.run_bounds(sc, "ul", ("coherent",), 8, 3)
        bounds.run_bounds(sc, "dl", ("alt",), 8, 3)
        detequiv.sinr_mmse_detequiv(sc, (0, 0))
        training.EstimatorBank.build(sc)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0.0)
    for name in ("bounds.DrawEngine.init.calls", "bounds.ul_chunk.busy_s",
                 "bounds.dl_chunk.busy_s", "bounds.run_bounds.self_s",
                 "detequiv.sinr_mmse_detequiv.calls", "detequiv.solve_fixed_point.busy_s",
                 "training.EstimatorBank.build.calls", "training.EstimatorBank.build.busy_s"):
        assert layers[name] > 0, name


def test_assemble_Z_sums_traced_covariances(tracing):
    # one cell's Z is one assemble_Z span, and each user's other-cell links
    # reach projected_cov through beamform's traced binding, one call per link
    from conftest import make_scenario
    from mimo_lab import beamform, training
    from mimo_lab.covmodel import CorrelationModel

    sc = make_scenario(seed=8, L=3, K=3, M=32, r_own=4, snr_db=10.0,
                       model=CorrelationModel.PARTIAL_UNITARY)
    bank = training.EstimatorBank.build(sc)
    tracer = tracing.install()
    try:
        beamform.assemble_Z(sc, 1, None, bank)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0.0)
    assert layers["beamform.assemble_Z.calls"] == 1
    assert layers["training.projected_cov.calls"] == sc.K * (sc.L - 1) * sc.K


@pytest.mark.parametrize("engine", [bounds._DenseEngine, bounds._AngularEngine])
def test_representations_keep_the_patched_names(engine):
    assert not set(PATCHED) & set(vars(engine))
    assert set(PATCHED) <= set(vars(bounds.DrawEngine))


def test_engine_does_not_branch_on_the_representation():
    tree = ast.parse(Path(bounds.__file__).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "angular"]
    assert reads == []


@pytest.mark.parametrize("haar", [False, True], ids=["fourier", "haar"])
def test_engine_tables_are_measured(tracing, haar):
    # the tracer sums the ndarray attributes of the engine it saw built
    from conftest import make_scenario
    from mimo_lab.covmodel import CorrelationModel

    model = CorrelationModel.PARTIAL_UNITARY if haar else CorrelationModel.PARTIAL_FOURIER
    sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4, snr_db=10.0, model=model)
    tracer = tracing.install()
    try:
        bounds.run_bounds(sc, "dl", ("alt",), 8, 3)
    finally:
        tracer.uninstall()
    eng = sc.draw_engine
    assert isinstance(eng, bounds._DenseEngine if haar else bounds._AngularEngine)
    nbytes = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
    mb = tracing.layer_metrics(tracer, 0.0)["bounds.engine_tables_mb"]
    assert mb == nbytes / 2 ** 20 and mb > 0
