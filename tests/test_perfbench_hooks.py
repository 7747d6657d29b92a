"""The benchmark's tracer (perfbench/tracing.py) patches mimo-lab's names from
outside the program.  Installing and removing it here fails within seconds
when a traced name is renamed or deleted, without running the benchmark."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    # bank-less calls read the draw's one engine, through the traced name,
    # and build no reference estimator or design matrix
    assert layers["bounds.DrawEngine.init.calls"] == 1
    assert layers["beamform.assemble_Z.calls"] == 0
    assert layers["training.EstimatorBank.build.calls"] == 0


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
        detequiv.sinr_mmse_detequiv(sc, (0, 0), training.EstimatorBank.build(sc))
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0.0)
    for name in ("bounds.DrawEngine.init.calls", "bounds.ul_chunk.busy_s",
                 "bounds.dl_chunk.busy_s", "bounds.run_bounds.self_s",
                 "detequiv.sinr_mmse_detequiv.calls", "detequiv.solve_fixed_point.busy_s",
                 "training.EstimatorBank.build.calls", "training.EstimatorBank.build.busy_s"):
        assert layers[name] > 0, name
