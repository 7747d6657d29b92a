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
