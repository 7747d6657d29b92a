from dataclasses import replace

import numpy as np
import pytest

from mimo_lab.harness import restrict_support
from mimo_lab.covmodel import CorrelationModel, ScenarioConfig, build_network, stream


def make_scenario(seed=0, **kw):
    """Network scenario from keyword overrides of the defaults."""
    cfg = ScenarioConfig(**kw)
    return build_network(cfg, stream(seed, 0))


def dense_twin(sc):
    """The same draw labelled partial-unitary: DrawEngine serves it in its
    dense tables, built from the same (DFT-column) eigenbases."""
    return replace(sc, model=CorrelationModel.PARTIAL_UNITARY)


def single_link_scenario(lam, seed=0, M=None, snr_db=0.0, boost=1.0,
                         pilot="orthogonal", model=CorrelationModel.PARTIAL_UNITARY):
    """L = K = 1 scenario whose single link carries the given eigenvalues."""
    lam = np.asarray(lam, dtype=float)
    r = len(lam)
    M = M if M is not None else max(4 * r, 8)
    sc = make_scenario(
        seed=seed, L=1, K=1, M=M, T_c=500, snr_db=snr_db, pilot_boost=boost,
        r_own=r, model=model, pilot=pilot,
    )
    sc.profiles[(0, 0, 0)].lam = lam.copy()
    return sc


def full_bases(sc):
    """I_M for every user: conventional M-dimensional processing."""
    eye = np.eye(sc.M, dtype=complex)
    return {u: eye for u in sc.users()}


def restricted_bases(sc, d, rng):
    """d of each user's r own-support columns, drawn in (l, k) order."""
    return {(l, k): restrict_support(sc.profile(l, l, k).U, d, rng) for l, k in sc.users()}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
