"""Shared random generators for the test suite.

Everything is seeded through the ``rng`` fixture so runs are
reproducible; subspace comparisons in tests are always projector-based.
"""

import numpy as np
import pytest
from hypothesis import settings

from fusionframes import Frame, FusionFrame, FusionFrameSystem, Subspace
from fusionframes.linalg import orthonormalize

# Property tests draw the same examples on every run and machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def solves(monkeypatch):
    """Every worst-case solve that runs, the top-level one first: its
    bounds, and the rounding margin that its lower bound was charged."""
    from fusionframes import minimax

    runs, run = [], minimax._Solve.run

    def recording(self, config):
        runs.append(self)
        return run(self, config)

    monkeypatch.setattr(minimax._Solve, "run", recording)
    return runs


def margin_share(solve) -> float:
    """The stated rounding margin of a solve's lower bound, as a share of
    its upper bound: what a gap closed to rounding reads."""
    return solve.margin / solve.upper


def random_matrix(rng, rows, cols, complex_field=False):
    m = rng.normal(size=(rows, cols))
    if complex_field:
        m = m + 1j * rng.normal(size=(rows, cols))
    return m


def random_unitary(rng, d, complex_field=False):
    q, r = np.linalg.qr(random_matrix(rng, d, d, complex_field))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace(rng, d, n, complex_field=False) -> Subspace:
    return orthonormalize(random_matrix(rng, d, n, complex_field))


def random_fusion_frame(rng, d, m, complex_field=False, max_dim=None,
                        weight_span=(0.5, 2.0)) -> FusionFrame:
    """Random spanning family; dimensions resampled until the family spans."""
    max_dim = max_dim or max(1, d - 1)
    while True:
        dims = rng.integers(1, max_dim + 1, size=m)
        if dims.sum() < d:
            continue
        subs = tuple(random_subspace(rng, d, int(n), complex_field) for n in dims)
        weights = rng.uniform(*weight_span, size=m)
        ff = FusionFrame(subs, weights)
        if ff.is_fusion_frame():
            return ff


def random_overcomplete_fusion_frame(rng, d, m, complex_field=False) -> FusionFrame:
    # Subspaces may fill the whole space here; dims capped at d-1 could
    # never exceed the ambient dimension for small (d, m).
    while True:
        ff = random_fusion_frame(rng, d, m, complex_field, max_dim=d)
        if ff.classify().is_overcomplete:
            return ff


def random_riesz_basis(rng, d, parts, complex_field=False,
                       weight_span=(0.5, 2.0)) -> FusionFrame:
    """Split the columns of a random invertible matrix into groups.

    Resamples matrices with condition number above 1e3 so certification
    tolerances stay meaningful.
    """
    while True:
        mat = random_matrix(rng, d, d, complex_field)
        if np.linalg.cond(mat) <= 1e3:
            break
    cuts = sorted(rng.choice(np.arange(1, d), size=parts - 1, replace=False)) if parts > 1 else []
    groups = np.split(np.arange(d), cuts)
    subs = tuple(orthonormalize(mat[:, g]) for g in groups)
    weights = rng.uniform(*weight_span, size=parts)
    return FusionFrame(subs, weights)


def random_parseval_uniform_equidim(rng, d, n, copies=1,
                                    complex_field=False) -> FusionFrame:
    """Parseval, uniform-weight, equi-dimensional family.

    Partitions the columns of ``copies`` random unitaries into blocks of
    size n (requires n | d); the weight 1/sqrt(copies) makes the weighted
    projector sum the identity.
    """
    assert d % n == 0
    subs = []
    for _ in range(copies):
        u = random_unitary(rng, d, complex_field)
        for k in range(d // n):
            subs.append(Subspace(u[:, k * n:(k + 1) * n]))
    weight = 1.0 / np.sqrt(copies)
    return FusionFrame(tuple(subs), np.full(len(subs), weight))


def tilted_plane_and_lines(u=None, delta=1e-4) -> FusionFrameSystem:
    """The plane x_3 = 0 and three lines tilted ``delta`` out of it, mapped
    by the unitary ``u``, with weights 1 and unit vectors as local frames:
    at delta = 1e-4 the synthesis matrix has condition number 9.7e3."""
    u = np.eye(3) if u is None else u
    vectors = [np.eye(3)[:2]] + [np.array([[np.cos(t), np.sin(t), delta]])
                                 for t in (0.3, 2.2, 4.1)]
    vectors = [(v / np.linalg.norm(v, axis=1)[:, None]) @ u.T for v in vectors]
    ff = FusionFrame.from_spanning_sets([v.T for v in vectors], np.ones(4))
    return FusionFrameSystem(ff, tuple(map(Frame, vectors)))


def random_system(rng, d, m, complex_field=False, extra=1,
                  unit_norm=False) -> FusionFrameSystem:
    """Random fusion frame system; each local frame has dim + extra vectors."""
    ff = random_fusion_frame(rng, d, m, complex_field)
    locals_ = []
    for sub in ff.subspaces:
        count = sub.dim + extra
        coeffs = random_matrix(rng, sub.dim, count, complex_field)
        vectors = (sub.basis @ coeffs).T
        if unit_norm:
            vectors = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        locals_.append(Frame(vectors))
    return FusionFrameSystem(ff, tuple(locals_))
