"""Fusion frame operators, bounds, and classification."""

import numpy as np
import pytest

from fusionframes.errors import NotAFusionFrame
from fusionframes.fusion import BlockVector, FusionFrame
from fusionframes.linalg import Subspace, frobenius_norm

from conftest import (
    random_fusion_frame,
    random_parseval_uniform_equidim,
    random_riesz_basis,
    random_subspace,
)


def two_plane_frame(w1=1.0, w2=2.0) -> FusionFrame:
    """The running overcomplete example: two coordinate planes of F^3."""
    return FusionFrame.from_spanning_sets(
        [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
         np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])],
        [w1, w2])


def riesz_c4() -> FusionFrame:
    """Two 2-dimensional blocks forming a non-orthogonal direct sum of C^4."""
    return FusionFrame.from_spanning_sets(
        [np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex),
         np.array([[0, 0], [1, 0], [0, 1], [-1, 0]], dtype=complex)],
        [1.0, 1.0])


class TestConstruction:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            FusionFrame((Subspace(np.eye(2)),), [0.0])

    def test_rejects_mixed_ambient(self):
        with pytest.raises(ValueError):
            FusionFrame((Subspace(np.eye(2)), Subspace(np.eye(3))), [1.0, 1.0])

    def test_rejects_non_finite_spanning_set(self):
        with pytest.raises(ValueError, match="spanning set has entries that are not finite"):
            FusionFrame.from_spanning_sets([np.eye(2), np.array([[1.0], [np.nan]])],
                                           [1.0, 1.0])


class TestOperators:
    def test_orthonormal_line_decomposition_is_unitary(self):
        ff = FusionFrame.from_spanning_sets(
            [np.eye(3)[:, [i]] for i in range(3)], [1.0, 1.0, 1.0])
        synth = ff.synthesis_matrix()
        np.testing.assert_allclose(synth @ synth.conj().T, np.eye(3), atol=1e-14)

    def test_two_plane_synthesis_columns(self):
        ff = two_plane_frame(1.0, 2.0)
        synth = ff.synthesis_matrix()
        assert synth.shape == (3, 4)
        # columns are the weighted basis vectors of each plane (up to sign)
        expected_cols = [np.array([0, 1.0, 0]), np.array([0, 0, 1.0]),
                         np.array([2.0, 0, 0]), np.array([0, 0, 2.0])]
        for col, expected in zip(synth.T, expected_cols):
            assert min(np.linalg.norm(col - expected),
                       np.linalg.norm(col + expected)) < 1e-12

    def test_fusion_operator_closed_form(self):
        ff = two_plane_frame(1.0, 2.0)
        np.testing.assert_allclose(ff.fusion_operator(),
                                   np.diag([4.0, 1.0, 5.0]), atol=1e-12)

    def test_operator_equals_synthesis_times_analysis(self, rng):
        for _ in range(5):
            ff = random_fusion_frame(rng, 5, 3, complex_field=bool(rng.integers(2)))
            lhs = ff.fusion_operator()
            rhs = ff.synthesis_matrix() @ ff.analysis_matrix()
            assert frobenius_norm(lhs - rhs) <= 1e-12 * max(1.0, frobenius_norm(lhs))

    def test_analyze_synthesize_roundtrip_via_operator(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        vec = rng.normal(size=4)
        coeffs = ff.analyze(vec)
        assert isinstance(coeffs, BlockVector)
        out = ff.synthesize(coeffs)
        np.testing.assert_allclose(out, ff.fusion_operator() @ vec, atol=1e-12)


class TestBounds:
    def test_orthonormal_basis_identity(self):
        ff = FusionFrame.from_spanning_sets(
            [np.eye(3)[:, [i]] for i in range(3)], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(ff.fusion_operator(), np.eye(3), atol=1e-14)
        lo, hi = ff.fusion_bounds()
        assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12

    def test_eigenvalue_oracle(self, rng):
        ff = random_fusion_frame(rng, 6, 4, complex_field=True)
        lo, hi = ff.fusion_bounds()
        eigs = np.linalg.eigvalsh(ff.fusion_operator())
        assert abs(lo - eigs[0]) < 1e-12 and abs(hi - eigs[-1]) < 1e-12

    def test_bound_sandwich_on_random_unit_vectors(self, rng):
        ff = random_fusion_frame(rng, 5, 4)
        lo, hi = ff.fusion_bounds()
        for _ in range(100):
            vec = rng.normal(size=5)
            vec /= np.linalg.norm(vec)
            energy = sum(
                w ** 2 * np.linalg.norm(sub.project(vec)) ** 2
                for w, sub in zip(ff.weights, ff.subspaces))
            assert lo * (1 - 1e-9) <= energy <= hi * (1 + 1e-9)

    def test_not_spanning_raises(self):
        ff = FusionFrame.from_spanning_sets(
            [np.eye(3)[:, [0]], np.eye(3)[:, [1]]], [1.0, 1.0])
        with pytest.raises(NotAFusionFrame):
            ff.fusion_bounds()


class TestClassification:
    def test_riesz_c4(self):
        report = riesz_c4().classify()
        assert report.is_riesz
        assert report.is_fusion_frame
        assert not report.is_orthonormal_basis
        assert not report.is_overcomplete
        assert report.is_equi_dimensional

    def test_two_plane_overcomplete(self):
        report = two_plane_frame().classify()
        assert report.is_overcomplete
        assert not report.is_riesz
        assert report.is_equi_dimensional
        assert not report.is_uniform_weight

    def test_parseval_flags(self, rng):
        ff = random_parseval_uniform_equidim(rng, 6, 2, copies=2)
        report = ff.classify()
        assert report.is_parseval and report.is_tight
        assert report.is_uniform_weight and report.is_equi_dimensional
        assert report.is_overcomplete
        lo, hi = report.bounds
        assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9

    def test_orthonormal_fusion_basis(self, rng):
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        ff = FusionFrame.from_spanning_sets([u[:, :2], u[:, 2:]], [1.0, 1.0])
        assert ff.classify().is_orthonormal_basis

    def test_riesz_iff_square_invertible_synthesis(self, rng):
        for _ in range(10):
            if rng.integers(2):
                ff = random_riesz_basis(rng, 5, 3)
            else:
                ff = random_fusion_frame(rng, 5, 3)
            report = ff.classify()
            synth = ff.synthesis_matrix()
            square = synth.shape[1] == synth.shape[0]
            invertible = square and np.linalg.matrix_rank(synth, tol=1e-10) == 5
            assert report.is_riesz == invertible


class TestBasisRotation:
    def test_rotation_preserves_subspace_and_conjugates_coordinates(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        n0 = ff.subspaces[0].dim
        q = np.linalg.qr(rng.normal(size=(n0, n0)))[0]
        rotated = ff.rotate_block_basis(0, q)
        assert rotated.subspaces[0].distance_to(ff.subspaces[0]) < 1e-12
        # synthesis changes exactly by the block unitary on the right
        block = slice(0, n0)
        np.testing.assert_allclose(rotated.synthesis_matrix()[:, block],
                                   ff.synthesis_matrix()[:, block] @ q,
                                   atol=1e-12)

    def test_rejects_non_unitary(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        n0 = ff.subspaces[0].dim
        with pytest.raises(ValueError):
            ff.rotate_block_basis(0, np.ones((n0, n0)))

    def test_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="rotation must be unitary"):
            two_plane_frame().rotate_block_basis(0, np.full((2, 2), np.nan))
