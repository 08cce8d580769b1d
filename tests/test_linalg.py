"""Substrate tests: orthonormalization, pseudoinverse, norms, subspace ops.

Expected values for the randomized cases come from independent oracles
(classical Gram-Schmidt, the SVD identities, rank counts), never from
the code paths under test.
"""

import numpy as np
import pytest

from fusionframes.errors import DimensionMismatch, NotContained, ZeroSubspace
from fusionframes.linalg import (
    Subspace,
    _canonical_phases,
    frobenius_norm,
    intersect,
    matrix_rank,
    matrix_ranks,
    orth_complement_within,
    orthonormalize,
    orthonormalize_many,
    pinv,
    singular_values_many,
    span_union,
    spectral_norm,
)

from conftest import random_matrix, random_subspace


def gram_schmidt(columns):
    """Independent orthonormalization oracle (modified Gram-Schmidt)."""
    basis = []
    for col in np.asarray(columns, dtype=complex).T:
        vec = col.copy()
        for b in basis:
            vec = vec - b * (b.conj() @ vec)
        norm = np.linalg.norm(vec)
        if norm > 1e-10:
            basis.append(vec / norm)
    return np.array(basis).T


class TestOrthonormalize:
    def test_collinear_columns_collapse(self):
        sub = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))
        assert sub.dim == 1
        assert abs(abs(sub.basis[0, 0]) - 1.0) < 1e-14

    def test_plane_spanning_set(self):
        spanning = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sub = orthonormalize(spanning)
        assert sub.dim == 2
        target = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(sub.projector(), target, atol=1e-14)

    def test_matches_gram_schmidt_oracle(self, rng):
        mat = random_matrix(rng, 4, 3)
        sub = orthonormalize(mat)
        assert sub.dim == 3
        oracle = gram_schmidt(mat)
        np.testing.assert_allclose(sub.projector(),
                                   oracle @ oracle.conj().T, atol=1e-12)
        gram = sub.basis.conj().T @ sub.basis
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_zero_input_raises(self):
        with pytest.raises(ZeroSubspace):
            orthonormalize(np.zeros((3, 2)))

    def test_rank_deficiency_detected(self, rng):
        base = random_matrix(rng, 5, 2)
        mat = np.hstack([base, base @ rng.normal(size=(2, 2))])
        assert orthonormalize(mat).dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="^spanning set has entries that are not finite$"):
            orthonormalize(np.array([[1.0, 0.0], [bad, 1.0]]))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_largest_entry_of_each_column_is_real_positive(self, rng, complex_field):
        basis = orthonormalize(random_matrix(rng, 6, 4, complex_field)).basis
        pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(4)]
        assert np.all(pivots.real > 0)
        assert np.all(np.abs(pivots.imag) <= 1e-15)

    def test_a_line_basis_does_not_depend_on_the_input_phase(self, rng):
        vec = random_matrix(rng, 5, 1, complex_field=True)
        np.testing.assert_allclose(orthonormalize(vec * np.exp(2.1j)).basis,
                                   orthonormalize(vec).basis, atol=1e-14)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_phases_match_the_column_loop(self, rng, complex_field):
        def loop(basis):
            basis = basis.copy()
            for j in range(basis.shape[1]):
                col = basis[:, j]
                pivot = col[int(np.argmax(np.abs(col)))]
                if pivot != 0:
                    basis[:, j] = col * (abs(pivot) / pivot)
            return basis
        basis = random_matrix(rng, 7, 5, complex_field)
        basis[:, 2] = 0.0           # a zero column keeps its phase
        # Real factors are exactly +-1; complex products may round
        # differently in numpy's vector loops, by a few units in the last place.
        tol = 8 * np.finfo(float).eps * np.abs(basis).max() if complex_field else 0.0
        np.testing.assert_allclose(_canonical_phases(basis), loop(basis), rtol=0, atol=tol)



class TestOrthonormalizeMany:
    def test_bit_identical_to_one_at_a_time(self, rng):
        shapes = [(1, 1), (3, 2), (1, 1), (4, 1), (3, 2), (5, 3), (1, 1), (4, 1), (2, 3)]
        mats = [random_matrix(rng, d, k, complex_field) for d, k in shapes
                for complex_field in (False, True)]
        mats[3][:, 1] = mats[3][:, 0]           # rank deficient, stacked with full rank
        many = orthonormalize_many(mats)
        assert len(many) == len(mats)
        for mat, sub in zip(mats, many):
            one = orthonormalize(mat).basis
            assert (sub.basis.dtype, sub.basis.shape) == (one.dtype, one.shape)
            assert sub.basis.tobytes() == one.tobytes()     # signed zeros included
            assert sub.basis.flags.c_contiguous

    def test_reports_the_index_of_the_first_zero_set(self):
        mats = [np.eye(3)[:, :2], np.zeros((3, 2)), np.eye(3)[:, :2], np.zeros((3, 1))]
        with pytest.raises(ZeroSubspace, match="^spanning set is numerically zero$") as caught:
            orthonormalize_many(mats)
        assert caught.value.index == 1

    def test_allow_zero_gives_the_zero_subspace(self):
        subs = orthonormalize_many([np.zeros((3, 2), dtype=complex), np.eye(3)[:, :1]],
                                   allow_zero=True)
        assert subs[0].is_zero and subs[0].ambient_dim == 3
        assert subs[0].basis.dtype == complex
        assert subs[1].dim == 1

    def test_errors_come_in_list_order(self):
        nan = np.array([[np.nan], [1.0]])
        with pytest.raises(ZeroSubspace) as caught:
            orthonormalize_many([np.eye(2), np.zeros((2, 1)), nan])
        assert caught.value.index == 1
        with pytest.raises(ValueError, match="not finite"):
            orthonormalize_many([np.eye(2), nan, np.zeros((2, 1))])
        with pytest.raises(ValueError, match="d x k matrix"):
            orthonormalize_many([np.zeros((2, 0))])

    def test_empty_list(self):
        assert orthonormalize_many([]) == []

    def test_no_rows_spans_nothing(self):
        with pytest.raises(ZeroSubspace):
            orthonormalize(np.zeros((0, 2)))
        assert orthonormalize_many([np.zeros((0, 2))], allow_zero=True)[0].is_zero

class TestStackedRanks:
    def test_bit_identical_to_one_at_a_time(self, rng):
        shapes = [(1, 1), (3, 2), (2, 3), (1, 1), (3, 2), (0, 2), (4, 1), (2, 0), (3, 2)]
        mats = [random_matrix(rng, d, k, complex_field) for d, k in shapes
                for complex_field in (False, True)]
        mats[2][:, 1] = mats[2][:, 0]               # rank deficient, stacked with full rank
        mats[8] = np.zeros((3, 2))                  # zero, stacked with full rank
        many = singular_values_many(mats)
        assert len(many) == len(mats)
        for mat, svals in zip(mats, many):
            one = np.linalg.svd(mat, compute_uv=False)
            assert (svals.dtype, svals.shape) == (one.dtype, one.shape)
            assert svals.tobytes() == one.tobytes()
        assert matrix_ranks(mats) == [matrix_rank(mat) for mat in mats]
        assert matrix_ranks(mats)[:10] == [1, 1, 1, 2, 2, 2, 1, 1, 0, 2]

    def test_empty_list(self):
        assert singular_values_many([]) == [] and matrix_ranks([]) == []


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_left_inverse_residual(self, rng):
        mat = random_matrix(rng, 5, 3)
        np.testing.assert_allclose(pinv(mat) @ mat, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_penrose_identities(self, rng, complex_field):
        for _ in range(10):
            rows = int(rng.integers(1, 21))
            cols = int(rng.integers(1, 21))
            mat = random_matrix(rng, rows, cols, complex_field)
            plus = pinv(mat)
            scale = 1e-9 * max(frobenius_norm(mat), 1.0)
            assert frobenius_norm(mat @ plus @ mat - mat) <= scale
            assert frobenius_norm(plus @ mat @ plus - plus) <= scale
            assert frobenius_norm((mat @ plus).conj().T - mat @ plus) <= scale
            assert frobenius_norm((plus @ mat).conj().T - plus @ mat) <= scale

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))


class TestNorms:
    def test_identity_norms(self):
        assert abs(frobenius_norm(np.eye(4)) - 2.0) < 1e-14
        assert abs(spectral_norm(np.eye(4)) - 1.0) < 1e-14

    def test_diagonal_norms(self):
        mat = np.diag([3.0, 4.0])
        assert abs(frobenius_norm(mat) - 5.0) < 1e-14
        assert abs(spectral_norm(mat) - 4.0) < 1e-14

    def test_frobenius_equals_singular_value_sum(self, rng):
        mat = random_matrix(rng, 6, 4, complex_field=True)
        s = np.linalg.svd(mat, compute_uv=False)
        assert abs(frobenius_norm(mat) ** 2 - np.sum(s ** 2)) < 1e-10


class TestSubspace:
    def test_projector_idempotent_selfadjoint(self, rng):
        for _ in range(5):
            sub = random_subspace(rng, 6, int(rng.integers(1, 5)),
                                  complex_field=bool(rng.integers(2)))
            proj = sub.projector()
            assert frobenius_norm(proj @ proj - proj) <= 1e-9
            assert frobenius_norm(proj.conj().T - proj) <= 1e-9

    def test_zero_subspace(self):
        zero = Subspace.zero(4)
        assert zero.dim == 0
        np.testing.assert_allclose(zero.projector(), np.zeros((4, 4)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_nan_basis(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(np.array([[np.nan], [0.0]]))


class TestIntersect:
    def test_self_intersection(self, rng):
        sub = random_subspace(rng, 5, 3)
        assert intersect(sub, sub).distance_to(sub) < 1e-9

    def test_coordinate_planes(self):
        e = np.eye(3)
        left = Subspace(e[:, :2])
        right = Subspace(e[:, 1:])
        common = intersect(left, right)
        assert common.dim == 1
        assert common.distance_to(Subspace(e[:, 1:2])) < 1e-12

    def test_direct_sum_blocks_have_zero_intersection(self):
        w1 = orthonormalize(np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex).reshape(4, 2))
        w2 = orthonormalize(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        assert intersect(w1, w2).dim == 0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            intersect(random_subspace(rng, 3, 1), random_subspace(rng, 4, 1))

    def test_grassmann_dimension_formula(self, rng):
        # rank oracle: dim(U+V) via the rank of the stacked bases
        for _ in range(20):
            d = int(rng.integers(2, 8))
            u = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            v = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            if rng.integers(2):
                # force a genuine intersection by sharing directions
                shared = random_subspace(rng, d, 1)
                u = span_union(u, shared)
                v = span_union(v, shared)
            stacked = np.hstack([u.basis, v.basis])
            union_rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            meet = intersect(u, v)
            union = span_union(u, v)
            assert union.dim == union_rank
            assert meet.dim + union.dim == u.dim + v.dim


class TestOrthComplementWithin:
    def test_zero_complement_is_everything(self, rng):
        sub = random_subspace(rng, 4, 2)
        zero = Subspace.zero(4)
        assert orth_complement_within(sub, zero).distance_to(sub) < 1e-12

    def test_plane_minus_line(self):
        full = Subspace(np.eye(2))
        line = Subspace(np.eye(2)[:, :1])
        out = orth_complement_within(full, line)
        assert out.distance_to(Subspace(np.eye(2)[:, 1:])) < 1e-12

    def test_projector_sum_oracle(self, rng):
        for _ in range(10):
            big = random_subspace(rng, 5, 3)
            inner_coeff = rng.normal(size=(3, 1))
            inner = orthonormalize(big.basis @ inner_coeff)
            rest = orth_complement_within(big, inner)
            assert rest.dim == 2
            total = rest.projector() + inner.projector()
            np.testing.assert_allclose(total, big.projector(), atol=1e-10)

    def test_not_contained_raises(self):
        eye = np.eye(3)
        with pytest.raises(NotContained):
            orth_complement_within(Subspace(eye[:, :2]), Subspace(eye[:, 2:]))
