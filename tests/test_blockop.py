"""Direct checks of the block-operator container, and property tests of its
dense storage against plain numpy."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusionframes.blockop import BlockOp
from fusionframes.errors import InvalidSpec, ShapeMismatch
from fusionframes.fusion import BlockVector
from fusionframes.specio import InputSpec

from conftest import random_matrix


class TestConstruction:
    def test_matrix_roundtrip(self, rng):
        mat = rng.normal(size=(5, 7))
        op = BlockOp.from_matrix(mat, (2, 3), (4, 3))
        np.testing.assert_allclose(op.as_matrix(), mat)

    def test_zero_width_blocks(self):
        op = BlockOp.zeros((2, 0, 1), (0, 3))
        assert op.as_matrix().shape == (3, 3)
        assert op.block(1, 1).shape == (0, 3)

    def test_block_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            BlockOp((2,), (2,), ((np.eye(3),),))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_dual_q_grid_matches_a_per_block_fill(self, rng, complex_field):
        rows, cols = rng.integers(0, 4, 12).tolist(), rng.integers(0, 4, 12).tolist()
        grid = [[random_matrix(rng, r, c, complex_field) for c in cols] for r in rows]
        field = "complex" if complex_field else "real"
        spec = InputSpec(field, 3, None, dual=InputSpec(field, 3, None, q_blocks=grid))
        primal, dual = SimpleNamespace(dims=tuple(cols)), SimpleNamespace(dims=tuple(rows))
        dense = np.zeros((sum(rows), sum(cols)), dtype=complex if complex_field else float)
        roff, coff = np.cumsum([0, *rows]), np.cumsum([0, *cols])
        for j in range(len(rows)):
            for i in range(len(cols)):
                dense[roff[j]:roff[j + 1], coff[i]:coff[i + 1]] = grid[j][i]
        q = spec.dual_q(primal, dual)
        assert q.as_matrix().dtype == dense.dtype
        np.testing.assert_array_equal(q.as_matrix(), dense)
        # Of two wrong blocks, the first in row-major order is named.
        grid[7][2] = np.zeros((rows[7] + 1, cols[2]))
        grid[3][9] = np.zeros((rows[3], cols[9] + 1))
        with pytest.raises(InvalidSpec, match=re.escape(
                f"block (3,9) has shape {(rows[3], cols[9] + 1)}, "
                f"expected {(rows[3], cols[9])}")):
            spec.dual_q(primal, dual)

    def test_grid_without_rows_or_columns(self):
        assert BlockOp((), (2, 1), []).as_matrix().shape == (0, 3)
        assert BlockOp((2, 1), (), [[], []]).as_matrix().shape == (3, 0)

    def test_identity_and_mask(self):
        ident = BlockOp.identity((2, 1))
        np.testing.assert_allclose(ident.as_matrix(), np.eye(3))
        mask = BlockOp.mask((2, 1), [1])
        np.testing.assert_allclose(mask.as_matrix(), np.diag([0.0, 0.0, 1.0]))


class TestAlgebra:
    def test_adjoint_involution(self, rng):
        mat = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        op = BlockOp.from_matrix(mat, (1, 3), (2, 2, 2))
        back = op.adjoint().adjoint()
        np.testing.assert_allclose(back.as_matrix(), mat)

    def test_compose_matches_matrix_product(self, rng):
        a = BlockOp.from_matrix(rng.normal(size=(4, 5)), (2, 2), (2, 3))
        b = BlockOp.from_matrix(rng.normal(size=(5, 3)), (2, 3), (1, 2))
        np.testing.assert_allclose((a @ b).as_matrix(),
                                   a.as_matrix() @ b.as_matrix())

    def test_compose_dimension_mismatch(self, rng):
        a = BlockOp.from_matrix(rng.normal(size=(4, 5)), (2, 2), (2, 3))
        with pytest.raises(ShapeMismatch):
            a.compose(a)

    def test_apply_block_vector(self, rng):
        mat = rng.normal(size=(3, 4))
        op = BlockOp.from_matrix(mat, (1, 2), (2, 2))
        bv = BlockVector.from_concat(rng.normal(size=4), (2, 2))
        out = op.apply(bv)
        assert out.dims == (1, 2)
        np.testing.assert_allclose(out.concat(), mat @ bv.concat())

    def test_off_diagonal_norm(self):
        op = BlockOp.from_matrix(np.arange(16.0).reshape(4, 4), (2, 2), (2, 2))
        manual = np.linalg.norm(np.asarray(op.block(0, 1))) ** 2 \
            + np.linalg.norm(np.asarray(op.block(1, 0))) ** 2
        assert abs(op.off_diagonal_norm() - manual ** 0.5) < 1e-12


dims_lists = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)


def _random_op(rng, rows, cols, complex_field):
    mat = random_matrix(rng, sum(rows), sum(cols), complex_field)
    return BlockOp.from_matrix(mat, rows, cols), mat


def _block_norms(mat, rows, cols):
    roff, coff = np.cumsum([0, *rows]), np.cumsum([0, *cols])
    return np.array([[np.linalg.norm(mat[roff[j]:roff[j + 1], coff[i]:coff[i + 1]])
                      for i in range(len(cols))] for j in range(len(rows))])


class TestDenseStorage:
    @given(rows=dims_lists, cols=dims_lists, inner=dims_lists,
           complex_field=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_operations_match_numpy(self, rows, cols, inner, complex_field, seed):
        rng = np.random.default_rng(seed)
        op, mat = _random_op(rng, rows, cols, complex_field)
        roff, coff = np.cumsum([0, *rows]), np.cumsum([0, *cols])
        np.testing.assert_array_equal(op.as_matrix(), mat)
        for j in range(len(rows)):
            for i in range(len(cols)):
                expected = mat[roff[j]:roff[j + 1], coff[i]:coff[i + 1]]
                np.testing.assert_array_equal(op.block(j, i), expected)
                np.testing.assert_array_equal(op.blocks[j][i], expected)

        np.testing.assert_array_equal(op.adjoint().as_matrix(), mat.conj().T)
        assert (op.adjoint().row_dims, op.adjoint().col_dims) == (op.col_dims, op.row_dims)
        other, other_mat = _random_op(rng, cols, inner, complex_field)
        np.testing.assert_allclose((op @ other).as_matrix(), mat @ other_mat,
                                   rtol=1e-12, atol=1e-12)
        vec = random_matrix(rng, sum(cols), 1, complex_field)[:, 0]
        out = op.apply(BlockVector.from_concat(vec, op.col_dims))
        assert out.dims == op.row_dims
        np.testing.assert_allclose(out.concat(), mat @ vec, rtol=1e-12, atol=1e-12)

        kept = [k for k in range(len(cols)) if rng.random() < 0.5]
        keep = np.repeat([float(k in kept) for k in range(len(cols))], cols)
        np.testing.assert_array_equal((op @ BlockOp.mask(cols, kept)).as_matrix(),
                                      mat * keep)
        factors = rng.uniform(0.5, 2.0, size=len(rows))
        np.testing.assert_allclose(
            (BlockOp.weight_diagonal(rows, factors) @ op).as_matrix(),
            np.repeat(factors, rows)[:, None] * mat, rtol=1e-12, atol=1e-12)

        norms = _block_norms(mat, rows, cols)
        np.testing.assert_allclose(op.block_norms(), norms, rtol=1e-12, atol=1e-12)
        assert abs(op.frobenius_norm() - np.linalg.norm(mat)) <= 1e-12 * (1 + np.linalg.norm(mat))
        off = ~np.eye(len(rows), len(cols), dtype=bool)
        manual = np.sqrt(np.sum(norms[off] ** 2))
        assert abs(op.off_diagonal_norm() - manual) <= 1e-12 * (1 + manual)

    @given(rows=dims_lists, cols=dims_lists, complex_field=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_returned_arrays_cannot_change_the_operator(self, rows, cols, complex_field, seed):
        rng = np.random.default_rng(seed)
        source = random_matrix(rng, sum(rows), sum(cols), complex_field)
        op = BlockOp.from_matrix(source, rows, cols)
        kept = op.as_matrix().copy()
        source += 1.0
        views = [op.as_matrix(), op.adjoint().adjoint().as_matrix()]
        views += [blk for row in op.blocks for blk in row]
        views += [op.block(j, i) for j in range(len(rows)) for i in range(len(cols))]
        for view in views:
            if view.size:
                with pytest.raises(ValueError):
                    view[...] = 7.0
        np.testing.assert_array_equal(op.as_matrix(), kept)

    def test_constructor_copies_its_blocks(self):
        blk = np.eye(2)
        op = BlockOp((2,), (2,), ((blk,),))
        blk[0, 0] = 5.0
        np.testing.assert_array_equal(op.as_matrix(), np.eye(2))

    def test_empty_segments_have_zero_norm(self):
        # np.add.reduceat gives the next entry, not 0, for an empty segment.
        op = BlockOp.from_matrix(np.arange(1.0, 10.0).reshape(3, 3), (0, 3, 0), (1, 0, 2))
        norms = op.block_norms()
        assert norms.shape == (3, 3)
        assert not norms[0].any() and not norms[2].any() and not norms[:, 1].any()
        np.testing.assert_allclose(norms[1], [np.linalg.norm([1.0, 4.0, 7.0]),
                                              0.0, np.linalg.norm([2, 3, 5, 6, 8, 9])])
