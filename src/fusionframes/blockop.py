"""Operators between direct sums, stored as one dense matrix with block offsets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .fusion import BlockVector, block_slices
from .linalg import adjoint, frobenius_norm


def _row_sums(a, dims: Sequence[int]):
    """Sums of the rows of ``a`` over consecutive segments of lengths ``dims``.

    ``np.add.reduceat`` returns the row at the start of an empty segment
    instead of 0, so only the non-empty segments are reduced.
    """
    out = np.zeros((len(dims),) + a.shape[1:], dtype=a.dtype)
    kept = [k for k, n in enumerate(dims) if n]
    if kept:
        starts = [sl.start for sl in block_slices(dims)]
        out[kept] = np.add.reduceat(a, [starts[k] for k in kept], axis=0)
    return out


@dataclass(frozen=True, init=False, eq=False)
class BlockOp:
    """Linear map between direct sums, block (j, i) mapping source block i
    into target block j.

    The operator is one read-only dense matrix; block (j, i) is the view
    of its rows of target block j and its columns of source block i, so
    zero blocks take no storage of their own.  Row/column dimensions may
    be zero.
    """

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]
    _matrix: np.ndarray = field(repr=False)
    _row_slices: list = field(repr=False)
    _col_slices: list = field(repr=False)

    def __init__(self, row_dims: Sequence[int], col_dims: Sequence[int], blocks):
        rows, cols = tuple(map(int, row_dims)), tuple(map(int, col_dims))
        if len(blocks) != len(rows):
            raise ShapeMismatch("block grid has wrong number of rows")
        if any(len(row) != len(cols) for row in blocks):
            raise ShapeMismatch("block grid has wrong number of columns")
        grid = [[np.asarray(blk) for blk in row] for row in blocks]
        shapes = [blk.shape for row in grid for blk in row]
        expected = [(r, c) for r in rows for c in cols]
        if shapes != expected:
            k = next(k for k, (shape, want) in enumerate(zip(shapes, expected))
                     if shape != want)
            raise ShapeMismatch(f"block ({k // len(cols)},{k % len(cols)}) has shape "
                                f"{shapes[k]}, expected {expected[k]}")
        mat = np.empty((sum(rows), sum(cols)),
                       dtype=np.result_type(*{blk.dtype for row in grid for blk in row}, 1.0))
        if cols:
            # One copy per block row, straight into its rows of the matrix.
            for row, rs in zip(grid, block_slices(rows)):
                np.concatenate(row, axis=1, out=mat[rs])
        self._own(mat, rows, cols)

    def _own(self, mat, rows: Sequence[int], cols: Sequence[int]) -> None:
        """Store ``mat``, a private copy, read-only."""
        mat = np.ascontiguousarray(mat, dtype=np.result_type(mat.dtype, 1.0))
        mat.flags.writeable = False
        rows, cols = tuple(map(int, rows)), tuple(map(int, cols))
        for name, value in (("row_dims", rows), ("col_dims", cols), ("_matrix", mat),
                            ("_row_slices", block_slices(rows)),
                            ("_col_slices", block_slices(cols))):
            object.__setattr__(self, name, value)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, row_dims: Sequence[int], col_dims: Sequence[int], dtype=float) -> "BlockOp":
        return cls.from_matrix(np.zeros((sum(row_dims), sum(col_dims)), dtype), row_dims, col_dims)

    @classmethod
    def identity(cls, dims: Sequence[int], dtype=float) -> "BlockOp":
        return cls.from_matrix(np.eye(sum(dims), dtype=dtype), dims, dims)

    @classmethod
    def block_diagonal(cls, mats: Iterable[np.ndarray]) -> "BlockOp":
        mats = [np.asarray(m) for m in mats]
        rows, cols = [m.shape[0] for m in mats], [m.shape[1] for m in mats]
        out = np.zeros((sum(rows), sum(cols)),
                       dtype=np.result_type(*(m.dtype for m in mats), 1.0))
        for m, rs, cs in zip(mats, block_slices(rows), block_slices(cols)):
            out[rs, cs] = m
        return cls.from_matrix(out, rows, cols)

    @classmethod
    def from_matrix(cls, mat, row_dims: Sequence[int], col_dims: Sequence[int]) -> "BlockOp":
        mat = np.array(mat)
        if mat.shape != (sum(row_dims), sum(col_dims)):
            raise ShapeMismatch("matrix shape does not match block dimensions")
        op = cls.__new__(cls)
        op._own(mat, row_dims, col_dims)
        return op

    @classmethod
    def mask(cls, dims: Sequence[int], kept: Iterable[int], dtype=float) -> "BlockOp":
        """Diagonal 0/1 operator keeping the listed blocks and zeroing the rest."""
        kept = set(kept)
        return cls.weight_diagonal(dims, [float(i in kept) for i in range(len(dims))], dtype)

    @classmethod
    def weight_diagonal(cls, dims: Sequence[int], factors: Sequence[float], dtype=float) -> "BlockOp":
        """Diagonal operator scaling block i by factors[i]."""
        diag = np.repeat(np.array(factors, dtype=np.result_type(dtype, *factors)), dims)
        return cls.from_matrix(np.diag(diag), dims, dims)

    # -- access / algebra -----------------------------------------------------

    def block(self, j: int, i: int):
        return self._matrix[self._row_slices[j], self._col_slices[i]]

    @property
    def blocks(self) -> tuple:
        """The grid of block views, row by row."""
        return tuple(tuple(self._matrix[rs, cs] for cs in self._col_slices)
                     for rs in self._row_slices)

    def as_matrix(self):
        """The stored matrix itself (read-only)."""
        return self._matrix

    def block_norms(self):
        """Frobenius norm of every block, as a len(row_dims) x len(col_dims) array."""
        squares = _row_sums(np.abs(self._matrix) ** 2, self.row_dims)
        return np.sqrt(_row_sums(squares.T, self.col_dims).T)

    def adjoint(self) -> "BlockOp":
        return BlockOp.from_matrix(adjoint(self._matrix), self.col_dims, self.row_dims)

    def compose(self, other: "BlockOp") -> "BlockOp":
        """self after other (matrix product self @ other)."""
        if self.col_dims != other.row_dims:
            raise ShapeMismatch("inner block dimensions do not match")
        return BlockOp.from_matrix(self._matrix @ other._matrix, self.row_dims, other.col_dims)

    def __matmul__(self, other):
        if isinstance(other, BlockOp):
            return self.compose(other)
        return NotImplemented

    def apply(self, bv: BlockVector) -> BlockVector:
        if bv.dims != self.col_dims:
            raise ShapeMismatch("block vector does not match source dimensions")
        return BlockVector.from_concat(self._matrix @ bv.concat(), self.row_dims)

    def frobenius_norm(self) -> float:
        return frobenius_norm(self._matrix)

    def off_diagonal_norm(self) -> float:
        """Frobenius norm of everything outside the diagonal blocks."""
        norms = self.block_norms()
        return float(np.sqrt(np.sum(norms[~np.eye(*norms.shape, dtype=bool)] ** 2)))
