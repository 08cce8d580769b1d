"""Dense linear algebra substrate: subspaces, pseudoinverses, norms.

All operators are plain numpy arrays.  Real and complex data share one
code path: the dtype of the arrays is the scalar field, and every helper
uses ``conj().T`` so it is correct for both.  Rank decisions use a
relative singular-value threshold (``RANK_TOL`` by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotContained, ZeroSubspace

#: Relative SVD threshold for rank decisions.
RANK_TOL = 1e-10

#: Tolerance for orthonormality of stored subspace bases.
ORTHO_TOL = 1e-10


def adjoint(mat):
    """Conjugate transpose."""
    return np.asarray(mat).conj().T


def frobenius_norm(mat) -> float:
    return float(np.linalg.norm(np.asarray(mat), "fro"))


def spectral_norm(mat) -> float:
    """Largest singular value."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def pinv(mat, tol: float = RANK_TOL):
    """Moore-Penrose pseudoinverse; singular values <= tol * max are dropped."""
    mat = np.asarray(mat, dtype=np.result_type(mat, 1.0))
    if mat.size == 0:
        return mat.conj().T.copy()
    return np.linalg.pinv(mat, rcond=tol)


def matrix_rank(mat, tol: float = RANK_TOL) -> int:
    """Numerical rank with the same relative threshold used everywhere."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return _rank_of(np.linalg.svd(mat, compute_uv=False), tol)


def _rank_of(s, tol: float) -> int:
    """The number of singular values ``s`` (descending) above ``tol * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def singular_values_many(mats) -> list:
    """``np.linalg.svd(mat, compute_uv=False)`` of each matrix in ``mats``.

    Matrices of one shape and dtype share one stacked SVD; a matrix with
    no entries has no singular values.
    """
    mats = [np.asarray(mat) for mat in mats]
    out = [np.zeros(0)] * len(mats)
    stacks = {}
    for i, mat in enumerate(mats):
        if mat.size:
            stacks.setdefault((mat.shape, mat.dtype), []).append(i)
    for index in stacks.values():
        svals = np.linalg.svd(np.stack([mats[i] for i in index]), compute_uv=False)
        for i, s in zip(index, svals):
            out[i] = s
    return out


def matrix_ranks(mats) -> list:
    """``matrix_rank`` of each matrix in ``mats``, from one stacked SVD per
    shape and dtype."""
    return [_rank_of(s, RANK_TOL) for s in singular_values_many(mats)]


def _canonical_phases(basis):
    """Rotate each column so its largest-magnitude entry is real positive.

    Column-space invariant; makes orthonormalization deterministic so
    repeated runs print identical bases.  ``basis`` may be a stack of
    matrices (..., d, k); each column of each matrix is rotated alone.
    """
    if basis.shape[-2] == 0:    # no rows: no pivots to rotate by
        return basis.copy()
    # The result is allocated before the temporaries: the erasure tables' BLAS
    # calls depend on where later arrays land, and one benchmark op ran 25 %
    # slower.  It is not the input's copy multiplied in place: numpy rounds an
    # in-place product of one complex element differently from a longer one,
    # and a 1 x 1 basis would depend on how many were stacked with it.
    out = np.empty_like(basis)
    rows = np.abs(basis).argmax(axis=-2)[..., None, :]
    pivots = np.take_along_axis(basis, rows, axis=-2)
    pivots[pivots == 0] = 1     # a zero column keeps its phase
    # hypot, not np.abs: numpy's vector complex modulus can differ from the
    # scalar one in the last place, and printed bases would change.
    return np.multiply(basis, np.hypot(pivots.real, pivots.imag) / pivots, out=out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^d held as a d x n matrix with orthonormal columns.

    The zero subspace is represented explicitly by a d x 0 basis.  The
    orthogonal projector is ``basis @ basis*``, idempotent and
    self-adjoint by construction.
    """

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.result_type(self.basis, 1.0))
        if basis.ndim != 2:
            raise ValueError("subspace basis must be a 2-d array")
        object.__setattr__(self, "basis", basis)
        gram = adjoint(basis) @ basis
        if not frobenius_norm(gram - np.eye(basis.shape[1])) <= ORTHO_TOL:
            raise ValueError("subspace basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @classmethod
    def zero(cls, ambient_dim: int, dtype=float) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=dtype))

    @classmethod
    def full(cls, ambient_dim: int, dtype=float) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=dtype))

    def projector(self):
        """Orthogonal projector onto the subspace (d x d)."""
        return self.basis @ adjoint(self.basis)

    def project(self, vec):
        """Project an ambient vector (or stack of columns) onto the subspace."""
        return self.basis @ (adjoint(self.basis) @ np.asarray(vec))

    def coords(self, vec):
        """Coordinates of an ambient vector w.r.t. the stored basis."""
        return adjoint(self.basis) @ np.asarray(vec)

    def distance_to(self, other: "Subspace") -> float:
        """Frobenius distance between orthogonal projectors."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return frobenius_norm(self.projector() - other.projector())

    def equals(self, other: "Subspace", tol: float = 1e-9) -> bool:
        return self.distance_to(other) <= tol

    def contains(self, other: "Subspace", tol: float = 1e-9) -> bool:
        """True if ``other`` is contained in this subspace (projector test)."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        pz = other.projector()
        return frobenius_norm(self.projector() @ pz - pz) <= tol


def orthonormalize(spanning, tol: float = RANK_TOL) -> Subspace:
    """Subspace spanned by the columns of ``spanning``.

    The dimension is the numerical rank at relative tolerance ``tol``:
    singular values above ``tol * sigma_max`` are kept.

    Raises:
        ValueError: if an entry is not finite.
        ZeroSubspace: if every singular value is at or below the cutoff.
    """
    return orthonormalize_many([spanning], tol)[0]


def orthonormalize_many(mats, tol: float = RANK_TOL, *, allow_zero: bool = False) -> list:
    """The subspace spanned by the columns of each matrix in ``mats``, as
    ``orthonormalize`` gives it.

    Matrices of one shape and dtype share one stacked SVD and one stacked
    orthonormality check.  With ``allow_zero``, a numerically zero
    spanning set gives the zero subspace instead of an error.

    Raises:
        ValueError: at the first matrix that is not d x k with k >= 1, or
            has an entry that is not finite.
        ZeroSubspace: at the first numerically zero spanning set, when it
            comes before any such matrix; its ``index`` is its position.
    """
    arrays, bad = [], None
    for mat in mats:
        mat = np.asarray(mat, dtype=np.result_type(mat, 1.0))
        if mat.ndim != 2 or mat.shape[1] < 1:
            bad = ValueError("spanning set must be a d x k matrix with k >= 1")
        elif not np.isfinite(mat).all():
            bad = ValueError("spanning set has entries that are not finite")
        if bad is not None:
            break
        arrays.append(mat)
    stacks = {}
    for i, mat in enumerate(arrays):
        stacks.setdefault((mat.shape, mat.dtype), []).append(i)
    out = [None] * len(arrays)
    for index in stacks.values():
        u, s, _ = np.linalg.svd(np.stack([arrays[i] for i in index]), full_matrices=False)
        ranks = (s > tol * s[:, :1]).sum(axis=1)
        keep = np.arange(s.shape[1]) < ranks[:, None]
        # Columns past each rank are zeroed, so one Gram matrix per stack
        # checks exactly the columns that are kept.
        u = np.where(keep[:, None, :], _canonical_phases(u), 0)
        dev = np.swapaxes(u.conj(), -1, -2) @ u - keep[:, :, None] * np.eye(s.shape[1])
        if not np.max((dev.conj() * dev).real.sum(axis=(1, 2))) <= ORTHO_TOL ** 2:
            raise ValueError("subspace basis columns are not orthonormal")
        for i, basis, rank in zip(index, u, ranks.tolist()):
            out[i] = _trusted_subspace(basis[:, :rank].copy())
    for i, sub in enumerate(out):
        if sub.is_zero and not allow_zero:
            raise ZeroSubspace("spanning set is numerically zero", index=i)
    if bad is not None:
        raise bad
    return out


def _trusted_subspace(basis) -> Subspace:
    """A Subspace of a basis whose orthonormality has already been checked."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "basis", basis)
    return sub


def span_union(u: Subspace, v: Subspace, tol: float = RANK_TOL) -> Subspace:
    """Smallest subspace containing both arguments."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if u.is_zero and v.is_zero:
        return Subspace.zero(u.ambient_dim)
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    return orthonormalize(np.hstack([u.basis, v.basis]), tol)


def intersect(u: Subspace, v: Subspace, tol: float = 1e-8) -> Subspace:
    """Intersection of two subspaces via principal angles.

    Singular values of ``basis_u* basis_v`` equal the cosines of the
    principal angles; directions with cosine >= 1 - tol are common to
    both.  May return the zero subspace.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if u.is_zero or v.is_zero:
        return Subspace.zero(u.ambient_dim, dtype=np.result_type(u.basis, v.basis))
    overlap = adjoint(u.basis) @ v.basis
    left, cosines, _ = np.linalg.svd(overlap, full_matrices=False)
    keep = cosines >= 1.0 - tol
    if not np.any(keep):
        return Subspace.zero(u.ambient_dim, dtype=overlap.dtype)
    return Subspace(_canonical_phases(u.basis @ left[:, keep]))


def orth_complement_within(u: Subspace, z: Subspace, tol: float = 1e-9) -> Subspace:
    """Orthogonal complement of ``z`` inside ``u`` (requires z inside u).

    Raises:
        NotContained: if ``z`` is not a subspace of ``u`` within ``tol``.
    """
    if u.ambient_dim != z.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if z.is_zero:
        return u
    if not u.contains(z, tol):
        raise NotContained("second subspace is not contained in the first")
    # Work in coordinates of u: complement of the range of basis_u* basis_z.
    coords = adjoint(u.basis) @ z.basis
    left, s, _ = np.linalg.svd(coords, full_matrices=True)
    rank = _rank_of(s, RANK_TOL)
    if rank >= u.dim:
        return Subspace.zero(u.ambient_dim, dtype=u.basis.dtype)
    return Subspace(_canonical_phases(u.basis @ left[:, rank:]))
