"""Duality of fusion frames via a coupling operator between direct sums.

A weighted family (V, v) is a dual of (W, w) when some linear map Q
between the direct-sum coordinate spaces satisfies

    synthesis(V, v) @ Q @ analysis(W, w) = identity,

which is the reconstruction guarantee: analysis coefficients of any
vector, pushed through Q and resynthesized, return the vector.  All
component-preserving duals arise from left inverses of the analysis
matrix; this module materializes that parametrization and the standard
constructions built on it (canonical dual, non-canonical duals of
overcomplete frames, conversion of weighted-projection alternate duals).

Subspace equality assertions throughout are projector-based: the
orthonormal basis produced for an operator image has an arbitrary
sign/phase, so bases are never compared entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blockop import BlockOp
from .errors import (
    NotADual,
    NotAlternateDual,
    NotAFusionFrame,
    NotBlockDiagonal,
    NotLeftInverse,
    NotOvercomplete,
    NotRiesz,
    ShapeMismatch,
    TrivialSubspace,
)
from .fusion import FusionFrame
from .linalg import (
    RANK_TOL,
    Subspace,
    _rank_of,
    adjoint,
    frobenius_norm,
    intersect,
    orth_complement_within,
    orthonormalize_many,
    singular_values_many,
    span_union,
    spectral_norm,
)

#: Default certification tolerance for duality residuals.
DEFAULT_TOL = 1e-9

#: Principal-angle tolerance for the subspace intersections used by the
#: non-canonical dual construction.
INTERSECT_TOL = 1e-8


class QKind(str, Enum):
    GENERAL = "general"
    BLOCK_DIAGONAL = "block_diagonal"
    COMPONENT_PRESERVING = "component_preserving"


@dataclass(frozen=True)
class QDualPair:
    """A certified dual pair: primal and dual fusion frames plus the
    coupling operator and the Frobenius residual of the reconstruction
    identity."""

    primal: FusionFrame
    dual: FusionFrame
    q: BlockOp
    residual: float

    def reconstruction_matrix(self):
        """The d x d matrix synthesis(dual) @ Q @ analysis(primal)."""
        return (self.dual.synthesis_matrix() @ self.q.as_matrix()
                @ self.primal.analysis_matrix())

    def classify(self, tol: float = DEFAULT_TOL) -> QKind:
        return classify_q(self.q, tol)

    def swapped(self) -> "QDualPair":
        """The reversed pair: the primal is a dual of the dual under Q*."""
        return QDualPair(self.dual, self.primal, self.q.adjoint(), self.residual)


def q_dual_residual(w: FusionFrame, v: FusionFrame, q: BlockOp) -> float:
    """Frobenius distance of synthesis(v) Q analysis(w) from the identity."""
    if w.ambient_dim != v.ambient_dim:
        raise ShapeMismatch("fusion frames live in different ambient spaces")
    if q.col_dims != w.dims or q.row_dims != v.dims:
        raise ShapeMismatch("coupling operator dimensions do not match the frames")
    recon = v.synthesis_matrix() @ q.as_matrix() @ w.analysis_matrix()
    return frobenius_norm(recon - np.eye(w.ambient_dim))


def is_q_dual(w: FusionFrame, v: FusionFrame, q: BlockOp,
              tol: float = DEFAULT_TOL) -> QDualPair:
    """Certify (v, q) as a dual of w; return the pair or raise NotADual."""
    residual = q_dual_residual(w, v, q)
    if not residual <= tol:
        raise NotADual(f"reconstruction residual {residual:.3e} exceeds tol {tol:.1e}",
                       residual=residual)
    return QDualPair(w, v, q, residual)


def classify_q(q: BlockOp, tol: float = DEFAULT_TOL) -> QKind:
    """Classify a coupling operator.

    Block-diagonal: every off-diagonal block vanishes (so Q commutes with
    the block masks).  Component-preserving: additionally every diagonal
    block maps onto its whole target block, i.e. has full row rank.  Both
    tests compare against ``tol`` times the largest singular value of Q,
    so a global scale of Q does not change the class.
    """
    if len(q.row_dims) != len(q.col_dims):
        return QKind.GENERAL
    m = len(q.row_dims)
    off_diagonal = q.block_norms()[~np.eye(m, dtype=bool)]
    svals = singular_values_many([q.block(j, j) for j in range(m)])
    # Without off-diagonal entries the largest singular value of Q is the
    # largest one of a diagonal block, and no dense SVD of Q is needed.
    if off_diagonal.any():
        cutoff = tol * spectral_norm(q.as_matrix())
        if (off_diagonal > cutoff).any():
            return QKind.GENERAL
    else:
        cutoff = tol * max((s[0] for s in svals if s.size), default=0.0)
    for need, s in zip(q.row_dims, svals):
        if need and (s.size < need or s[need - 1] <= cutoff):
            return QKind.BLOCK_DIAGONAL
    return QKind.COMPONENT_PRESERVING


@dataclass(frozen=True)
class AffineFamily:
    """All left inverses of the analysis matrix of a fusion frame.

    Members are ``pinv_member + (Z @ kernel) @ kernel*`` for arbitrary Z of
    the same shape; ``kernel`` is an orthonormal basis (n x (n - d)) of the
    kernel of the synthesis matrix, so the left-inverse identity holds for
    every member by construction.
    """

    pinv_member: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pinv_member.shape

    @property
    def is_unique(self) -> bool:
        """True when the kernel is trivial (Riesz case): one left inverse."""
        return not self.kernel.shape[1]

    def member(self, z=None):
        if z is None:
            return self.pinv_member.copy()
        z = np.asarray(z)
        if z.shape != self.pinv_member.shape:
            raise ShapeMismatch("parameter matrix has the wrong shape")
        return self.pinv_member + (z @ self.kernel) @ adjoint(self.kernel)


def _left_inverse_family(synth, svd=None) -> AffineFamily:
    """All left inverses of ``adjoint(synth)`` from one SVD T = U S V*: the
    minimal-norm one U S^-1 V* over the first d rows of V*, and the last
    n - d columns of V as the kernel basis, orthogonal to the row space of
    T to rounding whatever its conditioning.  NotAFusionFrame if rank T < d.
    ``svd`` is ``np.linalg.svd(synth)`` when the caller already has it."""
    u, s, vh = np.linalg.svd(synth) if svd is None else svd
    d = synth.shape[0]
    if _rank_of(s, RANK_TOL) < d:
        raise NotAFusionFrame("subspaces do not span the ambient space")
    return AffineFamily((u / s) @ vh[:d], adjoint(vh[d:]))


def left_inverses_parametrization(w: FusionFrame) -> AffineFamily:
    """Affine parametrization of the left inverses of the analysis matrix;
    NotAFusionFrame unless the subspaces span the ambient space."""
    return _left_inverse_family(w.synthesis_matrix())


def _checked_dual_weights(weights, v):
    """The dual weights ``v`` as an array (default: a copy of the primal
    ``weights``); ValueError unless ``v`` is one finite weight > 0 per block."""
    v = weights.copy() if v is None else np.asarray(v, dtype=float).ravel()
    if v.size != weights.size or not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("dual weights must be positive and finite, one per subspace")
    return v


def _checked_left_inverse(a, analysis, weights, v, tol: float, what: str):
    """Check a left inverse ``a`` of ``analysis`` and the dual weights ``v``
    (see _checked_dual_weights); return both as arrays.  Raises
    ShapeMismatch unless ``a`` is shaped like adjoint(analysis), and
    NotLeftInverse if the residual of ``a @ analysis = I`` exceeds tol."""
    a = np.asarray(a, dtype=np.result_type(a, 1.0))
    n, d = analysis.shape
    if a.shape != (d, n):
        raise ShapeMismatch("left inverse has the wrong shape")
    v = _checked_dual_weights(weights, v)
    resid = frobenius_norm(a @ analysis - np.eye(d))
    if not resid <= tol:
        raise NotLeftInverse(f"candidate is not a left inverse of {what} "
                             f"(residual {resid:.3e} > tol {tol:.1e})", residual=resid)
    return a, v


def _column_space_frame(a, slices, v) -> FusionFrame:
    """The fusion frame, with weights ``v``, of the column spaces of the
    column blocks ``a[:, sl]`` of a checked left inverse.  A block with no
    columns, or a numerically zero one, spans the zero subspace."""
    blocks = [a[:, sl] for sl in slices]
    spans = iter(orthonormalize_many([b for b in blocks if b.size], allow_zero=True))
    zero = Subspace.zero(a.shape[0], dtype=a.dtype)
    return FusionFrame(tuple(next(spans) if b.size else zero for b in blocks), v)


def dual_from_left_inverse(w: FusionFrame, a, v=None,
                           tol: float = DEFAULT_TOL) -> QDualPair:
    """Component-preserving dual induced by a left inverse of the analysis.

    The dual subspaces are the column spaces of the column blocks of
    ``a``; the coupling operator routes block i through the i-th column
    block scaled by 1/v_i.

    Raises:
        NotLeftInverse: if ``a @ analysis != identity`` within ``tol``.
        NotADual: if the reconstruction residual of the pair exceeds ``tol``.
    """
    a, v = _checked_left_inverse(a, w.analysis_matrix(), w.weights, v, tol,
                                 "the analysis operator")
    slices = w.block_slices()
    dual = _column_space_frame(a, slices, v)
    q = BlockOp.block_diagonal([adjoint(sub.basis) @ a[:, sl] / vi
                                for sub, sl, vi in zip(dual.subspaces, slices, v)])
    return is_q_dual(w, dual, q, tol)


def canonical_dual(w: FusionFrame, v=None, tol: float = DEFAULT_TOL) -> QDualPair:
    """The dual built from the inverse fusion frame operator.

    Dual subspaces are the images of the originals under the inverse
    fusion frame operator; it is induced by the pseudoinverse left
    inverse, so it is component preserving.
    """
    family = left_inverses_parametrization(w)
    return dual_from_left_inverse(w, family.pinv_member, v, tol)


def noncanonical_dual(w: FusionFrame, tol: float = DEFAULT_TOL) -> QDualPair:
    """A certified component-preserving dual different from every canonical one.

    Requires an overcomplete frame with nonzero subspaces.  Picks the
    first index whose subspace meets the span of the others nontrivially,
    shrinks it by that intersection, and duals the shrunken family: the
    left inverse routes block i through the projection onto the shrunken
    subspace and then the inverse of the shrunken fusion operator.  The
    dual subspace at that index has strictly smaller dimension than the
    original, which is what separates it from the canonical duals.
    """
    if not w.is_fusion_frame():
        raise NotAFusionFrame("subspaces do not span the ambient space")
    if any(s.dim == 0 for s in w.subspaces):
        raise TrivialSubspace("all subspaces must be nonzero")
    if w.total_dim == w.ambient_dim:
        raise NotOvercomplete("fusion frame is a Riesz fusion basis; "
                              "its component-preserving dual is unique")
    pivot, overlap = None, None
    for i in range(w.size):
        others = [s for j, s in enumerate(w.subspaces) if j != i]
        span_others = others[0]
        for s in others[1:]:
            span_others = span_union(span_others, s)
        candidate = intersect(w.subspaces[i], span_others, INTERSECT_TOL)
        if candidate.dim > 0:
            pivot, overlap = i, candidate
            break
    if pivot is None:
        raise NotOvercomplete("no subspace meets the span of the others; "
                              "family is numerically a Riesz fusion basis")
    shrunk = list(w.subspaces)
    shrunk[pivot] = orth_complement_within(w.subspaces[pivot], overlap, tol=1e-6)
    s_op = FusionFrame(tuple(shrunk), w.weights).fusion_operator()
    routed = [wi * small.project(sub.basis)
              for wi, small, sub in zip(w.weights, shrunk, w.subspaces)]
    a = np.linalg.solve(s_op, np.hstack(routed))
    pair = dual_from_left_inverse(w, a, tol=tol)
    if pair.dual.subspaces[pivot].dim >= w.subspaces[pivot].dim:
        raise NotOvercomplete("construction did not reduce the pivot dimension")
    return pair


def riesz_dual_containment_check(w: FusionFrame, pair: QDualPair,
                                 tol: float = DEFAULT_TOL) -> bool:
    """For a Riesz fusion basis, every block-diagonal dual must contain the
    canonical dual subspaces; verify that containment projector-wise."""
    if not (w.is_fusion_frame() and w.total_dim == w.ambient_dim):
        raise NotRiesz("containment check applies to Riesz fusion bases only")
    kind = classify_q(pair.q, tol)
    if kind == QKind.GENERAL:
        raise NotBlockDiagonal("coupling operator has off-diagonal blocks")
    canonical = canonical_dual(w, tol=max(tol, DEFAULT_TOL)).dual.subspaces
    return all(sub.contains(c, tol) for sub, c in zip(pair.dual.subspaces, canonical))


def alternate_dual_to_q_dual(w: FusionFrame, v: FusionFrame,
                             tol: float = DEFAULT_TOL) -> QDualPair:
    """Convert a weighted-projection alternate dual into a certified dual pair.

    ``v`` qualifies when summing v_i P_{V_i} S^{-1} w_i P_{W_i} over i
    reproduces the identity.  That sum is A @ analysis for the matrix A
    with column blocks v_i P_{V_i} S^{-1} B_i, so A is a left inverse and
    induces the certified dual.  Its subspaces are the images
    P_{V_i} S^{-1} W_i, which may be smaller than the V_i.

    Raises:
        NotAlternateDual: if the reconstruction identity fails.
    """
    if w.ambient_dim != v.ambient_dim:
        raise ShapeMismatch("fusion frames live in different ambient spaces")
    if w.size != v.size:
        raise ShapeMismatch("alternate dual must have one subspace per primal block")
    if not w.is_fusion_frame():
        raise NotAFusionFrame("subspaces do not span the ambient space")
    s_op = w.fusion_operator()
    a = np.hstack([vi * (sub_v.projector() @ np.linalg.solve(s_op, sub_w.basis))
                   for vi, sub_v, sub_w in zip(v.weights, v.subspaces, w.subspaces)])
    try:
        return dual_from_left_inverse(w, a, v.weights.copy(), tol)
    except NotLeftInverse as err:
        raise NotAlternateDual(
            f"weighted projection reconstruction fails (residual {err.residual:.3e})",
            residual=err.residual) from err
