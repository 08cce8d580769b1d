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
    adjoint,
    frobenius_norm,
    intersect,
    orth_complement_within,
    orthonormalize,
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
    if residual > tol:
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
    off_diagonal = [q.block(j, i) for j in range(m) for i in range(m) if i != j]
    diagonal = [q.block(j, j) for j in range(m)]
    svals = [np.linalg.svd(blk, compute_uv=False) for blk in diagonal]
    # Without off-diagonal entries the largest singular value of Q is the
    # largest one of a diagonal block, and no dense SVD of Q is needed.
    if any(blk.any() for blk in off_diagonal):
        cutoff = tol * spectral_norm(q.as_matrix())
        if any(frobenius_norm(blk) > cutoff for blk in off_diagonal):
            return QKind.GENERAL
    else:
        cutoff = tol * max((s[0] for s in svals if s.size), default=0.0)
    for need, blk, s in zip(q.row_dims, diagonal, svals):
        if need and (blk.shape[1] < need or s.size < need or s[need - 1] <= cutoff):
            return QKind.BLOCK_DIAGONAL
    return QKind.COMPONENT_PRESERVING


@dataclass(frozen=True)
class AffineFamily:
    """All left inverses of the analysis matrix of a fusion frame.

    Members are ``pinv_member + Z @ kernel_projector`` for arbitrary Z of
    the same shape; ``kernel_projector`` is the orthogonal projector onto
    the kernel of the synthesis matrix, so the left-inverse identity holds
    for every member by construction.
    """

    pinv_member: np.ndarray = field(repr=False)
    kernel_projector: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pinv_member.shape

    @property
    def is_unique(self) -> bool:
        """True when the kernel is trivial (Riesz case): one left inverse."""
        return bool(frobenius_norm(self.kernel_projector) <= 1e-12)

    def member(self, z=None):
        if z is None:
            return self.pinv_member.copy()
        z = np.asarray(z)
        if z.shape != self.pinv_member.shape:
            raise ShapeMismatch("parameter matrix has the wrong shape")
        return self.pinv_member + z @ self.kernel_projector


def _left_inverse_family(synth) -> AffineFamily:
    """All left inverses of ``adjoint(synth)`` from one pseudoinverse.

    The pseudoinverse of the synthesis matrix, transposed, is the
    minimal-norm left inverse, and the kernel projector is the identity
    minus the row-space projector.  This keeps the conditioning linear in
    that of the synthesis matrix.
    """
    synth_pinv = np.linalg.pinv(synth, rcond=RANK_TOL)
    return AffineFamily(adjoint(synth_pinv), np.eye(synth.shape[1]) - synth_pinv @ synth)


def left_inverses_parametrization(w: FusionFrame) -> AffineFamily:
    """Affine parametrization of the left inverses of the analysis matrix."""
    if not w.is_fusion_frame():
        raise NotAFusionFrame("subspaces do not span the ambient space")
    return _left_inverse_family(w.synthesis_matrix())


def _subspace_from_block(block, tol: float = RANK_TOL) -> Subspace:
    """Column space of an operator block, allowing the zero subspace."""
    block = np.asarray(block)
    if block.size == 0:
        return Subspace.zero(block.shape[0], dtype=np.result_type(block, 1.0))
    s = np.linalg.svd(block, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0 or not np.isfinite(s[0]):
        return Subspace.zero(block.shape[0], dtype=np.result_type(block, 1.0))
    return orthonormalize(block, tol)


def dual_from_left_inverse(w: FusionFrame, a, v=None,
                           tol: float = DEFAULT_TOL) -> QDualPair:
    """Component-preserving dual induced by a left inverse of the analysis.

    The dual subspaces are the column spaces of the column blocks of
    ``a``; the coupling operator routes block i through the i-th column
    block scaled by 1/v_i.

    Raises:
        NotLeftInverse: if ``a @ analysis != identity`` within ``tol``.
    """
    a = np.asarray(a, dtype=np.result_type(a, 1.0))
    if v is None:
        v = w.weights.copy()
    v = np.asarray(v, dtype=float).ravel()
    if a.shape != (w.ambient_dim, w.total_dim):
        raise ShapeMismatch("left inverse has the wrong shape")
    if v.size != w.size or np.any(v <= 0):
        raise ValueError("dual weights must be positive, one per subspace")
    resid = frobenius_norm(a @ w.analysis_matrix() - np.eye(w.ambient_dim))
    if resid > tol:
        raise NotLeftInverse(
            f"candidate is not a left inverse of the analysis operator "
            f"(residual {resid:.3e} > tol {tol:.1e})")
    slices = w.block_slices()
    dual_subs, q_blocks = [], []
    for i, sl in enumerate(slices):
        block = a[:, sl]
        sub = _subspace_from_block(block)
        dual_subs.append(sub)
        q_blocks.append((adjoint(sub.basis) @ block) / v[i])
    dual = FusionFrame(tuple(dual_subs), v)
    q = BlockOp.block_diagonal(q_blocks)
    return is_q_dual(w, dual, q, tol=max(tol, 10 * resid + 1e-12))


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
    shrinks it by that intersection, and duals the shrunken family.  The
    dual subspace at that index has strictly smaller dimension than the
    original, which is what separates it from the canonical duals.
    """
    if not w.is_fusion_frame():
        raise NotAFusionFrame("subspaces do not span the ambient space")
    if any(s.dim == 0 for s in w.subspaces):
        raise TrivialSubspace("all subspaces must be nonzero")
    report = w.classify()
    if not report.is_overcomplete:
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
    shrunk_ff = FusionFrame(tuple(shrunk), w.weights.copy())
    s_op = shrunk_ff.fusion_operator()

    dual_subs, q_blocks = [], []
    for i, sub in enumerate(w.subspaces):
        small = shrunk[i]
        if small.dim == 0:
            dual_subs.append(Subspace.zero(w.ambient_dim, dtype=w.dtype))
            q_blocks.append(np.zeros((0, sub.dim)))
            continue
        image = np.linalg.solve(s_op, small.basis)
        dual_sub = orthonormalize(image)
        dual_subs.append(dual_sub)
        # Route block i through: project onto the shrunken subspace, then
        # apply the inverse of the shrunken fusion operator.
        shrink_proj = small.basis @ (adjoint(small.basis) @ sub.basis)
        q_blocks.append(adjoint(dual_sub.basis) @ np.linalg.solve(s_op, shrink_proj))
    dual = FusionFrame(tuple(dual_subs), w.weights.copy())
    pair = is_q_dual(w, dual, BlockOp.block_diagonal(q_blocks), tol)
    if dual_subs[pivot].dim >= w.subspaces[pivot].dim:
        raise NotOvercomplete("construction did not reduce the pivot dimension")
    return pair


def riesz_dual_containment_check(w: FusionFrame, pair: QDualPair,
                                 tol: float = DEFAULT_TOL) -> bool:
    """For a Riesz fusion basis, every block-diagonal dual must contain the
    canonical dual subspaces; verify that containment projector-wise."""
    if not w.classify().is_riesz:
        raise NotRiesz("containment check applies to Riesz fusion bases only")
    kind = classify_q(pair.q, tol)
    if kind == QKind.GENERAL:
        raise NotBlockDiagonal("coupling operator has off-diagonal blocks")
    s_op = w.fusion_operator()
    for i, sub in enumerate(w.subspaces):
        canonical_i = orthonormalize(np.linalg.solve(s_op, sub.basis))
        if not pair.dual.subspaces[i].contains(canonical_i, tol):
            return False
    return True


def alternate_dual_to_q_dual(w: FusionFrame, v: FusionFrame,
                             tol: float = DEFAULT_TOL) -> QDualPair:
    """Convert a weighted-projection alternate dual into a certified dual pair.

    ``v`` qualifies when summing v_i P_{V_i} S^{-1} w_i P_{W_i} over i
    reproduces the identity.  The certified dual subspaces are the images
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
    d = w.ambient_dim
    recon = np.zeros((d, d), dtype=np.result_type(w.dtype, v.dtype))
    for wi, vi, sub_w, sub_v in zip(w.weights, v.weights, w.subspaces, v.subspaces):
        recon = recon + wi * vi * (sub_v.projector()
                                   @ np.linalg.solve(s_op, sub_w.projector()))
    resid = frobenius_norm(recon - np.eye(d))
    if resid > tol:
        raise NotAlternateDual(
            f"weighted projection reconstruction fails (residual {resid:.3e})",
            residual=resid)
    blocks = []
    for vi, sub_v, sub_w in zip(v.weights, v.subspaces, w.subspaces):
        blocks.append(vi * (sub_v.projector()
                            @ np.linalg.solve(s_op, sub_w.basis)))
    a = np.hstack(blocks)
    return dual_from_left_inverse(w, a, v.weights.copy(), tol)
