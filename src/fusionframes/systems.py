"""Fusion frame systems: local frames per subspace and their duality.

A fusion frame system attaches to each subspace a frame spanning it.
The coupling operator turns local scalar coefficients into direct-sum
coordinates; composing it with the subspace synthesis gives the global
weighted frame, which is what ties system duality to ordinary frame
duality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import frames as fr
from .blockop import BlockOp
from .duality import (DEFAULT_TOL, QDualPair, _checked_left_inverse, _column_space_frame,
                      is_q_dual)
from .errors import (
    InvalidSystem,
    LengthMismatch,
    NotADual,
    NotLocalDual,
    NotProjective,
    ShapeMismatch,
)
from .frames import Frame
from .fusion import FusionFrame, block_slices
from .linalg import (
    Subspace,
    adjoint,
    frobenius_norm,
    matrix_ranks,
    spectral_norm,
)

#: Tolerance for "local vector lies in its subspace" at construction.
MEMBERSHIP_TOL = 1e-9

#: Relative tolerance for projectivity of reconstruction system blocks.
PROJECTIVE_TOL = 1e-8


@dataclass(frozen=True)
class FusionFrameSystem:
    """A fusion frame together with a spanning local frame per subspace."""

    ff: FusionFrame
    local_frames: tuple[Frame, ...]

    def __post_init__(self):
        locs = tuple(self.local_frames)
        if len(locs) != self.ff.size:
            raise InvalidSystem("one local frame per subspace is required")
        # The span tests share one stacked SVD per shape, so a frame's other
        # errors are held back until every earlier frame's span is known.
        coords, bad = [], None
        for i, (sub, frame) in enumerate(zip(self.ff.subspaces, locs)):
            vecs = frame.vectors
            if frame.ambient_dim != self.ff.ambient_dim:
                bad = InvalidSystem(f"local frame {i} has wrong ambient dimension")
            elif vecs.shape[0] == 0:
                bad = InvalidSystem(f"local frame {i} is empty")
            else:
                residual = frobenius_norm(vecs.T - sub.project(vecs.T))
                if not residual <= MEMBERSHIP_TOL * max(1.0, frobenius_norm(vecs)):
                    bad = InvalidSystem(
                        f"local frame {i} has vectors outside its subspace "
                        f"(residual {residual:.3e})")
            if bad is not None:
                break
            coords.append(adjoint(sub.basis) @ vecs.T)
        for i, (sub, rank) in enumerate(zip(self.ff.subspaces, matrix_ranks(coords))):
            if rank != sub.dim:
                raise InvalidSystem(f"local frame {i} does not span its subspace")
        if bad is not None:
            raise bad
        object.__setattr__(self, "local_frames", locs)

    @property
    def local_sizes(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.local_frames)

    @property
    def total_local(self) -> int:
        return sum(self.local_sizes)

    def local_slices(self) -> list[slice]:
        return block_slices(self.local_sizes)

    def global_frame(self, weighted: bool = True) -> Frame:
        """All local vectors stacked block by block, optionally weighted."""
        rows = []
        for w, frame in zip(self.ff.weights, self.local_frames):
            rows.append((w if weighted else 1.0) * frame.vectors)
        return Frame(np.vstack(rows))

    def coupling(self) -> BlockOp:
        """Map local scalar coefficients to direct-sum coordinates.

        Block-diagonal by construction; block i holds the local synthesis
        written in the stored subspace basis.  Composed with the subspace
        synthesis it reproduces the global weighted frame synthesis.
        """
        mats = [adjoint(sub.basis) @ fr.synthesis(frame)
                for sub, frame in zip(self.ff.subspaces, self.local_frames)]
        return BlockOp.block_diagonal(mats)


def coupling_q(ws: FusionFrameSystem, vs: FusionFrameSystem) -> BlockOp:
    """The coupling-operator product routing analysis coefficients of one
    system into the other: block i is (local synthesis of G_i) after
    (local analysis of F_i), in coordinates."""
    if ws.ff.size != vs.ff.size:
        raise LengthMismatch("systems have different numbers of subspaces")
    if ws.local_sizes != vs.local_sizes:
        raise LengthMismatch("local frames must be index-aligned with equal sizes")
    return vs.coupling() @ ws.coupling().adjoint()


def is_dual_system(ws: FusionFrameSystem, vs: FusionFrameSystem,
                   tol: float = DEFAULT_TOL) -> QDualPair:
    """Certify one system as a dual of another.

    The coupling-operator product above is the candidate Q; it is
    block-diagonal by construction, so this always yields block-diagonal
    dual pairs.  Raises NotADual if the residual exceeds ``tol``.
    """
    q = coupling_q(ws, vs)
    return is_q_dual(ws.ff, vs.ff, q, tol)


def dual_system_iff_dual_frames(ws: FusionFrameSystem, vs: FusionFrameSystem,
                                tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Both sides of the equivalence between global-frame duality and
    system duality; the two booleans agree for every valid input pair."""
    as_frames = fr.is_dual_frame(ws.global_frame(True), vs.global_frame(True), tol)
    try:
        is_dual_system(ws, vs, tol)
        as_systems = True
    except NotADual:
        as_systems = False
    return as_frames, as_systems


def _check_local_dual(sub: Subspace, primal: Frame, dual: Frame,
                      tol: float) -> None:
    if primal.size != dual.size:
        raise NotLocalDual("local dual has different length than its primal")
    vecs = dual.vectors
    residual = frobenius_norm(vecs.T - sub.project(vecs.T))
    if not residual <= tol * max(1.0, frobenius_norm(vecs)):
        raise NotLocalDual("local dual vectors leave the subspace")
    resid = fr.synthesis(dual) @ fr.analysis(primal) - sub.projector()
    if not frobenius_norm(resid) <= tol:
        raise NotLocalDual("local families do not reconstruct inside the subspace")


def dual_system_from_left_inverse_of_fusion(
        ws: FusionFrameSystem, a, v=None, local_duals: Sequence[Frame] = None,
        tol: float = DEFAULT_TOL) -> FusionFrameSystem:
    """Dual system built from a left inverse of the subspace analysis matrix
    plus a dual frame for each local frame.

    The new local vectors are the left inverse applied to each local dual
    vector embedded in its own block; their spans are the dual subspaces
    of the induced component-preserving dual.  Stacked block by block,
    those images a_i B_i* G_i^T form a left inverse of the global frame
    analysis, which the frame construction below turns into the system.
    """
    if local_duals is None:
        raise NotLocalDual("local dual frames are required")
    if len(local_duals) != ws.ff.size:
        raise LengthMismatch("one local dual per subspace is required")
    a, v = _checked_left_inverse(a, ws.ff.analysis_matrix(), ws.ff.weights, v, tol,
                                 "the analysis operator")
    images = []
    for sub, primal, dual, sl in zip(ws.ff.subspaces, ws.local_frames, local_duals,
                                     ws.ff.block_slices()):
        _check_local_dual(sub, primal, dual, tol)
        images.append(a[:, sl] @ (adjoint(sub.basis) @ dual.vectors.T))   # d x L_i
    return dual_system_from_left_inverse_of_frame(ws, np.hstack(images), v, tol)


def _certified_system_from_left_inverse_of_frame(
        ws: FusionFrameSystem, a, v=None,
        tol: float = DEFAULT_TOL) -> tuple[FusionFrameSystem, QDualPair]:
    """The system of dual_system_from_left_inverse_of_frame and the dual
    pair that certifies it."""
    a, v = _checked_left_inverse(a, fr.analysis(ws.global_frame(weighted=True)),
                                 ws.ff.weights, v, tol, "the global frame analysis")
    slices = ws.local_slices()
    locals_ = tuple(Frame(a[:, sl].T / vi) for sl, vi in zip(slices, v))
    system = FusionFrameSystem(_column_space_frame(a, slices, v), locals_)
    return system, is_dual_system(ws, system, tol)


def dual_system_from_left_inverse_of_frame(
        ws: FusionFrameSystem, a, v=None,
        tol: float = DEFAULT_TOL) -> FusionFrameSystem:
    """Dual system built from a left inverse of the global weighted frame
    analysis: column blocks of the left inverse become the local duals and
    their column spaces the dual subspaces.  Both left-inverse
    constructions of a dual system assemble and certify it here."""
    return _certified_system_from_left_inverse_of_frame(ws, a, v, tol)[0]


# -- reconstruction systems ---------------------------------------------------

@dataclass(frozen=True)
class ProjectiveRS:
    """A reconstruction system whose blocks are scaled isometries.

    Each operator maps coordinate space F^{n_i} into the ambient space
    with op* op equal to a positive multiple of the identity; the scale
    roots are the implied weights.  Construction validates projectivity.
    """

    ops: tuple = field(repr=False)
    tol: float = PROJECTIVE_TOL

    def __post_init__(self):
        ops = tuple(np.asarray(t, dtype=np.result_type(t, 1.0)) for t in self.ops)
        if not ops:
            raise ValueError("a reconstruction system needs at least one block")
        d = ops[0].shape[0]
        if any(t.shape[0] != d for t in ops):
            raise ShapeMismatch("all blocks must map into the same ambient space")
        for i, t in enumerate(ops):
            if not np.isfinite(t).all():
                raise NotProjective(f"block {i} has entries that are not finite")
            w = spectral_norm(t)
            if w <= 0:
                raise NotProjective(f"block {i} is zero")
            deviation = frobenius_norm(adjoint(t) @ t - (w * w) * np.eye(t.shape[1]))
            if not deviation <= self.tol * w * w:
                raise NotProjective(
                    f"block {i} is not a scaled isometry (deviation {deviation:.3e})")
        object.__setattr__(self, "ops", ops)

    @property
    def ambient_dim(self) -> int:
        return self.ops[0].shape[0]

    @property
    def weights_implied(self) -> tuple[float, ...]:
        return tuple(spectral_norm(t) for t in self.ops)

    def synthesis_matrix(self):
        return np.hstack(self.ops)

    def operator(self):
        """The frame operator of the blocks' columns; invertible iff the ranges span."""
        return fr.frame_operator(_columns(self.ops))

    def to_system(self) -> FusionFrameSystem:
        """The fusion frame system carried by the ranges: subspaces are the
        block ranges, weights the spectral norms, local frames the scaled
        columns."""
        weights = self.weights_implied
        locals_ = tuple(Frame((t / w).T) for t, w in zip(self.ops, weights))
        return FusionFrameSystem(FusionFrame.from_spanning_sets(self.ops, weights), locals_)


def _columns(ops) -> Frame:
    """The frame of the blocks' concatenated columns."""
    return Frame(np.hstack(ops).T)


def canonical_dual_ops(ops) -> list:
    """Blocks of the canonical dual reconstruction system: the column blocks
    of the canonical dual frame of the blocks' columns (NotAFrame unless
    they span).  The result need not be projective."""
    ops = [np.asarray(t) for t in ops]
    dual = fr.synthesis(fr.canonical_dual(_columns(ops)))
    return [dual[:, sl] for sl in block_slices([t.shape[1] for t in ops])]


def projective_rs_bridge(rs: ProjectiveRS, rs_dual: ProjectiveRS,
                         tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Equivalence between reconstruction-system duality and system duality.

    Returns (dual as fusion frame systems, dual as reconstruction
    systems); the two components always agree.  Both inputs must be
    projective; converting a non-projective family raises NotProjective
    at construction, which is the documented asymmetry of this bridge.
    """
    if rs.ambient_dim != rs_dual.ambient_dim:
        raise ShapeMismatch("reconstruction systems live in different spaces")
    if len(rs.ops) != len(rs_dual.ops):
        raise LengthMismatch("reconstruction systems have different block counts")
    if any(t.shape[1] != td.shape[1] for t, td in zip(rs.ops, rs_dual.ops)):
        raise LengthMismatch("paired blocks must have equal coordinate dimensions")
    as_rs = fr.is_dual_frame(_columns(rs.ops), _columns(rs_dual.ops), tol)
    try:
        is_dual_system(rs.to_system(), rs_dual.to_system(), tol)
        as_systems = True
    except NotADual:
        as_systems = False
    return as_systems, as_rs
