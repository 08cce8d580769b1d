"""Fusion frames: weighted subspace families on a direct-sum coordinate space.

Elements of the direct sum are held in coordinates with respect to the
orthonormal basis stored in each subspace, so every operator between
direct sums is a finite matrix.  The basis of each subspace is fixed at
construction; changing it is an explicit unitary change of coordinates
(see :meth:`FusionFrame.rotate_block_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NotAFusionFrame
from .linalg import RANK_TOL, Subspace, adjoint, frobenius_norm, matrix_rank, orthonormalize

#: Relative tolerance for tightness / Parseval / uniformity classification.
CLASSIFY_TOL = 1e-9


def block_slices(dims: Sequence[int]) -> list[slice]:
    """Where each block sits in the concatenation of blocks of sizes ``dims``."""
    out, start = [], 0
    for n in dims:
        out.append(slice(start, start + n))
        start += n
    return out


@dataclass(frozen=True)
class BlockVector:
    """Element of a direct sum, stored block by block in coordinates."""

    blocks: tuple

    @classmethod
    def from_concat(cls, vec, dims: Sequence[int]) -> "BlockVector":
        vec = np.asarray(vec)
        return cls(tuple(vec[sl] for sl in block_slices(dims)))

    def concat(self):
        parts = [np.asarray(b).ravel() for b in self.blocks]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


@dataclass(frozen=True)
class ClassificationReport:
    """Structural flags of a weighted subspace family."""

    is_fusion_frame: bool
    is_tight: bool
    is_parseval: bool
    is_riesz: bool
    is_orthonormal_basis: bool
    is_overcomplete: bool
    is_uniform_weight: bool
    is_equi_dimensional: bool
    bounds: tuple[float, float] | None
    tol: float = CLASSIFY_TOL

    def as_dict(self) -> dict:
        d = {
            "is_fusion_frame": self.is_fusion_frame,
            "is_tight": self.is_tight,
            "is_parseval": self.is_parseval,
            "is_riesz": self.is_riesz,
            "is_orthonormal_basis": self.is_orthonormal_basis,
            "is_overcomplete": self.is_overcomplete,
            "is_uniform_weight": self.is_uniform_weight,
            "is_equi_dimensional": self.is_equi_dimensional,
            "tol": self.tol,
        }
        d["bounds"] = list(self.bounds) if self.bounds is not None else None
        return d


@dataclass(frozen=True)
class FusionFrame:
    """Weighted family of subspaces of a common ambient space.

    Weights must be strictly positive.  Zero-dimensional subspaces are
    allowed (they occur as degenerate duals); they contribute nothing to
    the synthesis operator.
    """

    subspaces: tuple[Subspace, ...]
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        subs = tuple(self.subspaces)
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(subs) == 0:
            raise ValueError("a fusion frame needs at least one subspace")
        if len(subs) != w.size:
            raise ValueError("one weight per subspace is required")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        d = subs[0].ambient_dim
        if any(s.ambient_dim != d for s in subs):
            raise ValueError("all subspaces must share the ambient dimension")
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_spanning_sets(cls, spanning_sets, weights) -> "FusionFrame":
        """Build from raw spanning matrices (columns span each subspace,
        whose dimension is their numerical rank at RANK_TOL)."""
        subs = tuple(orthonormalize(np.asarray(m)) for m in spanning_sets)
        return cls(subs, np.asarray(weights, dtype=float))

    # -- basic shape ----------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def size(self) -> int:
        return len(self.subspaces)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def dtype(self):
        return np.result_type(*(s.basis.dtype for s in self.subspaces))

    def block_slices(self) -> list[slice]:
        return block_slices(self.dims)

    # -- operators ------------------------------------------------------------

    def synthesis_matrix(self):
        """d x (sum of dims) matrix [w_1 B_1 | ... | w_m B_m]."""
        cols = [w * s.basis for w, s in zip(self.weights, self.subspaces)]
        return np.hstack(cols) if cols else np.zeros((self.ambient_dim, 0))

    def analysis_matrix(self):
        """Adjoint of the synthesis matrix; realizes f -> (w_i P_i f) in coordinates."""
        return adjoint(self.synthesis_matrix())

    def fusion_operator(self):
        """Weighted sum of orthogonal projectors, sum w_i^2 P_i."""
        d = self.ambient_dim
        s = np.zeros((d, d), dtype=self.dtype)
        for w, sub in zip(self.weights, self.subspaces):
            if sub.dim:
                s = s + (w * w) * sub.projector()
        return s

    def analyze(self, vec) -> BlockVector:
        """Coordinates of (w_i P_i f) block by block."""
        vec = np.asarray(vec)
        return BlockVector(tuple(
            w * sub.coords(vec) for w, sub in zip(self.weights, self.subspaces)
        ))

    def synthesize(self, bv: BlockVector):
        """Weighted sum of the ambient vectors the coordinate blocks represent."""
        out = np.zeros(self.ambient_dim, dtype=self.dtype)
        for w, sub, block in zip(self.weights, self.subspaces, bv.blocks):
            if sub.dim:
                out = out + w * (sub.basis @ np.asarray(block))
        return out

    # -- analysis -------------------------------------------------------------

    def is_fusion_frame(self, tol: float = RANK_TOL) -> bool:
        return matrix_rank(self.synthesis_matrix(), tol) == self.ambient_dim

    def fusion_bounds(self, tol: float = RANK_TOL) -> tuple[float, float]:
        """Optimal bounds: extreme eigenvalues of the fusion frame operator.

        Raises:
            NotAFusionFrame: if the subspaces do not span the ambient space.
        """
        if not self.is_fusion_frame(tol):
            raise NotAFusionFrame("subspaces do not span the ambient space")
        eigs = np.linalg.eigvalsh(self.fusion_operator())
        return float(eigs[0]), float(eigs[-1])

    def classify(self, tol: float = CLASSIFY_TOL) -> ClassificationReport:
        """Structural report: frame property, tightness, Riesz/orthonormal, etc.

        Riesz detection is an integer dimension count (sum of dims equals
        the ambient dimension) combined with the spanning test, never a
        numerical tightness judgement.
        """
        spans = self.is_fusion_frame()
        bounds = None
        is_tight = is_parseval = False
        if spans:
            eigs = np.linalg.eigvalsh(self.fusion_operator())
            lo, hi = bounds = float(eigs[0]), float(eigs[-1])
            is_tight = (hi - lo) <= tol * hi
            is_parseval = is_tight and abs(hi - 1.0) <= tol
        is_riesz = spans and (self.total_dim == self.ambient_dim)
        uniform = bool(np.all(np.abs(self.weights - self.weights[0])
                              <= 1e-12 * abs(self.weights[0])))
        equi = len(set(self.dims)) == 1
        mutually_orth = True
        for i in range(self.size):
            for j in range(i + 1, self.size):
                bi, bj = self.subspaces[i].basis, self.subspaces[j].basis
                if bi.size and bj.size and frobenius_norm(adjoint(bi) @ bj) > tol:
                    mutually_orth = False
                    break
            if not mutually_orth:
                break
        is_orthonormal = (is_riesz and mutually_orth
                          and bool(np.all(np.abs(self.weights - 1.0) <= tol)))
        return ClassificationReport(
            is_fusion_frame=spans,
            is_tight=is_tight,
            is_parseval=is_parseval,
            is_riesz=is_riesz,
            is_orthonormal_basis=is_orthonormal,
            is_overcomplete=spans and not is_riesz,
            is_uniform_weight=uniform,
            is_equi_dimensional=equi,
            bounds=bounds,
            tol=tol,
        )

    # -- coordinates ----------------------------------------------------------

    def rotate_block_basis(self, index: int, unitary) -> "FusionFrame":
        """Replace the basis of one subspace by basis @ unitary.

        This is the documented unitary change of block coordinates: all
        downstream coordinate matrices for that block change by the same
        unitary, while the subspace itself is untouched.
        """
        unitary = np.asarray(unitary)
        sub = self.subspaces[index]
        if unitary.shape != (sub.dim, sub.dim):
            raise ValueError("rotation must be square of the block dimension")
        if not frobenius_norm(adjoint(unitary) @ unitary - np.eye(sub.dim)) <= 1e-10:
            raise ValueError("rotation must be unitary")
        subs = list(self.subspaces)
        subs[index] = Subspace(sub.basis @ unitary)
        return FusionFrame(tuple(subs), self.weights.copy())
