"""Erasure error vectors and loss-optimal duals.

During blind reconstruction the receiver applies a fixed dual pair to
whatever analysis coefficients arrive.  If the blocks (or individual
local coefficients) in a pattern are lost, the residual reconstruction
operator is the certified identity with the surviving mask removed, and
its Frobenius norm is the error charged to that pattern.  Subspace and
local-vector erasures are one problem: losing column groups of a left
inverse of one synthesis matrix T.  One ``_GroupProblem`` holds T, the
groups and one cost per group for both kinds: c_i = w_i for block i, and
c_k = w_i ||f_k|| for local vector f_k of block i, except that the local
mean-square optimum charges exactly w_i, since unit norm is its
hypothesis.  The problem gives the mean-square optimal left inverse and
the worst-case one (via the minimax solver).  One engine reads every
pattern error from the Gram matrix of the groups' reconstruction maps,
formed in kernel form from n x n products (see ``_GroupErasures``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from .duality import (
    DEFAULT_TOL,
    QDualPair,
    _checked_dual_weights,
    _left_inverse_family,
    dual_from_left_inverse,
)
from .errors import (BadR, LengthMismatch, NotADual, NotAFusionFrame, NotUnitNorm,
                     NullVector)
from .frames import synthesis
from .fusion import FusionFrame
from .linalg import adjoint, frobenius_norm, matrix_rank
from .minimax import (MinimaxResult, SolverConfig, _group_norms, _membership,
                      minimize_max_group_norms)
from .systems import FusionFrameSystem, _certified_system_from_left_inverse_of_frame

#: Hard cap on exact pattern enumeration.
MAX_PATTERNS = 1_000_000

#: Patterns gathered from the Gram matrix at once; bounds the memory of
#: an enumeration.
_CHUNK = 512


def _check_enumerable(m: int, levels, error=BadR) -> None:
    """Raise ``error`` at the first level r in ``levels`` whose patterns of
    r lost groups out of ``m`` exceed MAX_PATTERNS: the one cap on exact
    enumeration, for tables, the p != 2 hierarchy and the CLI."""
    for r in levels:
        count = math.comb(m, r)
        if count > MAX_PATTERNS:
            raise error(f"{count} patterns of size {r} exceed the exact enumeration cap "
                        f"({MAX_PATTERNS}); lower r or the number of blocks")


@dataclass(frozen=True)
class ErasurePattern:
    """A set of lost blocks ('subspace') or lost local vectors ('local').

    Local indices are (block, position) pairs in lexicographic order.
    """

    kind: str
    indices: tuple

    @property
    def r(self) -> int:
        return len(self.indices)

    def as_key(self) -> str:
        if self.kind == "subspace":
            return "{" + ",".join(str(i) for i in self.indices) + "}"
        return "{" + ",".join(f"({i},{l})" for i, l in self.indices) + "}"


@dataclass(frozen=True)
class ErasureReport:
    """Error table for one erasure level plus the optimizer that produced it.

    ``aggregate`` is the p-norm of the per-pattern errors at level ``r``;
    ``aggregate_by_r`` extends that to every computed level.  The
    certificate is human-readable text recording which optimality claims
    are theorem-backed and which are not proven.
    """

    r: int
    p: float
    per_pattern_errors: tuple
    aggregate: float
    optimal_dual: QDualPair
    certificate: str
    aggregate_by_r: dict = field(default_factory=dict)
    optimal_system: Optional[FusionFrameSystem] = None
    primal_system: Optional[FusionFrameSystem] = None
    solver: Optional[MinimaxResult] = None


#: Certificate wording per erasure kind: the start point of the worst-case
#: solver, and the uniformity condition that makes it the unique minimizer.
_START_WORDING = {
    "subspace": ("canonical dual",
                 "uniform erasure-norm condition holds: canonical dual is"),
    "local": ("pseudoinverse left-inverse",
              "uniform local erasure-norm condition holds: the inverse-"
              "frame-operator system is"),
}


@dataclass(frozen=True)
class _GroupProblem:
    """Erasures of column groups of the left inverses of one synthesis matrix.

    ``synth`` is T; every dual reconstructs with some left inverse A of
    adjoint(T).  An erasure loses one of the contiguous column ``groups``,
    named by ``labels`` in patterns of ``kind``, and is charged
    ``coeffs[j]`` times the Frobenius norm of A's columns in group j.
    Subspace erasures (``of_blocks``) and local-vector erasures
    (``of_local_vectors``) are the two instances.  Construction raises
    NotAFusionFrame unless T spans: the one spanning check of every caller.
    """

    synth: np.ndarray = field(repr=False)
    groups: list = field(repr=False)
    coeffs: np.ndarray
    kind: str
    labels: Sequence

    def __post_init__(self):
        if matrix_rank(self.synth) < self.synth.shape[0]:
            raise NotAFusionFrame("subspaces do not span the ambient space")

    @classmethod
    def of_blocks(cls, w: FusionFrame) -> "_GroupProblem":
        """Losing block i of a fusion frame costs its weight w_i."""
        return cls(w.synthesis_matrix(),
                   [np.arange(sl.start, sl.stop) for sl in w.block_slices()],
                   w.weights, "subspace", range(w.size))

    @classmethod
    def of_local_vectors(cls, ws: FusionFrameSystem,
                         unit_norm: bool = False) -> "_GroupProblem":
        """Losing local vector f_k of block i costs w_i ||f_k||.

        With ``unit_norm``, the hypothesis of the mean-square optimum, every
        ||f_k|| must be 1 within 1e-9 (else NotUnitNorm) and is charged as
        exactly 1: a computed norm of 0.9999999999999999 would move the last
        bit of that optimum.
        """
        norms = [np.linalg.norm(frame.vectors, axis=1) for frame in ws.local_frames]
        if unit_norm:
            for i, block in enumerate(norms):
                deviation = np.max(np.abs(block - 1.0))
                if deviation > 1e-9:
                    raise NotUnitNorm(f"local frame {i} has non-unit vectors "
                                      f"(max deviation {deviation:.3e})")
            norms = [np.ones_like(block) for block in norms]
        return cls(synthesis(ws.global_frame(weighted=True)),
                   [[k] for k in range(ws.total_local)],
                   np.repeat(ws.ff.weights, ws.local_sizes) * np.concatenate(norms),
                   "local", [(i, l) for i, size in enumerate(ws.local_sizes)
                             for l in range(size)])

    @cached_property
    def membership(self) -> np.ndarray:
        """The n x m 0/1 matrix Pi whose column j marks the columns of group j."""
        return _membership(self.groups, self.synth.shape[1])

    @cached_property
    def synth_gram_t(self) -> np.ndarray:
        """The transpose of H = T* T, the n x n Gram matrix of the synthesis matrix."""
        return self.synth.T @ self.synth.conj()

    @property
    def column_coeffs(self) -> np.ndarray:
        """The cost of each group repeated over its columns."""
        return np.repeat(self.coeffs, [len(g) for g in self.groups])

    def mse_left_inverse(self) -> np.ndarray:
        """The left inverse of adjoint(T) minimizing the sum over columns of
        c_k^2 ||A[:, k]||^2: (T D^-1 T*)^-1 T D^-1, D = diag(c_k^2)."""
        scaled = self.synth / self.column_coeffs ** 2
        return np.linalg.solve(scaled @ adjoint(self.synth), scaled)

    def worst_case(self, solver: SolverConfig | None):
        """Minimize max_j coeffs[j] ||A[:, groups[j]]||_F over the left inverses.

        Returns the solver result and the certificate lines.  When the
        weighted group norms are all equal at the start point (the
        pseudoinverse member), that member is the theorem-backed unique
        minimizer, and the certificate says so.
        """
        family = _left_inverse_family(self.synth)
        a0 = family.pinv_member
        result = minimize_max_group_norms(a0, family.kernel_projector, self.groups,
                                          self.coeffs, solver)
        start_norms = _group_norms(a0, self.membership, self.coeffs)
        start_name, uniform_text = _START_WORDING[self.kind]
        lines = [
            f"worst-case objective: {result.phi:.12e}, certified gap {result.gap:.3e} "
            f"after {result.iterations} reweighting iterations (polished: {result.polished})",
            f"{start_name} objective: {result.phi_start:.12e} "
            f"(gap {result.gap_from_start:.3e})",
        ]
        if np.ptp(start_norms) <= 1e-9 * np.max(start_norms):
            dev = frobenius_norm(result.a - a0)
            lines.append(f"{uniform_text} the theorem-backed unique minimizer "
                         f"(deviation {dev:.3e})")
        else:
            lines.append("no uniformity condition: numerical minimizer, "
                         "no uniqueness claim")
        return result, lines


class _GroupErasures:
    """Erasure errors of the column groups of one reconstruction.

    The reconstruction is ``left @ adjoint(T)`` for the problem's synthesis
    matrix T; losing group j drops its map M_j = left[:, g_j] @
    adjoint(T)[g_j, :].  With the Gram matrix G_jk = Re <M_j, M_k>_F, a
    lost pattern S has error sqrt(1' G_SS 1), so every table and level
    aggregate is read from G.  Since <M_j, M_k>_F sums (A* A)_ab H_ba over
    a in g_j and b in g_k, G = Re(Pi' ((A* A) o H') Pi) for A = ``left``,
    the Gram matrix H = T* T of T and the membership matrix Pi: no map is
    formed, and A* A is the one product that depends on ``left``.
    """

    def __init__(self, problem: _GroupProblem, left):
        member = problem.membership
        self.gram = member.T @ np.real((adjoint(left) @ left) * problem.synth_gram_t) @ member
        self.problem = problem
        self._trace = float(np.trace(self.gram))
        self._sum = float(np.sum(self.gram))

    @property
    def size(self) -> int:
        return len(self.problem.groups)

    def _errors(self, r: int):
        """Pattern indices and errors in lexicographic order, in chunks."""
        patterns = combinations(range(self.size), r)
        while True:
            lost = np.array(list(islice(patterns, _CHUNK)), dtype=np.intp).reshape(-1, r)
            if not lost.size:
                return
            sums = self.gram[lost[:, :, None], lost[:, None, :]].sum(axis=(1, 2))
            yield lost, np.sqrt(np.maximum(sums, 0.0))

    def table(self, r: int):
        """(ErasurePattern, error) for every pattern of ``r`` lost groups."""
        m = self.size
        if not 1 <= r <= m:
            raise BadR(f"r must lie in 1..{m}")
        _check_enumerable(m, (r,))
        kind, labels = self.problem.kind, self.problem.labels
        out = []
        for lost, errs in self._errors(r):
            out.extend((ErasurePattern(kind, tuple(labels[k] for k in row)), e)
                       for row, e in zip(lost.tolist(), errs.tolist()))
        return out

    def level(self, r: int, p: float) -> float:
        """p-norm of the errors of all patterns of ``r`` lost groups.

        At p = 2 each group lies in C(m-1, r-1) patterns and each pair of
        groups in C(m-2, r-2), which gives a closed form in G.
        """
        if p == 2:
            m, tr = self.size, self._trace
            pairs = math.comb(m - 2, r - 2) if r >= 2 else 0
            total = math.comb(m - 1, r - 1) * tr + pairs * (self._sum - tr)
            return math.sqrt(max(total, 0.0))
        errs = (e for _, e in self._errors(r))
        if p == math.inf:
            return max(float(np.max(e)) for e in errs)
        return sum(float(np.sum(e ** p)) for e in errs) ** (1.0 / p)

    def levels(self, p: float) -> dict:
        """Level aggregates from r = 1 up to the first level whose pattern
        count exceeds MAX_PATTERNS."""
        table = {}
        for r in range(1, self.size + 1):
            if math.comb(self.size, r) > MAX_PATTERNS:
                break
            table[r] = self.level(r, p)
        return table


def _erasures(problem: _GroupProblem, pair: QDualPair | None = None,
              system: FusionFrameSystem | None = None) -> _GroupErasures:
    """The erasures of a dual ``pair`` or, for local vectors, of a dual
    ``system``: either reconstructs with its synthesis after its coupling."""
    dual, coupling = (pair.dual, pair.q) if system is None else (system.ff, system.coupling())
    return _GroupErasures(problem, dual.synthesis_matrix() @ coupling.as_matrix())


def error_vector(pair: QDualPair, r: int):
    """Errors of all patterns of ``r`` lost subspaces, in lexicographic order.

    Each entry is the Frobenius norm of the reconstruction operator with
    only the lost blocks kept, which equals the deviation caused by
    running blind reconstruction without them.
    """
    return _erasures(_GroupProblem.of_blocks(pair.primal), pair).table(r)


def _report(problem: _GroupProblem, p: float, pair: QDualPair, lines, solver=None,
            system=None, primal=None) -> ErasureReport:
    """Level-1 table and every level aggregate of an optimizer's dual."""
    engine = _erasures(problem, pair, system)
    return ErasureReport(
        r=1, p=p, per_pattern_errors=tuple(engine.table(1)),
        aggregate=engine.level(1, p), optimal_dual=pair,
        certificate="\n".join(lines), aggregate_by_r=engine.levels(p),
        optimal_system=system, primal_system=primal, solver=solver)


def mse_optimal_dual(w: FusionFrame, v=None, tol: float = DEFAULT_TOL) -> ErasureReport:
    """The unique mean-square-optimal component-preserving dual.

    Works for every erasure level at once: the same dual minimizes the
    2-norm of the error vector for each r, so the report carries one
    aggregate per level.  Its dual subspaces are the originals mapped
    through the inverse of the plain (unweighted) projector sum.  The
    certificate records the trace-orthogonality identity that drives the
    optimality proof, evaluated against the canonical dual as a
    competitor.
    """
    problem = _GroupProblem.of_blocks(w)
    optimal = problem.mse_left_inverse()
    pair = dual_from_left_inverse(w, optimal, v, tol)
    canonical = _left_inverse_family(problem.synth).pinv_member
    trace_abs = abs(np.sum(problem.column_coeffs ** 2
                           * np.sum(optimal.conj() * (canonical - optimal), axis=0)))
    uniform = bool(np.all(np.abs(w.weights - w.weights[0])
                          <= 1e-12 * abs(w.weights[0])))
    lines = [
        "mean-square optimal dual (theorem-backed, unique among "
        "component-preserving duals; any optimal dual shares its "
        "reconstruction map)",
        f"trace orthogonality vs canonical competitor: {trace_abs:.3e} (tol 1e-9)",
    ]
    if uniform:
        lines.append("uniform weights: optimal dual coincides with the canonical dual")
    return _report(problem, 2.0, pair, lines)


def worst_case_optimal_dual(w: FusionFrame, v=None,
                            solver: SolverConfig | None = None,
                            tol: float = DEFAULT_TOL) -> ErasureReport:
    """Minimize the largest single-erasure error over all component-
    preserving duals.

    The affine left-inverse parametrization removes the duality
    constraint; the objective is the max over blocks of the weighted
    Frobenius norm of the corresponding column group.  The certificate
    reports the final objective, iteration count, and the gap against
    the canonical dual; when the weighted canonical erasure norms are
    already all equal, uniqueness of the canonical minimizer is
    theorem-backed and stated.
    """
    problem = _GroupProblem.of_blocks(w)
    v = _checked_dual_weights(w.weights, v)
    result, lines = problem.worst_case(solver)
    pair = dual_from_left_inverse(w, result.a, v, tol)
    return _report(problem, math.inf, pair, lines, result)


# -- local-vector erasures ----------------------------------------------------

def local_error_vector(ws: FusionFrameSystem, vs: FusionFrameSystem, r: int):
    """Errors of all patterns of ``r`` lost local frame vectors.

    Raises:
        LengthMismatch: if the two systems are not index-aligned.
    """
    if vs.local_sizes != ws.local_sizes:
        raise LengthMismatch("systems are not index-aligned")
    return _erasures(_GroupProblem.of_local_vectors(ws), system=vs).table(r)


def local_mse_optimal_system(ws: FusionFrameSystem, v=None,
                             tol: float = DEFAULT_TOL) -> ErasureReport:
    """The unique mean-square-optimal dual system for unit-norm local frames.

    The optimal local duals are the unweighted global frame operator
    inverse applied to each local vector, scaled by the reciprocal weight
    products; the dual subspaces are the images of the originals under
    that inverse.

    Raises:
        NotUnitNorm: if some local frame vector does not have unit norm.
    """
    problem = _GroupProblem.of_local_vectors(ws, unit_norm=True)
    vs, pair = _certified_system_from_left_inverse_of_frame(ws, problem.mse_left_inverse(),
                                                            v, tol)
    certificate = (
        "mean-square optimal dual system for unit-norm local frames "
        "(theorem-backed; unique among component-preserving dual systems, "
        "and every optimal dual system shares its reconstruction map)")
    return _report(problem, 2.0, pair, [certificate], system=vs, primal=ws)


def local_worst_case_optimal_system(ws: FusionFrameSystem,
                                    solver: SolverConfig | None = None,
                                    tol: float = DEFAULT_TOL) -> ErasureReport:
    """Minimize the largest single-local-vector erasure error over dual
    systems built from left inverses of the global frame analysis.

    Losing local vector f_k of block i is charged w_i ||f_k|| times the
    norm of column k of the left inverse.

    Raises:
        NullVector: if some local frame vector is zero.
    """
    problem = _GroupProblem.of_local_vectors(ws)
    zero = np.flatnonzero(problem.coeffs <= 0.0)
    if zero.size:
        raise NullVector(f"local frame {problem.labels[zero[0]][0]} contains a zero vector")
    result, lines = problem.worst_case(solver)
    vs, pair = _certified_system_from_left_inverse_of_frame(ws, result.a, tol=tol)
    return _report(problem, math.inf, pair, lines, result, vs, ws)


# -- hierarchical verification --------------------------------------------------

def _identity_line(engine: _GroupErasures, residual: float) -> str:
    """Check 1'G1 = d, the identity behind the hierarchy's lower bounds;
    NotADual if it fails.

    The group maps sum to A T* and ||A T* - I||_F is the pair's recorded
    ``residual``, so |1'G1 - d| = |2 Re tr(A T* - I) + ||A T* - I||^2| is at
    most residual (2 sqrt(d) + residual).  1'G1 sums terms (A*A)_ab H_ba
    whose moduli add up to at most n tr G (Cauchy-Schwarz over the n
    columns), which bounds its rounding.
    """
    d, n = engine.problem.synth.shape
    gap = abs(engine._sum - d)
    bound = residual * (2.0 * math.sqrt(d) + residual) + 1e-12 * n * engine._trace
    if not gap <= bound:
        raise NotADual(f"group maps do not sum to the identity: |1'G1 - d| = {gap:.3e} "
                       f"exceeds {bound:.3e}", residual=residual)
    return f"identity 1'G1 = d holds: |1'G1 - d| = {gap:.3e} (bound {bound:.3e})"


def hierarchical_optimal(base: ErasureReport, max_r: int, samples: int = 10,
                         seed: int = 0, margin: float = 1e-9) -> ErasureReport:
    """Verify the report's dual level by level, in hierarchy order.

    Stage r of the hierarchy minimizes the level-r aggregate over the duals
    optimal at every lower level.  At every p the one rival is the
    problem's mean-square optimum; at p = 2 it charges local vectors
    exactly w_i, as ``local_mse_optimal_system`` does, so a local p = 2
    report needs unit-norm local frames.  The group maps of every left
    inverse sum to A T* = I_d, so 1'G1 = d (checked against the bound the
    pair's residual allows; NotADual if it fails), and the level-r sum of
    squares C(m-2, r-1) tr G + C(m-2, r-2) d is smallest at the optimum.
    By the power-mean inequality over the N_r = C(m, r) patterns, no left
    inverse has a level-r aggregate below min(1, N_r^(1/p - 1/2)) times
    the optimum's level-r 2-norm; at p = 2 that is the optimum's aggregate.

    Levels 1..max_r are compared in order: BadR is raised at the first
    level where the report and the optimum differ by more than ``margin``,
    if the optimum is lower there.  An optimum that is higher at a lower
    level is no competitor at later stages.  A level is certified when the
    report is within ``margin`` of its bound, and "chain constant" is
    claimed only when every level is.  At p != 2 every level is enumerated,
    so BadR is raised if one has more than MAX_PATTERNS patterns.

    Two engines are built and no random numbers drawn: ``samples`` and
    ``seed`` have no effect.  ValueError unless ``samples`` is at least 1.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    p = base.p
    if base.optimal_system is None:
        problem = _GroupProblem.of_blocks(base.optimal_dual.primal)
    elif base.primal_system is None:
        raise BadR("local hierarchy verification needs the primal system "
                   "recorded in the report")
    else:
        problem = _GroupProblem.of_local_vectors(base.primal_system, unit_norm=p == 2)
    total = len(problem.groups)
    if not 1 <= max_r <= total:
        raise BadR(f"max_r must lie in 1..{total}")
    levels = range(1, max_r + 1)
    if p != 2:
        _check_enumerable(total, levels)

    engine = _erasures(problem, base.optimal_dual, base.optimal_system)
    lines = [f"hierarchy check up to r={max_r} against the mean-square optimum",
             _identity_line(engine, base.optimal_dual.residual)]
    rival = _GroupErasures(problem, problem.mse_left_inverse())
    own = {r: engine.level(r, p) for r in levels}
    best = {r: rival.level(r, p) for r in levels}
    # At p = 2 the bound is the optimum's aggregate itself.
    bound = best if p == 2 else {
        r: min(1.0, math.comb(total, r) ** (1.0 / p - 0.5)) * rival.level(r, 2)
        for r in levels}
    first = next((r for r in levels if abs(own[r] - best[r]) > margin), None)
    if first is not None and best[first] < own[first]:
        raise BadR(f"the mean-square optimum beat the optimizer at level {first}; "
                   "hierarchy verification failed")
    lines += [f"r={r}: optimizer {own[r]:.12e}, mean-square optimum {best[r]:.12e}"
              + ("" if p == 2 else f", lower bound {bound[r]:.12e}") for r in levels]
    open_levels = [r for r in levels if own[r] > bound[r] + margin]
    if not open_levels:
        lines.append(
            "chain constant: with 1'G1 = d the level-r sum of squares is "
            "C(m-2,r-1) tr G + C(m-2,r-2) d, increasing in the level-1 objective "
            "tr G, so the mean-square optimum attains the optimal aggregate at "
            "every level (theorem-backed)" if p == 2 else
            "chain constant: at every level the optimizer attains the lower bound "
            "min(1, C(m,r)^(1/p-1/2)) times the mean-square optimum's level-r "
            "2-norm, below which no dual lies (theorem-backed)")
    else:
        lines.append("lower bound not attained at r=" + ",".join(map(str, open_levels))
                     + ": optimality above the bound is not proven there")
    return replace(base, aggregate_by_r=own,
                   certificate=base.certificate + "\n" + "\n".join(lines))
