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
pattern error from the Gram matrix G of the groups' reconstruction maps,
and its tables and p != 2 levels from one walk of the pattern tree (see
``_GroupErasures``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .duality import (
    DEFAULT_TOL,
    AffineFamily,
    QDualPair,
    _checked_dual_weights,
    _left_inverse_family,
    dual_from_left_inverse,
)
from .errors import (BadR, LengthMismatch, NotADual, NotAFusionFrame, NotUnitNorm,
                     NullVector)
from .frames import synthesis
from .fusion import FusionFrame
from .linalg import RANK_TOL, _rank_of, adjoint, frobenius_norm
from .minimax import (MinimaxResult, SolverConfig, _core, _group_norms, _membership,
                      minimize_max_group_norms)
from .systems import FusionFrameSystem, _certified_system_from_left_inverse_of_frame

#: Hard cap on exact pattern enumeration.
MAX_PATTERNS = 1_000_000

#: Level aggregates of ``hierarchical_optimal`` within this fraction of
#: the larger are equal: a level-r aggregate grows like sqrt(C(m-1, r-1)),
#: so its rounding grows with it.
HIERARCHY_MARGIN = 1e-9

#: Numbers per chunk of a pattern-tree walk: chunks of about _WALK / m
#: patterns bound its memory (see ``_GroupErasures._walk``).
_WALK = 1 << 15


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

    What ``hierarchical_optimal`` reads of the report, its group problem,
    its engine and its rival (the engine of the problem's mean-square
    optimum), is cached on the report, not in its fields: each is built
    once per report, by the optimizer or on first use, and shared by every
    hierarchy check.  A ``dataclasses.replace`` copy starts with an empty
    cache, so a changed report never reads another's engine.
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

    @cached_property
    def _problem(self) -> "_GroupProblem":
        """The group problem of the report's dual.  At p = 2 local vectors are
        charged exactly w_i, as ``local_mse_optimal_system`` charges them."""
        if self.optimal_system is None:
            return _GroupProblem.of_blocks(self.optimal_dual.primal)
        if self.primal_system is None:
            raise BadR("local hierarchy verification needs the primal system "
                       "recorded in the report")
        return _GroupProblem.of_local_vectors(self.primal_system, unit_norm=self.p == 2)

    @cached_property
    def _engine(self) -> "_GroupErasures":
        """The erasures of the report's own dual."""
        return _erasures(self._problem, self.optimal_dual, self.optimal_system)

    @cached_property
    def _rival(self) -> "_GroupErasures":
        """The erasures of the problem's mean-square optimum.
        ``hierarchical_optimal`` builds it after the report's own engine, so
        it is the last reader of the problem's SVD, optimum and Gram matrix,
        and all three are then dropped from the problem's cache."""
        problem = self._problem
        rival = _GroupErasures(problem, problem.mse_left_inverse)
        for name in ("svd", "mse_left_inverse", "synth_gram_t"):
            vars(problem).pop(name, None)
        return rival


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
    NotAFusionFrame unless T spans: the one spanning check of every caller,
    read from ``svd``, the one decomposition of T.
    """

    synth: np.ndarray = field(repr=False)
    groups: list = field(repr=False)
    coeffs: np.ndarray
    kind: str
    labels: Sequence

    def __post_init__(self):
        if _rank_of(self.svd[1], RANK_TOL) < self.synth.shape[0]:
            raise NotAFusionFrame("subspaces do not span the ambient space")

    @cached_property
    def svd(self) -> tuple:
        """``np.linalg.svd(synth)``: its singular values make the spanning
        check, and its factors the left-inverse family."""
        return np.linalg.svd(self.synth)

    def family(self) -> AffineFamily:
        """All left inverses of adjoint(T), from ``svd``.  Built only when an
        optimizer asks: the hierarchy check needs none.  The factors serve
        nothing else, so they are dropped from the cache here; a report
        keeps its problem for as long as it lives."""
        svd = self.svd
        del vars(self)["svd"]
        return _left_inverse_family(self.synth, svd)

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

    @cached_property
    def mse_left_inverse(self) -> np.ndarray:
        """The left inverse of adjoint(T) minimizing the sum over columns of
        c_k^2 ||A[:, k]||^2, (T D^-1 T*)^-1 T D^-1 for D = diag(c_k^2): the
        minimax core at lam = 1 in the coordinates of ``svd``, T = U S V*
        with V = vh[:d]* and A V = U S^-1.  Shared by the problem's optimizer
        and the hierarchy's rival."""
        u, s, vh = self.svd
        return _core(adjoint(vh[:len(s)]), u / s, self.column_coeffs ** 2)[0]

    def worst_case(self, solver: SolverConfig | None):
        """Minimize max_j coeffs[j] ||A[:, groups[j]]||_F over the left inverses.

        Returns the solver result and the certificate lines.  When the
        weighted group norms are all equal at the start point (the
        pseudoinverse member), that member is the theorem-backed unique
        minimizer, and the certificate says so.  ``solver_bound`` keeps phi
        sqrt(1 - gap), the certified lower bound on every left inverse.
        """
        family = self.family()
        a0 = family.pinv_member
        result = minimize_max_group_norms(a0, family.kernel, self.groups,
                                          self.coeffs, solver)
        vars(self)["solver_bound"] = result.phi * math.sqrt(1.0 - result.gap)
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


def _children(last: np.ndarray, end: int, m: int) -> tuple:
    """Parent in the chunk, j and parent * m + j of each child S + {j},
    max S < j < ``end``, of the patterns whose largest groups are ``last``,
    in lexicographic order."""
    counts = end - 1 - last
    ends = counts.cumsum()
    parent = np.arange(last.size).repeat(counts)
    j = np.arange(ends[-1]) + (end - ends)[parent]
    return parent, j, parent * m + j


@lru_cache(maxsize=None)
def _tree(m: int) -> list:
    """``_children`` of every level on m groups, for the m whose levels fit
    one walk chunk each (m <= 13): under 0.4 MB for all of them."""
    out, last = [], np.array([-1])
    for _ in range(m):
        out.append(_children(last, m, m))
        last = out[-1][1]
    return out


class _GroupErasures:
    """Erasure errors of the column groups of one reconstruction.

    The reconstruction is ``left @ adjoint(T)`` for the problem's synthesis
    matrix T; losing group j drops its map M_j = left[:, g_j] @
    adjoint(T)[g_j, :].  With the Gram matrix G_jk = Re <M_j, M_k>_F, a
    lost pattern S has error sqrt(f(S)), f(S) = 1' G_SS 1, so every table
    and level aggregate is read from G.  Since <M_j, M_k>_F sums (A* A)_ab
    H_ba over a in g_j and b in g_k, G = Re(Pi' ((A* A) o H') Pi) for A =
    ``left``, the Gram matrix H = T* T of T and the membership matrix Pi:
    no map is formed, and A* A is the one product that depends on ``left``.

    At p = 2 level aggregates are closed form; every table and other level
    reads a depth-first walk of the pattern tree (``_walk``), in O(m) per
    pattern above its last level and O(1) per pattern of that level, in a
    few MB.  Its levels are within an ulp of those of the exact sums of G's
    entries, and the engine keeps its p = inf levels.
    """

    def __init__(self, problem: _GroupProblem, left):
        member = problem.membership
        self.gram = member.T @ np.real((adjoint(left) @ left) * problem.synth_gram_t) @ member
        self.problem = problem
        self._trace = float(np.trace(self.gram))
        self._sum = float(np.sum(self.gram))
        self._worst = {}

    @property
    def size(self) -> int:
        return len(self.problem.groups)

    def _walk(self, start: int, top: int, rows: bool = False):
        """Yield (r, lost, f) for the patterns of r lost groups, start <= r
        <= top, in chunks, each level in lexicographic order; ``lost`` holds
        their groups if ``rows`` is set.

        The child S + {j}, j > max S, has f(S + {j}) = f(S) + v_S[j] and
        v_(S + {j}) = v_S + (G + G')[j], from v_{} = diag(G).  A chunk's
        children are a run of the next level, so the walk holds one chunk
        of about _WALK / m patterns per depth, and forms only children that
        can reach level ``start``.  G = hi + lo with hi on a grid so coarse
        that every sum of hi parts is exact, and f and v are carried as
        their hi and lo sums: f(S) is rounded about once.  Level 1 alone is
        diag(G) itself.
        """
        m, gram = self.size, self.gram
        if top == 1:
            yield 1, np.arange(m)[:, None], np.diagonal(gram).copy()
            return
        # No sum of up to m^2 entries of diag(G) and G + G' reaches 2^(grid + 53).
        grid = math.frexp(2.0 * max(gram.max(), -gram.min()))[1] + 2 * m.bit_length() - 52
        hi = np.ldexp(np.round(np.ldexp(gram, -grid)), grid)
        lo = gram - hi
        dh, dl, th, tl = np.diagonal(hi), np.diagonal(lo), hi + hi.T, lo + lo.T
        step = max(_WALK // m, 1)
        tree = _tree(m) if start == 1 and math.comb(m, m // 2) <= step else None

        def expand(r, fh, fl, vh, vl, last, lost):
            parent, j, flat = tree[r] if tree else _children(
                last, m - max(start - r - 1, 0), m)
            if not j.size:
                return
            fh, fl = fh[parent] + vh.ravel()[flat], fl[parent] + vl.ravel()[flat]
            if rows:
                lost = np.column_stack((lost[parent], j))
            if r + 1 >= start:
                yield r + 1, lost, fh + fl
            for s in range(0, j.size if r + 1 < top else 0, step):
                p, c = parent[s:s + step], j[s:s + step]
                yield from expand(r + 1, fh[s:s + step], fl[s:s + step],
                                  vh.take(p, axis=0) + th.take(c, axis=0),
                                  vl.take(p, axis=0) + tl.take(c, axis=0), c,
                                  lost[s:s + step] if rows else None)

        yield from expand(0, np.zeros(1), np.zeros(1), dh[None, :], dl[None, :],
                          np.array([-1]), np.empty((1, 0), dtype=np.intp))

    def table(self, r: int):
        """(ErasurePattern, error) for every pattern of ``r`` lost groups."""
        m = self.size
        if not 1 <= r <= m:
            raise BadR(f"r must lie in 1..{m}")
        _check_enumerable(m, (r,))
        kind, labels = self.problem.kind, self.problem.labels
        out = []
        for _, lost, f in self._walk(r, r, rows=True):
            out.extend((ErasurePattern(kind, tuple(labels[k] for k in row)), e)
                       for row, e in zip(lost.tolist(), np.sqrt(np.maximum(f, 0.0)).tolist()))
        return out

    def level(self, r: int, p: float) -> float:
        """p-norm of the errors of all patterns of ``r`` lost groups.

        At p = 2 each group lies in C(m-1, r-1) patterns and each pair of
        groups in C(m-2, r-2), which gives a closed form in G.  Counts past
        2^512 are divided by the same even power of two, 4^k, before they
        meet a float, and the root is multiplied back by 2^k: both steps
        are exact, so a level whose counts fit a float keeps its bits, and
        one whose counts do not is still finite.
        """
        if p != 2:
            return self.levels(p, r, r)[r]
        m, tr = self.size, self._trace
        groups = math.comb(m - 1, r - 1)
        pairs = math.comb(m - 2, r - 2) if r >= 2 else 0
        k = max(groups.bit_length() - 512, 0) // 2
        total = groups / 4 ** k * tr + pairs / 4 ** k * (self._sum - tr)
        return math.ldexp(math.sqrt(max(total, 0.0)), k)

    def levels(self, p: float, top: int | None = None, start: int = 1) -> dict:
        """Level aggregates for r = start..top, by default up to the first
        level whose pattern count exceeds MAX_PATTERNS; at p != 2 from one
        walk, whose p = inf levels the engine keeps."""
        if top is None:
            top = next((r - 1 for r in range(1, self.size + 1)
                        if math.comb(self.size, r) > MAX_PATTERNS), self.size)
        if p == 2:
            return {r: self.level(r, p) for r in range(start, top + 1)}
        kept = self._worst if p == math.inf else {}
        if any(r not in kept for r in range(start, top + 1)):
            found = {}
            for r, _, f in self._walk(start, top):
                found[r] = (max(found.get(r, 0.0), math.sqrt(max(float(f.max()), 0.0)))
                            if p == math.inf else found.get(r, 0.0)
                            + float(np.sum(np.sqrt(np.maximum(f, 0.0)) ** p)))
            kept.update((r, v if p == math.inf else v ** (1.0 / p)) for r, v in found.items())
        return {r: kept[r] for r in range(start, top + 1)}


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
    """Level-1 table and every level aggregate of an optimizer's dual, with
    the problem and the engine seeded into the report's cache."""
    engine = _erasures(problem, pair, system)
    levels = engine.levels(p)
    report = ErasureReport(
        r=1, p=p, per_pattern_errors=tuple(engine.table(1)),
        aggregate=engine.level(1, p), optimal_dual=pair,
        certificate="\n".join(lines), aggregate_by_r=levels,
        optimal_system=system, primal_system=primal, solver=solver)
    vars(report).update(_problem=problem, _engine=engine)
    return report


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
    optimal = problem.mse_left_inverse
    pair = dual_from_left_inverse(w, optimal, v, tol)
    canonical = problem.family().pinv_member
    trace_abs = abs(np.sum(problem.column_coeffs ** 2
                           * np.sum(optimal.conj() * (canonical - optimal), axis=0)))
    uniform = bool(np.all(np.abs(w.weights - w.weights[0])
                          <= 1e-12 * abs(w.weights[0])))
    lines = [
        "mean-square optimal dual (theorem-backed, unique among "
        "component-preserving duals; any optimal dual shares its "
        "reconstruction map)",
        f"trace orthogonality vs canonical competitor: {trace_abs:.3e}",
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
    vs, pair = _certified_system_from_left_inverse_of_frame(ws, problem.mse_left_inverse,
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


def hierarchical_optimal(base: ErasureReport, max_r: int,
                         samples: int = 10) -> ErasureReport:
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
    At p = inf level 1 takes the larger of that and the certified bound of
    the solver that the report's cached problem ran (a ``replace`` has none).

    Levels 1..max_r are compared in order: BadR is raised at the first
    level where the report and the optimum differ by more than
    HIERARCHY_MARGIN times the larger of the two, if the optimum is lower
    there.  An optimum that is higher at a lower level is no competitor at
    later stages.  A level is certified when the report exceeds its bound
    by at most that fraction of the bound, and "chain constant" is claimed
    only when every level is.  Both margins are relative because a level's
    aggregate, and with it its rounding, grows like sqrt(C(m-1, r-1)).  At
    p != 2 every level is enumerated, so BadR is raised if one has more
    than MAX_PATTERNS patterns.  The report's engine (with its p = inf
    levels), the optimum's, the problem and its mean-square optimum are
    built once per report and shared by its checks.  ``samples`` has no
    effect, but ValueError unless it is at least 1.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    p = base.p
    problem = base._problem
    total = len(problem.groups)
    if not 1 <= max_r <= total:
        raise BadR(f"max_r must lie in 1..{total}")
    levels = range(1, max_r + 1)
    if p != 2:
        _check_enumerable(total, levels)

    engine = base._engine
    lines = [f"hierarchy check up to r={max_r} against the mean-square optimum",
             _identity_line(engine, base.optimal_dual.residual)]
    rival = base._rival
    own, best = engine.levels(p, max_r), rival.levels(p, max_r)
    # At p = 2 the bound is the optimum's aggregate itself.
    bound = best if p == 2 else {
        r: min(1.0, math.comb(total, r) ** (1.0 / p - 0.5)) * rival.level(r, 2)
        for r in levels}
    if p == math.inf:
        bound[1] = max(bound[1], vars(problem).get("solver_bound", 0.0))
    first = next((r for r in levels
                  if abs(own[r] - best[r]) > HIERARCHY_MARGIN * max(own[r], best[r])), None)
    if first is not None and best[first] < own[first]:
        raise BadR(f"the mean-square optimum beat the optimizer at level {first}; "
                   "hierarchy verification failed")
    lines += [f"r={r}: optimizer {own[r]:.12e}, mean-square optimum {best[r]:.12e}"
              + ("" if p == 2 else f", lower bound {bound[r]:.12e}") for r in levels]
    open_levels = [r for r in levels if own[r] > bound[r] * (1.0 + HIERARCHY_MARGIN)]
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
