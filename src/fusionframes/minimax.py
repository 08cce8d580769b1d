"""Minimax solver for worst-case erasure objectives.

Over the left inverses ``A = A0 + W N*`` (N an orthonormal basis of the
kernel of the synthesis matrix) minimize the largest v_i = c_i^2 ||A
S_i||_F^2.  By the minimax theorem the squared optimum is the maximum over
the simplex of g(lam) = min_A sum_j D_j ||a_j||^2, D the per-column lam_i
c_i^2, whose gradient is v at the minimizer.  Max_i v_i at any W bounds it
above, a certified bound on g(lam) below, and ``SolverConfig.tol`` bounds
their relative gap.  The solve runs with max c = 1 and A scaled to match.

The core, the library's one weighted least squares (the mean-square
optimal left inverse is its lam = 1 call): with V (n x p) an orthonormal
basis of the kernel's complement, T = V* and B = A0 V, one factorization
of M = T D^-1 T* gives Z = B M^-1, A_lam = Z T D^-1 and W_lam = (A_lam -
A0) N.  By Lagrangian weak duality (Boyd and Vandenberghe, Convex
Optimization, 5.1-5.2) g(lam) >= 2 Re <Z, B> - sum_j ||Z t_j||^2 / D_j
for every Z, so an inexact Z only lowers it; less the rounding margin of
``_core_bound``, which only the solver computes, it is the only number in
the lower bound.  Newton's Hessian -2 Re E' ((A' conj A) o C) E (E the
column weights, C = N (N* D N)^+ N*) takes C from the same factors.  On a
face, where columns O weigh at most ``_CORE_CUT`` times the largest, one
SVD of D^(1/2) N gives the min-norm W_lam, C and the null space that
Newton leaves the face by, and the bound comes from the core on the other
columns in Q, a basis of range(T_O)^perp.

The power-1/2 optimal-design iteration lam <- lam sqrt(v) / <lam,
sqrt(v)> (Silvey, Titterington and Torsney 1978; Yu, Ann. Statist. 2010)
hands over at gap ``HANDOVER_GAP`` to Newton's method on g, on the face of
the groups of positive weight or v_i above lam @ v; where W_lam is not
unique, the problem over those W gives the point and an ascent direction.
A gap left above tol raises NonConvergence at once.  Numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NonConvergence


@dataclass(frozen=True)
class SolverConfig:
    """The worst-case solver's budget, surfaced as the CLI flags
    ``--max-iters`` and ``--solver-tol``: at most ``max_iters`` reweighting
    iterations to bring the certified gap to ``tol``."""

    max_iters: int = 50000
    tol: float = 1e-10


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of a worst-case minimization.  ``iterations`` counts the
    reweighting iterations, and ``polished`` says whether ``a`` came from
    a Newton step rather than the reweighting; ``gap`` is the certified
    (upper - lower) / upper on the squared objective at ``a``, 0 where
    rounding puts the lower bound above the upper."""

    a: np.ndarray = field(repr=False)
    phi: float
    phi_start: float
    iterations: int
    converged: bool
    polished: bool
    gap: float

    @property
    def gap_from_start(self) -> float:
        return self.phi_start - self.phi


#: The certified gap at which the reweighting hands over to Newton: the
#: largest of 1e-1 ... 1e-6 at which Newton certified every problem of a
#: sweep over random frames and systems.
HANDOVER_GAP = 1e-2
#: Newton steps, and step halvings in each, before the solve gives up: a
#: step back onto the face has risen only within 2^-11 of its first trial.
_NEWTON_STEPS = 30
_HALVINGS = 20
#: Singular values of D^(1/2) N below this times the largest weight root
#: are 0 (N is orthonormal, so that is the scale of D^(1/2) N).
_SINGULAR = 1e-12
#: Newton sets a weight below this to 0: a group on its way out would
#: leave B near singular and the Newton model poor.
_TINY = 1e-6
#: Curvature below this share of the largest is none; a slope along such a
#: direction counts above this share of the largest v_i.
_FLAT = 1e-10
_FLAT_SLOPE = 1e-13
#: A column weight at most this share of the largest is 0 to the core.
_CORE_CUT = 1e-10
_EPS = np.finfo(float).eps


def _membership(groups, n: int) -> np.ndarray:
    """The n x m 0/1 matrix whose column i marks the columns of group i."""
    member = np.zeros((n, len(groups)))
    for i, g in enumerate(groups):
        member[g, i] = 1.0
    return member


def _group_norms(a, member, coeffs):
    """``coeffs[i] * ||A[:, groups[i]]||_F`` for every group at once: the
    column sums of |A|^2, summed per group by the membership matrix."""
    sq = (a.conj() * a).real if a.dtype.kind == "c" else a * a
    return coeffs * np.sqrt(sq.sum(axis=0) @ member)


def _phi(a, groups, coeffs) -> float:
    a = np.asarray(a)
    member = _membership([np.asarray(g, dtype=int) for g in groups], a.shape[1])
    return float(np.max(_group_norms(a, member, np.asarray(coeffs, dtype=float))))


# No library code calls this; bench/tracer.py wraps the name.
def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call so that
    importing the package loads numpy only."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _core(frame, target, dw):
    """A_lam for weights dw > 0, Z, M^-1, T D^-1 and D^-1."""
    inv_dw = 1.0 / dw
    ti = frame.conj().T * inv_dw
    minv = np.linalg.inv(ti @ frame)
    z = target @ minv
    return z @ ti, z, minv, ti, inv_dw


def _core_bound(a, z, target, dw):
    """2 Re <Z, target> - q and its margin, for the core's A_lam and Z at dw.
    A computed a_j is within e / D_j of Z t_j / D_j, e = gamma ||Z||, gamma = k
    u / (1 - k u) (Higham 3.1; ||t_j|| <= 1): q is short by at most e (2 sum_j
    ||a_j|| + e sum_j 1 / D_j); the sums, the costs (c_i^2, sum lam = 1,
    scaling) and the subtraction each by gamma (2 sum |Z o target| + q)."""
    k = target.size + a.shape[1] + target.shape[1] + 8
    gamma = k * _EPS / (2.0 - k * _EPS)
    col = (a.conj() * a).real.sum(axis=0)
    q, e = float(col @ dw), gamma * np.linalg.norm(z)
    margin = (3.0 * gamma * (2.0 * float(np.abs(z * target).sum()) + q)
              + e * (2.0 * float(np.sqrt(col).sum()) + e * float((1.0 / dw).sum())))
    return 2.0 * float(np.vdot(z, target).real) - q, margin


@lru_cache(maxsize=None)
def _sums_zero(size: int) -> np.ndarray:  # an orthonormal basis of the sums 0
    return np.linalg.eigh(np.eye(size) - 1.0 / size)[1][:, 1:]


def _newton_step(lam, v, hess, face):
    """The next lam of Newton's method for g on the face of the simplex
    spanned by ``face`` (directions summing to 0): the model's maximizer
    along every direction of negative curvature, or, when it rises along one
    of none, the ray along that ascent, cut where a weight reaches 0 (that
    index leaves the face, as does one at 0 that the step makes negative)."""
    while True:
        j = np.flatnonzero(face)
        sums_zero = _sums_zero(j.size)
        curv, axes = np.linalg.eigh(sums_zero.T @ hess[np.ix_(j, j)] @ sums_zero)
        slope = axes.T @ (sums_zero.T @ v[j])
        flat = curv >= -_FLAT * max(-curv.min(initial=0.0), np.finfo(float).tiny)
        ray = flat & (np.abs(slope) > _FLAT_SLOPE * np.abs(v[j]).max())
        if ray.any():
            coords = np.where(ray, slope, 0.0)
        else:
            coords = np.where(flat, 0.0, -slope / np.where(flat, 1.0, curv))
        step = sums_zero @ (axes @ coords)
        leaving = (lam[j] == 0.0) & (step < 0.0)
        if not leaving.any():
            break
        face[j[leaving]] = False
    direction = np.zeros_like(lam)
    direction[j] = step
    shrinking = direction < 0.0
    reach = np.min(lam[shrinking] / -direction[shrinking], initial=np.inf)
    new = lam + min(reach, np.inf if ray.any() else 1.0) * direction
    new[new < _TINY] = 0.0
    return new / new.sum()


class _Solve:
    """One solve where max c = 1: the bounds so far, the W of the upper, the
    lam and margin of the lower, and the ``frame`` V of the family A V = A0 V."""

    def __init__(self, a0, basis, member, coeffs, frame=None):
        self.a0, self.basis, self.member, self.coeffs = a0, basis, member, coeffs
        self.basis_h = basis.conj().T
        if frame is None:
            frame = np.linalg.qr((a0 - (a0 @ basis) @ self.basis_h).conj().T)[0]
        self.frame, self.target = frame, a0 @ frame
        self.col_weights = member * (coeffs * coeffs)
        self.w = np.zeros((a0.shape[0], basis.shape[1]), dtype=np.result_type(a0, basis))
        self.shift, self.moved = self.w, np.zeros(member.shape[1], dtype=bool)
        self.upper, self.lower = float(self.errors(self.w).max()), 0.0
        self.dual, self.margin = np.zeros(member.shape[1]), 0.0
        self.iterations, self.polished, self.factors = 0, False, None

    def errors(self, w):  # v at A = A0 + W N*
        return _group_norms(self.a0 + w @ self.basis_h, self.member, self.coeffs) ** 2

    def gap(self) -> float:
        return max(self.upper - self.lower, 0.0) / self.upper

    def keep(self, w, v, polished=False):
        """Keep W if it lowers the upper bound; a polished W also on a tie."""
        if v.max() < self.upper or (polished and v.max() <= self.upper):
            self.w, self.upper, self.polished = w, float(v.max()), polished

    def evaluate(self, lam, polished=False):
        """W_lam and v(W_lam), both bounds updated (no kernel: max v_i is exact).
        ``factors`` keeps lam and the core's A_lam, M^-1, T D^-1 and D^-1, or
        off the core None, the singular values of D^(1/2) N kept and its vh."""
        dw = self.col_weights @ lam
        if self.basis.shape[1] and dw.min() > _CORE_CUT * dw.max():
            a, z, *factors = _core(self.frame, self.target, dw)
            w, self.factors = (a - self.a0) @ self.basis, (lam, a, *factors)
            value, margin = _core_bound(a, z, self.target, dw)
        else:  # s is cut where s / s_1 <= _SINGULAR max root / ||D^(1/2) N||_F
            root = np.sqrt(dw)
            u, sing, vh = np.linalg.svd(root[:, None] * self.basis, full_matrices=False)
            rank = int(np.sum(sing * np.linalg.norm(sing) > _SINGULAR * root.max() * sing[:1]))
            w = -((self.a0 * root) @ u[:, :rank] / sing[:rank]) @ vh[:rank]
            self.factors = lam, None, sing[:rank], vh
        v = self.errors(w)
        self.keep(w, v, polished)
        if self.factors[1] is None:
            value, margin = (self.face_bound(dw, w) if self.basis.shape[1]
                             else (float(v.max()), 0.0))
        if value - margin > self.lower:
            self.lower, self.dual, self.margin = value - margin, lam, margin
        return w, v

    def face_bound(self, dw, w):
        """The core off O in Q (g grows with each weight; Z Q* frees A_O).  The
        margin adds 2 ||A_O||_F ||Z||_F (||V_O Q|| + n p eps ||V_O|| ||Q||) for 2
        Re <A_O, Z (V_O Q)*>, with A_O at this face's min-norm minimizer W."""
        out = dw <= _CORE_CUT * dw.max()
        _, sing, vh = np.linalg.svd(self.frame[out])
        q = vh[np.sum(sing > _SINGULAR):].conj().T
        target = self.target @ q
        a, z, *_ = _core(self.frame[~out] @ q, target, dw[~out])
        value, margin = _core_bound(a, z, target, dw[~out])
        leak = np.linalg.norm(z) * (np.linalg.norm(self.frame[out] @ q) + _EPS * self.frame.size
                                    * np.linalg.norm(self.frame[out]) * np.linalg.norm(q))
        return value, margin + 2.0 * np.linalg.norm((self.a0 + w @ self.basis_h)[:, out]) * leak

    def run(self, config: SolverConfig) -> None:
        # With no kernel, lam on the largest group certifies A0 at once.
        m = self.member.shape[1]
        lam = (np.full(m, 1.0 / m) if self.basis.shape[1]
               else np.eye(m)[self.errors(self.w).argmax()])
        lam, w, v = self.reweight(lam, max(HANDOVER_GAP, config.tol), config.max_iters)
        if self.gap() > config.tol and self.iterations:
            self.newton(lam, w, v, config)

    def reweight(self, lam, target, max_iters):
        """Power-1/2 from lam until the gap is at most ``target`` or after
        ``max_iters``; the last lam evaluated, with its W_lam and v."""
        evaluated = w = v = None
        while self.iterations < max_iters:
            self.iterations += 1
            evaluated, (w, v) = lam, self.evaluate(lam)
            if self.gap() <= target:
                break
            lam = lam * np.sqrt(v)
            lam /= lam.sum()
        return evaluated, w, v

    def newton(self, lam, w, v, config):
        """Newton's method on g from lam (W_lam and v evaluated) until the gap
        is at most tol and stops shrinking."""
        previous = math.inf
        for _ in range(_NEWTON_STEPS):
            tiny = (lam > 0.0) & (lam < _TINY)
            if tiny.any():
                lam = np.where(tiny, 0.0, lam) / lam[~tiny].sum()
                w, v = self.evaluate(lam, polished=True)
            g = float(lam @ v)
            _, a, *factors = self.factors  # of lam, the last weights evaluated
            if a is not None:
                minv, ti, inv_dw = factors
                c, target = np.diag(inv_dw) - ti.conj().T @ minv @ ti, None
            else:
                sing, vh = factors
                w, v, target = self.off_face(lam, g, w, v, vh, sing.size, config)
                a, f = self.a0 + w @ self.basis_h, self.basis @ (vh[:sing.size].conj().T / sing)
                c = f @ f.conj().T
            if target is None:  # the Hessian of g at A
                hess = -2.0 * self.col_weights.T @ np.real((a.T @ a.conj()) * c)
                target = _newton_step(lam, v, hess @ self.col_weights, (lam > 0.0) | (v > g))
            found = self.line_search(lam, g, target, config.tol)
            if found is None:
                break
            lam, w, v = found
            if self.gap() <= config.tol and (self.gap() <= 0.0 or self.gap() > 0.5 * previous):
                break
            previous = self.gap()

    def off_face(self, lam, g, w, v, vh, rank, config):
        """Where W_lam is not unique (W_lam + Z (N V0)* all minimize the
        Lagrangian), the min-norm one may let a group off the face whose
        columns N V0 moves exceed g.  The same problem over those W gives
        the best of them.  If a group still exceeds g, that problem's
        weights mu are an ascent direction, at slope mu @ v - g: returns the
        best W, its v and the first trial along mu - lam, placed by a
        quadratic through g(mu); else None for the trial.  Its frame adds N V1."""
        null = vh[rank:].conj().T
        loose = (lam == 0.0) & (np.sum(np.abs(self.basis @ null) ** 2, axis=1)
                                @ self.member > _SINGULAR)
        if not v[loose].max(initial=-np.inf) > g:
            return w, v, None
        sub = _Solve(self.a0 + w @ self.basis_h, self.basis @ null, self.member[:, loose],
                     self.coeffs[loose], np.hstack([self.frame, self.basis @ vh[:rank].conj().T]))
        sub.run(config)
        w = w + sub.w @ null.conj().T
        # The min-norm W_lam has no component along N V0: this is the move.
        self.shift, self.moved = (w @ null) @ null.conj().T, loose
        v = self.errors(w)
        self.keep(w, v, polished=True)
        if not v[loose].max() > g:
            return w, v, None
        mu = np.zeros(lam.size)
        mu[loose] = sub.dual
        slope = float(mu @ v) - g
        drop = g + slope - float(mu @ self.evaluate(mu, polished=True)[1])
        reach = min(1.0, 0.5 * slope / drop) if drop > 0.0 else 1.0
        return w, v, lam + reach * (mu - lam)

    def line_search(self, lam, g, target, tol):
        """The first of lam + 2^-s (target - lam), s = 0, 1, ..., at which g
        rises or the gap closes, with its W and v; None if there is none.
        The last move off the face applies to each W as well, but the moved
        W stands for W_lam only where the groups it moves weigh 0: at other
        weights its v is no gradient of g."""
        if np.array_equal(target, lam):
            return None
        for shrink in range(_HALVINGS):
            trial = lam + 0.5 ** shrink * (target - lam)
            w, v = self.evaluate(trial, polished=True)
            if self.shift.any():
                shifted = self.errors(w + self.shift)
                self.keep(w + self.shift, shifted, polished=True)
                if shifted.max() <= v.max() and not trial[self.moved].any():
                    w, v = w + self.shift, shifted
            if float(trial @ v) > g or self.gap() <= tol:
                return trial, w, v
        return None


def minimize_max_group_norms(a0, kernel,
                             groups: Sequence[Sequence[int]],
                             coeffs: Sequence[float],
                             config: SolverConfig | None = None) -> MinimaxResult:
    """Minimize ``max_i coeffs[i] * ||A[:, groups[i]]||_F`` over the affine
    family A = a0 + W @ kernel*, ``kernel`` an orthonormal basis (n x k) of
    the kernel of the synthesis matrix.  Raises NonConvergence when the
    certified gap is above ``config.tol`` after at most ``config.max_iters``
    reweighting iterations and Newton's method."""
    config = config or SolverConfig()
    a0 = np.asarray(a0, dtype=np.result_type(a0, 1.0))
    groups = [np.asarray(g, dtype=int) for g in groups]
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if len(groups) != coeffs.size:
        raise ValueError("one coefficient per column group is required")
    basis = np.asarray(kernel)
    # c_i ||A S_i|| = (c_i / s) ||s A S_i||: solve with max c = 1 on s A.
    scale = float(coeffs.max())
    solve = _Solve(scale * a0, basis, _membership(groups, a0.shape[1]), coeffs / scale)
    phi_start = math.sqrt(solve.upper)
    solve.run(config)
    result = MinimaxResult(a0 + (solve.w / scale) @ basis.conj().T, math.sqrt(solve.upper),
                           phi_start, solve.iterations,
                           converged=True, polished=solve.polished, gap=solve.gap())
    if result.gap > config.tol:
        raise NonConvergence(
            f"certified gap {result.gap:.3e} above tol {config.tol:.3e} "
            f"after {result.iterations} iterations", result=replace(result, converged=False))
    return result
