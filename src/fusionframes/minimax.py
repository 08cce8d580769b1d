"""Minimax solver for worst-case erasure objectives.

Over the affine family ``A = A0 + W N*`` of left inverses (N an
orthonormal basis of the kernel of the synthesis matrix), minimize the
largest of a fixed list of weighted Frobenius norms of column groups,
v_i = c_i^2 ||A S_i||_F^2 squared.  By the minimax theorem the squared
optimum is the maximum over the simplex of g(lam) = min_W lam @ v(W),
whose gradient is v at the minimizer W_lam.  W_lam solves least squares
on D^(1/2) N itself, D the per-column lam_i c_i^2: the normal equations
would square its conditioning and overstate g as some lam_i -> 0.
g(lam) is a lower bound on the squared optimum and max_i v_i at any W an
upper bound, so the relative gap between the best of each is a
certificate; ``SolverConfig.tol`` bounds it.  The solve runs with max
c = 1 and A scaled to match, the same numbers at any weight scale.

The power-1/2 optimal-design iteration lam <- lam sqrt(v) / <lam,
sqrt(v)> (Silvey, Titterington and Torsney 1978; Yu, Ann. Statist. 2010)
runs until the gap is at most ``HANDOVER_GAP`` (or tol, if larger).
Newton's method on g then polishes the last places, on the face of the
simplex spanned by the groups of positive weight: an index whose weight
reaches 0 leaves the face, and one whose v_i exceeds g(lam) joins it.  The Hessian of g is -2 Re tr(G_i B^+ G_j*), with G_i half of
group i's gradient and B = N* D N, so the KKT system reduces to the m
weights.  Where the face leaves W_lam not unique, the same problem over
those W gives the primal point, and its weights an ascent direction.
Newton only proposes lam: both bounds are the evaluated ones.  It closes
in a few steps also the gap of a group that is active at zero weight,
where the iteration alone is slow (like 1/t^2).

A gap that Newton leaves above tol raises NonConvergence at once, with
the certified bounds the solve has.  The solver needs numpy only, and
everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


def _gradients(a, basis, member, coeffs):
    """The m x d x k gradients in W of c_i^2 ||(A0 + W N*) S_i||_F^2 at A:
    2 c_i^2 (A masked to the columns of group i) N."""
    return 2.0 * (coeffs * coeffs)[:, None, None] * ((a * member.T[:, None, :]) @ basis)


def _curvature(a, basis, member, coeffs, sing, vh):
    """The Hessian of g at lam, -2 Re tr(G_i B^+ G_j*), with G_i half of
    group i's gradient at the minimizer A and B = N* D N, through the SVD
    U S V* of D^(1/2) N cut to its nonzero ``sing``: G_i B^+ G_j* is
    (G_i V S^-1)(G_j V S^-1)*."""
    scaled = vh.conj().T / sing
    f = (0.5 * _gradients(a, basis, member, coeffs) @ scaled).reshape(len(member.T), -1)
    return -2.0 * np.real(f.conj() @ f.T)


def _newton_step(lam, v, hess, face):
    """The next lam of Newton's method for g on the face of the simplex
    spanned by ``face``, in the directions of that face (sums 0): the
    model's maximizer along every direction of negative curvature, or, when
    the model rises along a direction of none, the ray along that ascent.
    The step is cut where the first weight reaches 0: that index leaves the
    face.  An index at weight 0 that the step would make negative leaves the
    face before the step."""
    while True:
        j = np.flatnonzero(face)
        sums_zero = np.linalg.eigh(np.eye(j.size) - 1.0 / j.size)[1][:, 1:]
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
    """One solve in coordinates where max c = 1: the bounds found so far,
    the W that attains the upper one and the lam that attains the lower."""

    def __init__(self, a0, basis, member, coeffs):
        self.a0, self.basis, self.member, self.coeffs = a0, basis, member, coeffs
        self.basis_h = basis.conj().T
        self.col_weights = member * (coeffs * coeffs)
        self.w = np.zeros((a0.shape[0], basis.shape[1]), dtype=np.result_type(a0, basis))
        self.shift, self.moved = self.w, np.zeros(member.shape[1], dtype=bool)
        self.upper, self.lower = float(self.errors(self.w).max()), 0.0
        self.dual = np.zeros(member.shape[1])
        self.iterations, self.polished = 0, False

    def errors(self, w):  # v at A = A0 + W N*
        return _group_norms(self.a0 + w @ self.basis_h, self.member, self.coeffs) ** 2

    def gap(self) -> float:
        return max(self.upper - self.lower, 0.0) / self.upper

    def keep(self, w, v, polished=False):
        """Keep W if it lowers the upper bound; a polished W also on a tie."""
        if v.max() < self.upper or (polished and v.max() <= self.upper):
            self.w, self.upper, self.polished = w, float(v.max()), polished

    def weighted(self, lam):
        """D^(1/2) N and the lstsq cut-off that drops its singular values
        below _SINGULAR times the largest weight root: N is orthonormal, so
        that is the scale of D^(1/2) N even when the weighted rows of N are
        all 0, and a direction that only zero weights fix is cut."""
        root = np.sqrt(self.col_weights @ lam)[:, None]
        scaled = root * self.basis
        size = np.linalg.norm(scaled)
        return root, scaled, _SINGULAR * root.max() / size if size > 0.0 else 1.0

    def evaluate(self, lam, polished=False):
        """W_lam and v(W_lam), both bounds updated: g(lam) = lam @ v."""
        root, scaled, rcond = self.weighted(lam)
        w = np.linalg.lstsq(scaled, -root * self.a0.conj().T, rcond=rcond)[0].conj().T
        v = self.errors(w)
        self.keep(w, v, polished)
        g = float(lam @ v)
        if g > self.lower:
            self.lower, self.dual = g, lam
        return w, v

    def run(self, config: SolverConfig) -> None:
        # With no kernel A0 is the only point, and lam on its largest group
        # makes g(lam) = max_i v_i at once.
        m = self.member.shape[1]
        lam = (np.full(m, 1.0 / m) if self.basis.shape[1]
               else np.eye(m)[self.errors(self.w).argmax()])
        lam, w, v = self.reweight(lam, max(HANDOVER_GAP, config.tol), config.max_iters)
        if self.gap() > config.tol and self.iterations:
            self.newton(lam, w, v, config)

    def reweight(self, lam, target, max_iters):
        """Power-1/2 from lam until the gap is at most ``target`` or the
        iterations reach ``max_iters``; returns the last lam evaluated, with
        its W_lam and v."""
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
        """Newton's method on g from lam (W_lam and v evaluated), on the face
        of the simplex where lam is positive or v_i exceeds g(lam), until the
        gap is at most tol and stops shrinking.  It only proposes lam."""
        previous = math.inf
        for _ in range(_NEWTON_STEPS):
            tiny = (lam > 0.0) & (lam < _TINY)
            if tiny.any():
                lam = np.where(tiny, 0.0, lam) / lam[~tiny].sum()
                w, v = self.evaluate(lam, polished=True)
            g = float(lam @ v)
            _, scaled, rcond = self.weighted(lam)
            _, sing, vh = np.linalg.svd(scaled)
            rank = int(np.sum(sing > rcond * sing[0]))
            w, v, target = self.off_face(lam, g, w, v, vh[rank:].conj().T, config)
            if target is None:
                hess = _curvature(self.a0 + w @ self.basis_h, self.basis, self.member,
                                  self.coeffs, sing[:rank], vh[:rank])
                target = _newton_step(lam, v, hess, (lam > 0.0) | (v > g))
            found = self.line_search(lam, g, target, config.tol)
            if found is None:
                break
            lam, w, v = found
            if self.gap() <= config.tol and (self.gap() <= 0.0 or self.gap() > 0.5 * previous):
                break
            previous = self.gap()

    def off_face(self, lam, g, w, v, null, config):
        """Where W_lam is not unique (W_lam + Z (N V0)* all minimize the
        Lagrangian), the min-norm one may let a group off the face whose
        columns N V0 moves exceed g.  The same problem over those W gives
        the best of them.  If a group still exceeds g, that problem's
        weights mu are an ascent direction, at slope mu @ v - g: returns the
        best W, its v and the first trial along mu - lam, placed by a
        quadratic through g(mu); else None for the trial."""
        loose = (lam == 0.0) & (np.sum(np.abs(self.basis @ null) ** 2, axis=1)
                                @ self.member > _SINGULAR)
        if not v[loose].max(initial=-np.inf) > g:
            return w, v, None
        sub = _Solve(self.a0 + w @ self.basis_h, self.basis @ null,
                     self.member[:, loose], self.coeffs[loose])
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
