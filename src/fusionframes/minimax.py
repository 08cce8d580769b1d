"""Minimax solver for worst-case erasure objectives.

Over the affine family ``A = A0 + W N*`` of left inverses (N an
orthonormal basis of the range of the kernel projector P), minimize the
largest of a fixed list of weighted Frobenius norms of column groups,
v_i = c_i^2 ||A S_i||_F^2 squared.  By the minimax theorem the squared
optimum is the maximum over the simplex of g(lam) = min_W lam @ v(W),
whose gradient is v at the minimizer W_lam.  The solver runs the power-1/2
optimal-design iteration lam <- lam sqrt(v) / <lam, sqrt(v)> (Silvey,
Titterington and Torsney 1978; Yu, Ann. Statist. 2010).  W_lam solves
least squares on D^(1/2) N itself, D the per-column lam_i c_i^2: the
normal equations would square its conditioning and overstate g as some
lam_i -> 0.  g(lam) is a lower bound on the squared optimum and max_i v_i
at any W an upper bound, so the relative gap between the best of each is
a certificate; ``SolverConfig.tol`` bounds it.  The iteration runs with
max c = 1 and A scaled to match, the same numbers at any weight scale.

By default an SLSQP pass on ``min t  s.t.  v_i <= t`` over W polishes
the last places, and the KKT multipliers of the polished point give a
lower bound that closes the gap also where the iteration is slow.  The
polish is the package's only use of scipy, imported when the first
polish runs, so ``import fusionframes`` loads numpy only.  Everything is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NonConvergence


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the worst-case solver, surfaced as CLI flags.  ``step_scale``
    and ``patience`` steered an earlier subgradient method and have no effect."""

    max_iters: int = 50000
    step_scale: float = 0.1
    tol: float = 1e-10
    patience: int = 500
    polish: bool = True


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of a worst-case minimization.  ``phi_subgradient`` is the
    objective before the polish; ``gap`` is the certified (upper - lower) /
    upper on the squared objective at ``a``, a few ulps below 0 at worst."""

    a: np.ndarray = field(repr=False)
    phi: float
    phi_start: float
    phi_subgradient: float
    iterations: int
    converged: bool
    polished: bool
    gap: float

    @property
    def gap_from_start(self) -> float:
        return self.phi_start - self.phi


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


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call so that
    importing the package loads numpy only."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _gradients(a, basis, member, coeffs):
    """The m x d x k gradients in W of c_i^2 ||(A0 + W N*) S_i||_F^2 at A:
    2 c_i^2 (A masked to the columns of group i) N."""
    return 2.0 * (coeffs * coeffs)[:, None, None] * ((a * member.T[:, None, :]) @ basis)


def _polish(a0, basis, member, coeffs, w_start):
    """SLSQP pass on min t s.t. c_i^2 ||(A0 + W N*) S_i||_F^2 <= t over the
    kernel coordinates W (their real and imaginary parts) from ``w_start``,
    with the m constraints as one vector-valued constraint; returns the
    final W.  A Riesz problem has no coordinates, only t."""
    basis_h = basis.conj().T

    def unpack(x):
        return x[:-1].view(w_start.dtype).reshape(w_start.shape)

    def fun(x):
        return x[-1] - _group_norms(a0 + unpack(x) @ basis_h, member, coeffs) ** 2

    def jac(x):
        grads = _gradients(a0 + unpack(x) @ basis_h, basis, member, coeffs)
        flat = grads.reshape(len(grads), -1).view(float)
        return np.hstack([-flat, np.ones((len(grads), 1))])

    t0 = _group_norms(a0 + w_start @ basis_h, member, coeffs).max() ** 2
    x0 = np.append(w_start.ravel().view(float), t0)
    objective_grad = np.append(np.zeros(x0.size - 1), 1.0)
    res = _scipy_minimize(
        lambda x: x[-1], x0, jac=lambda x: objective_grad,
        constraints=[{"type": "ineq", "fun": fun, "jac": jac}], method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-14})
    # Every W is feasible (the affine family absorbs the constraint), so the
    # caller keeps the returned point whenever it does not raise the exact
    # objective, regardless of the SLSQP status flag.
    return unpack(res.x)


def _kkt_weights(a, basis, member, coeffs, candidates):
    """The lam on the simplex, zero outside ``candidates``, that makes
    sum_i lam_i grad v_i(A) least: at an optimal A, its KKT multipliers.
    Any lam on the simplex gives a lower bound, so negative entries are cut."""
    flat = _gradients(a, basis, member, coeffs)[candidates].reshape(candidates.sum(), -1)
    ones = np.ones((flat.shape[0], 1))
    kkt = np.block([[np.real(flat.conj() @ flat.T), ones], [ones.T, np.zeros((1, 1))]])
    lam = np.zeros(member.shape[1])
    lam[candidates] = np.linalg.lstsq(kkt, np.eye(kkt.shape[0])[-1], rcond=None)[0][:-1]
    lam = np.clip(lam, 0.0, None)
    return lam / lam.sum()


def minimize_max_group_norms(a0, kernel_projector,
                             groups: Sequence[Sequence[int]],
                             coeffs: Sequence[float],
                             config: SolverConfig | None = None) -> MinimaxResult:
    """Minimize ``max_i coeffs[i] * ||A[:, groups[i]]||_F`` over the affine
    family A = a0 + Z @ kernel_projector.  Raises NonConvergence when the
    certified gap is above ``config.tol`` after ``config.max_iters``
    iterations (and the polish, if enabled)."""
    config = config or SolverConfig()
    a0 = np.asarray(a0, dtype=np.result_type(a0, 1.0))
    groups = [np.asarray(g, dtype=int) for g in groups]
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if len(groups) != coeffs.size:
        raise ValueError("one coefficient per column group is required")
    member = _membership(groups, a0.shape[1])
    eigvals, eigvecs = np.linalg.eigh(np.asarray(kernel_projector))
    basis = eigvecs[:, eigvals > 0.5]
    basis_h = basis.conj().T
    # c_i ||A S_i|| = (c_i / s) ||s A S_i||: iterate with max c = 1 on s A.
    scale = float(coeffs.max())
    unit, a0_unit = coeffs / scale, scale * a0
    col_weights = member * (unit * unit)
    rhs = -a0_unit.conj().T

    def errors(w):  # v at A = A0 + W N*
        return _group_norms(a0_unit + w @ basis_h, member, unit) ** 2

    def evaluate(lam):  # W_lam and v(W_lam): g(lam) = lam @ v
        root = np.sqrt(col_weights @ lam)[:, None]
        w = np.linalg.lstsq(root * basis, root * rhs, rcond=None)[0].conj().T
        return w, errors(w)

    best_w = np.zeros((a0.shape[0], basis.shape[1]), dtype=np.result_type(a0, basis))
    v = errors(best_w)
    best_upper, lower = float(v.max()), 0.0
    phi_start, phi_subgradient, polished = math.sqrt(best_upper), None, False
    # With no kernel A0 is the only point, and lam on its largest group
    # makes g(lam) = max_i v_i at once.
    lam = np.full(v.size, 1.0 / v.size) if basis.shape[1] else np.eye(v.size)[v.argmax()]
    iterations = 0
    # With the polish, the loop hands over at gap sqrt(tol); if the polished
    # point's KKT weights do not close the gap, it resumes to tol.
    for target in ([math.sqrt(config.tol)] if config.polish else []) + [config.tol]:
        while best_upper - lower > target * best_upper and iterations < config.max_iters:
            iterations += 1
            w, v = evaluate(lam)
            if v.max() < best_upper:
                best_w, best_upper = w, float(v.max())
            lower = max(lower, float(lam @ v))
            lam = lam * np.sqrt(v)
            lam /= lam.sum()
        if config.polish:
            phi_subgradient = phi_subgradient or math.sqrt(best_upper)
            w = _polish(a0_unit, basis, member, unit, best_w)
            v = errors(w)
            if v.max() <= best_upper:
                best_w, best_upper, polished = w, float(v.max()), True
            if best_upper - lower > config.tol * best_upper:
                kkt = _kkt_weights(a0_unit + best_w @ basis_h, basis, member, unit,
                                   errors(best_w) >= lower)
                lower = max(lower, float(kkt @ evaluate(kkt)[1]))
        if best_upper - lower <= config.tol * best_upper:
            break

    result = MinimaxResult(a0 + (best_w / scale) @ basis_h, math.sqrt(best_upper),
                           phi_start, phi_subgradient or math.sqrt(best_upper),
                           iterations, converged=True, polished=polished,
                           gap=(best_upper - lower) / best_upper)
    if result.gap > config.tol:
        raise NonConvergence(
            f"certified gap {result.gap:.3e} above tol {config.tol:.3e} "
            f"after {iterations} iterations", result=replace(result, converged=False))
    return result
