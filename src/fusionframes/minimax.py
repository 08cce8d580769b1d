"""Minimax solver for worst-case erasure objectives.

The problem is always of one shape: over the affine family
``A = A0 + Z @ P`` of left inverses, minimize the largest of a fixed
list of weighted Frobenius norms of column groups of A.  This is convex
(a max of norms of affine maps).  The solver runs subgradient descent
with diminishing steps from A = A0 and then, by default, polishes the
best iterate with an SLSQP pass on the equivalent smooth program
``min t  s.t.  c_i^2 ||A S_i||_F^2 <= t``, whose constraints are convex
quadratics; the polish turns the slow O(1/sqrt(k)) subgradient tail into
machine-precision agreement with the unique minimizer where one exists.
The polish is the package's only use of scipy: ``scipy.optimize`` is
imported when the first polish runs, not when this module is imported,
so ``import fusionframes`` loads numpy only and a run that never polishes
never loads scipy.
An iteration reads every group norm of A from one reduction (column sums
of |A|^2 times a group-membership matrix) and moves A itself by the
projected subgradient, built from the active group's columns and rows of
P; as P^2 = P the step stays in the family, and the best iterate is
projected back once to drop rounding drift.  The polish moves the d x k
kernel coordinates W of ``A = A0 + W N*`` (N an orthonormal basis of the
range of P, k = n - rank T) instead of a d x n matrix Z.
Everything is deterministic: ties between active groups break toward the
lowest index and no randomness is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NonConvergence


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the worst-case solver, surfaced as CLI flags."""

    max_iters: int = 50000
    step_scale: float = 0.1
    tol: float = 1e-10
    patience: int = 500
    polish: bool = True


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of a worst-case minimization."""

    a: np.ndarray = field(repr=False)
    phi: float
    phi_start: float
    phi_subgradient: float
    iterations: int
    converged: bool
    polished: bool

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


def _polish(a0, proj, member, coeffs, a_start):
    """SLSQP pass on min t s.t. c_i^2 ||(A0 + W N*) S_i||_F^2 <= t over the
    kernel coordinates W, with the m constraints as one vector-valued
    constraint.  N is the orthonormal eigenbasis of P for eigenvalue 1;
    a Riesz problem has P = 0 and no coordinates, only t."""
    eigvals, eigvecs = np.linalg.eigh(proj)
    basis = eigvecs[:, eigvals > 0.5]
    basis_h = basis.conj().T
    w_start = (a_start - a0) @ basis
    (d, k), m = w_start.shape, member.shape[1]
    cplx = np.iscomplexobj(w_start)
    size = d * k
    # Row i of the constraint Jacobian in W is 2 c_i^2 (A masked to the
    # columns of group i) N; all m masked copies go through one product.
    mask = member.T[:, None, :]
    grad_scale = 2.0 * (coeffs * coeffs)[:, None]

    def unpack(x):
        if cplx:
            return x[:size].reshape(d, k) + 1j * x[size:2 * size].reshape(d, k)
        return x[:size].reshape(d, k)

    def fun(x):
        return x[-1] - _group_norms(a0 + unpack(x) @ basis_h, member, coeffs) ** 2

    def jac(x):
        masked = ((a0 + unpack(x) @ basis_h) * mask).reshape(m * d, -1)
        grads = grad_scale * (masked @ basis).reshape(m, size)
        out = np.empty((m, x.size))
        out[:, :size] = -grads.real
        if cplx:
            out[:, size:2 * size] = -grads.imag
        out[:, -1] = 1.0
        return out

    t0 = _group_norms(a_start, member, coeffs).max() ** 2
    parts = [w_start.real.ravel()] + ([w_start.imag.ravel()] if cplx else [])
    x0 = np.concatenate(parts + [[t0]])
    objective_grad = np.zeros(x0.size)
    objective_grad[-1] = 1.0
    res = _scipy_minimize(
        lambda x: x[-1], x0, jac=lambda x: objective_grad,
        constraints=[{"type": "ineq", "fun": fun, "jac": jac}], method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-14})
    # Every W is feasible (the affine family absorbs the constraint), so the
    # returned point is usable whenever it actually lowers the exact
    # objective, regardless of the SLSQP status flag.
    return a0 + unpack(res.x) @ basis_h


def minimize_max_group_norms(a0, kernel_projector,
                             groups: Sequence[Sequence[int]],
                             coeffs: Sequence[float],
                             config: SolverConfig | None = None) -> MinimaxResult:
    """Minimize ``max_i coeffs[i] * ||A[:, groups[i]]||_F`` over the affine
    family A = a0 + Z @ kernel_projector.

    Raises:
        NonConvergence: the iteration budget ran out while the objective
            was still improving faster than ``config.tol`` per
            ``config.patience`` iterations, and the polish pass is
            disabled or failed.
    """
    config = config or SolverConfig()
    a0 = np.asarray(a0, dtype=np.result_type(a0, 1.0))
    proj = np.asarray(kernel_projector, dtype=np.result_type(kernel_projector, 1.0))
    groups = [np.asarray(g, dtype=int) for g in groups]
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if len(groups) != coeffs.size:
        raise ValueError("one coefficient per column group is required")
    member = _membership(groups, a0.shape[1])

    # Each iteration reads the group norms of A once; they give both the
    # value of the previous step and the active group of the next one.
    norms = _group_norms(a0, member, coeffs)
    # np.argmax returns the first maximizer, which is the tie-break rule.
    i = int(norms.argmax())
    phi_start = float(norms[i])
    # The subgradient c_i A S_i / ||A S_i||_F, projected onto the kernel,
    # touches only the rows of P in group i, and it lies in the range of P.
    proj_rows = [proj[g] for g in groups]
    coeffs_sq = coeffs * coeffs
    a = best_a = a0
    best_phi = phi_start
    step_base = config.step_scale * np.linalg.norm(a0, "fro")
    history = [best_phi]
    plateaued = False
    iterations = 0
    for k in range(1, config.max_iters + 1):
        iterations = k
        if norms[i] == 0.0:
            plateaued = True
            break
        grad = (coeffs_sq[i] / norms[i]) * (a[:, groups[i]] @ proj_rows[i])
        if np.vdot(grad, grad) == 0.0:
            plateaued = True
            break
        a = a - (step_base / math.sqrt(k)) * grad
        norms = _group_norms(a, member, coeffs)
        i = int(norms.argmax())
        value = float(norms[i])
        if value < best_phi:
            best_phi = value
            best_a = a
        history.append(best_phi)
        if k >= config.patience:
            old = history[k - config.patience]
            if (old - best_phi) <= config.tol * max(best_phi, 1e-30):
                plateaued = True
                break

    # The steps stay in the family only up to rounding; one projection puts
    # the best iterate back, and its value is read again.
    best_a = a0 + (best_a - a0) @ proj
    best_phi = phi_subgradient = float(_group_norms(best_a, member, coeffs).max())
    polished = False
    if config.polish:
        a_polished = _polish(a0, proj, member, coeffs, best_a)
        value = float(_group_norms(a_polished, member, coeffs).max())
        if value <= best_phi:
            best_phi, best_a, polished = value, a_polished, True

    result = MinimaxResult(best_a, best_phi, phi_start, phi_subgradient,
                           iterations, converged=True, polished=polished)
    if not plateaued and not polished and iterations >= config.max_iters:
        raise NonConvergence(
            f"objective still improving after {config.max_iters} iterations",
            result=replace(result, converged=False))
    return result
