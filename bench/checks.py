"""Reference mathematics for the benchmark's correctness checks.

Everything here is plain numpy on plain arrays: no function of the
library is called, so a wrong answer from the library cannot also make
its own check pass.

Notation.  A reconstruction problem is a synthesis matrix ``T`` (d x n),
a partition of its columns into groups and one positive coefficient per
group.  A left inverse ``A`` (d x n, ``A T* = I``) is charged
``c_i ||A S_i||_F`` for losing group i.  Group j's reconstruction map is
``M_j = A S_j S_j* T*``; a lost pattern S leaves the error
``||sum_{j in S} M_j||_F``.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative singular-value cut-off for the numerical rank of a spanning set.
RANK_TOL = 1e-10
#: The reweighting iteration stops once its relative gap is below this.
GAP_TOL = 1e-12


def orth_basis(spanning):
    """Orthonormal basis of the column space (numerical rank at RANK_TOL)."""
    u, s, _ = np.linalg.svd(np.asarray(spanning), full_matrices=False)
    return u[:, : int(np.sum(s > RANK_TOL * s[0]))]


def group_maps(left, right, groups):
    """Reconstruction map of each column group: left[:, g] @ right[g, :]."""
    return [left[:, g] @ right[g, :] for g in groups]


def gram(maps):
    """G_jk = Re <M_j, M_k>_F."""
    flat = np.array([m.ravel() for m in maps])
    return np.real(flat.conj() @ flat.T)


def mse_level_aggregate(g, r):
    """2-norm over all patterns of r lost groups, from the Gram matrix alone.

    Each group lies in C(m-1, r-1) patterns and each pair of groups in
    C(m-2, r-2), so the sum of squared pattern errors is
    C(m-1,r-1) tr G + C(m-2,r-2) (1'G1 - tr G).
    """
    m = g.shape[0]
    tr = float(np.trace(g))
    pairs = math.comb(m - 2, r - 2) if r >= 2 else 0
    total = math.comb(m - 1, r - 1) * tr + pairs * (float(np.sum(g)) - tr)
    return math.sqrt(max(total, 0.0))


def reconstruction_residual(maps, d):
    """Frobenius distance of sum_j M_j from the identity."""
    return float(np.linalg.norm(sum(maps) - np.eye(d), "fro"))


def max_group_error(maps):
    """p = infinity single-erasure objective: max_j ||M_j||_F."""
    return max(float(np.linalg.norm(m, "fro")) for m in maps)


def reweighting_bound(synth, groups, coeffs, lam=None, max_iters=3000):
    """Optimal-design bound for min_A max_i c_i^2 ||A S_i||_F^2, A T* = I.

    By the minimax theorem the optimum equals max over the simplex of
    g(lam) = tr((T D_lam^{-1} T*)^{-1}), D_lam = diag(lam_i c_i^2 I).
    g is evaluated in its kernel (least-squares) form, which only ever
    multiplies by lam and so cannot overflow as some lam_i -> 0:
    g(lam) = min_W ||D^{1/2} (A0* + N W)||_F^2 with A0 = (T T*)^{-1} T and
    N an orthonormal basis of ker T.  dg/dlam_i is group i's error v_i
    at the minimizer, which drives the multiplicative optimal-design
    iteration lam <- lam * sqrt(v) / <lam, sqrt(v)>; the square root is
    the power for which Yu (Ann. Statist. 2010) proves monotone
    convergence on this A-optimality-type criterion, where power one can
    oscillate.  g(lam) is a lower bound and
    max_i v_i (the objective of a feasible A) an upper bound on the
    squared optimum.  A given ``lam`` is used as is (g is homogeneous of
    degree one); the iteration keeps lam on the simplex.

    Returns ``(lower, upper, iterations)`` as objective values (square
    roots).  With ``max_iters=0`` and a given ``lam`` it evaluates
    sqrt(g(lam)) once, which for lam = 1 is the mean-square optimum.
    """
    synth = np.asarray(synth)
    d, n = synth.shape
    m = len(groups)
    coeffs = np.asarray(coeffs, dtype=float)
    # The problem is invariant under a global scale of the coefficients
    # (the objective scales with it), so solve it with max c = 1.
    c_scale = float(np.max(coeffs))
    c2 = (coeffs / c_scale) ** 2
    a0 = np.linalg.solve(synth @ synth.conj().T, synth)
    vh = np.linalg.svd(synth)[2]
    kernel = vh[d:, :].conj().T                      # n x (n - d)
    col_group = np.empty(n, dtype=int)
    for i, grp in enumerate(groups):
        col_group[grp] = i
    lam = np.full(m, 1.0 / m) if lam is None else np.asarray(lam, dtype=float)

    def group_errors(lam):
        a = a0
        if kernel.shape[1]:
            # Least squares on D^{1/2} N itself, not the normal equations
            # N* D N, whose squared conditioning would make g(lam) come out
            # too large (and so not a lower bound) as lam_i -> 0.
            root = np.sqrt(lam * c2)[col_group][:, None]
            w = np.linalg.lstsq(root * kernel, -root * a0.conj().T, rcond=None)[0]
            a = a0 + (kernel @ w).conj().T
        col_sq = np.sum(np.abs(a) ** 2, axis=0)
        return c2 * np.bincount(col_group, weights=col_sq, minlength=m)

    v = group_errors(lam)
    lower = float(lam @ v)
    upper = float(np.max(v))
    iterations = 0
    while iterations < max_iters and upper - lower > GAP_TOL * upper:
        iterations += 1
        lam = lam * np.sqrt(v)
        lam /= np.sum(lam)
        v = group_errors(lam)
        lower = max(lower, float(lam @ v))
        upper = min(upper, float(np.max(v)))
    return math.sqrt(lower) * c_scale, math.sqrt(upper) * c_scale, iterations
