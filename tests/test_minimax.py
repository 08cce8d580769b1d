"""Worst-case solver: convexity of the objective, closed-form agreement,
stationarity at the start point, the certified gap and the
non-convergence contract, Newton's polish against an SLSQP oracle, and
the kernel coordinates of the solve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from fusionframes import minimax
from fusionframes.duality import _left_inverse_family, left_inverses_parametrization
from fusionframes.erasures import _GroupProblem, local_worst_case_optimal_system
from fusionframes.errors import NonConvergence
from fusionframes.fusion import FusionFrame
from fusionframes.linalg import Subspace
from fusionframes.minimax import (
    SolverConfig,
    _group_norms,
    _membership,
    _phi,
    minimize_max_group_norms,
)
from fusionframes.reproduce import fixture_path
from fusionframes.specio import load_spec

from conftest import (
    margin_share,
    random_fusion_frame,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_riesz_basis,
    random_system,
)


def _family_problem(ff):
    family = left_inverses_parametrization(ff)
    groups = [np.arange(sl.start, sl.stop) for sl in ff.block_slices()]
    return family.pinv_member, family.kernel, groups, list(ff.weights)


def _local_problem(ws):
    """The local-vector problem of a fusion frame system, as the erasure
    layer hands it to the solver."""
    problem = _GroupProblem.of_local_vectors(ws)
    family = _left_inverse_family(problem.synth)
    return family.pinv_member, family.kernel, problem.groups, problem.coeffs


def _projector(kernel):
    """The orthogonal projector N N* onto the span of the basis N."""
    return kernel @ kernel.conj().T


def _reweighting_alone(a0, kernel, groups, coeffs, max_iters):
    """The solve of ``minimize_max_group_norms`` after ``max_iters``
    power-1/2 iterations from uniform weights, with no Newton step."""
    coeffs = np.asarray(coeffs, dtype=float)
    scale = coeffs.max()
    solve = minimax._Solve(scale * a0, kernel, _membership(groups, a0.shape[1]),
                           coeffs / scale)
    solve.reweight(np.full(len(groups), 1.0 / len(groups)), 0.0, max_iters)
    return solve


def _slsqp_oracle(a0, basis, groups, coeffs) -> float:
    """The largest group norm SLSQP reaches on min t s.t.
    c_i^2 ||(A0 + W N*) S_i||_F^2 <= t from W = 0, over the kernel
    coordinates W (their real and imaginary parts) and t, with the m
    constraints as one vector-valued constraint."""
    member = _membership([np.asarray(g) for g in groups], a0.shape[1])
    coeffs = np.asarray(coeffs, dtype=float)
    shape, dtype = (a0.shape[0], basis.shape[1]), np.result_type(a0, basis)

    def left_inverse(x):
        return a0 + x[:-1].view(dtype).reshape(shape) @ basis.conj().T

    def slack(x):
        return x[-1] - _group_norms(left_inverse(x), member, coeffs) ** 2

    def slack_jacobian(x):
        # The gradient in W of c_i^2 ||A S_i||_F^2 is 2 c_i^2 (A S_i S_i*) N.
        a = left_inverse(x)
        grads = 2.0 * (coeffs ** 2)[:, None, None] * ((a * member.T[:, None, :]) @ basis)
        return np.hstack([-grads.reshape(len(coeffs), -1).view(float),
                          np.ones((len(coeffs), 1))])

    x0 = np.append(np.zeros(shape, dtype).ravel().view(float),
                   _group_norms(a0, member, coeffs).max() ** 2)
    unit = np.append(np.zeros(x0.size - 1), 1.0)
    res = minimize(lambda x: x[-1], x0, jac=lambda x: unit, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": slack, "jac": slack_jacobian}],
                   options={"maxiter": 300, "ftol": 1e-14})
    return float(_group_norms(left_inverse(res.x), member, coeffs).max())


def _count_newton_steps(monkeypatch) -> list:
    """Wrap minimax._newton_step; the returned list gets one entry per step."""
    steps = []
    original = minimax._newton_step

    def counting(*args):
        steps.append(1)
        return original(*args)

    monkeypatch.setattr(minimax, "_newton_step", counting)
    return steps


def _check_two_group_closed_form(unitary):
    w1, w2 = 1.0, 2.0
    b1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    synth = np.hstack([w1 * b1, w2 * b2])
    s = synth @ synth.T
    a0 = np.linalg.solve(s, synth)
    # The kernel of the synthesis matrix is spanned by (0, 1, 0, -w1/w2).
    kernel = np.array([[0.0], [1.0], [0.0], [-w1 / w2]]) / np.hypot(1.0, w1 / w2)
    result = minimize_max_group_norms(
        unitary @ a0, kernel, [[0, 1], [2, 3]], [w1, w2], SolverConfig(max_iters=5000))
    expected = np.array([[0, 0, 1 / w2, 0],
                         [1 / w1, 0, 0, 0],
                         [0, 1 / (2 * w1), 0, 1 / (2 * w2)]])
    assert np.max(np.abs(result.a - unitary @ expected)) <= 1e-8
    assert abs(result.phi - np.sqrt(5.0) / 2.0) <= 1e-10


class TestObjective:
    def test_convexity_at_midpoints(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        a0, kernel, groups, coeffs = _family_problem(ff)
        proj = _projector(kernel)
        for _ in range(20):
            z1 = rng.normal(size=a0.shape)
            z2 = rng.normal(size=a0.shape)
            phi1 = _phi(a0 + z1 @ proj, groups, coeffs)
            phi2 = _phi(a0 + z2 @ proj, groups, coeffs)
            mid = _phi(a0 + 0.5 * (z1 + z2) @ proj, groups, coeffs)
            assert mid <= 0.5 * (phi1 + phi2) + 1e-12


class TestGroupNorms:
    # Column lists in any order, overlapping, non-contiguous or of one column.
    @given(d=st.integers(1, 4), n=st.integers(1, 6), complex_field=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_per_group_frobenius_norms(self, d, n, complex_field, seed, data):
        groups = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            min_size=1, max_size=5))
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7)
        if complex_field:
            a = a + 1j * rng.normal(size=(d, n))
        coeffs = rng.uniform(0.1, 10.0, size=len(groups))
        oracle = np.array([c * np.linalg.norm(a[:, g], "fro")
                           for g, c in zip(groups, coeffs)])
        got = _group_norms(a, _membership([np.asarray(g) for g in groups], n), coeffs)
        # Sums of at most 24 squares in another order: a few ulps apart.
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=0.0)
        assert _phi(a, groups, coeffs) == np.max(got)


class TestSolver:
    def test_already_optimal_start_stays_put(self, rng):
        # uniform equi-dimensional Parseval: the start point is the unique
        # minimizer, so the solver must return it unchanged (within jitter)
        ff = random_parseval_uniform_equidim(rng, 6, 2, copies=2)
        a0, kernel, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, kernel, groups, coeffs,
                                          SolverConfig(max_iters=2000))
        assert result.converged
        assert np.max(np.abs(result.a - a0)) <= 1e-4
        w = ff.weights[0]
        n = ff.dims[0]
        assert abs(result.phi - w ** 2 * np.sqrt(n)) <= 1e-6

    def test_two_group_closed_form(self):
        # minimize max(||first column group||, 2*||second||) subject to a
        # one-dimensional kernel family: solved by equalizing the groups
        _check_two_group_closed_form(np.eye(3))

    def test_two_group_closed_form_in_complex_coordinates(self):
        # A unitary change of ambient coordinates maps A to U A and keeps
        # every group norm; a complex U exercises the complex polish.
        rng = np.random.default_rng(7)
        unitary, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        _check_two_group_closed_form(unitary)

    def test_complex_problem_keeps_left_inverse(self, rng):
        ff = random_fusion_frame(rng, 4, 3, complex_field=True)
        a0, kernel, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, kernel, groups, coeffs,
                                          SolverConfig(max_iters=3000))
        analysis = ff.analysis_matrix()
        assert np.max(np.abs(result.a @ analysis - np.eye(4))) <= 1e-9
        assert result.phi <= result.phi_start + 1e-12

    def test_monotone_improvement_reported(self, rng):
        ff = random_fusion_frame(rng, 5, 3)
        a0, kernel, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, kernel, groups, coeffs,
                                          SolverConfig(max_iters=2000))
        assert result.phi <= result.phi_start + 1e-12

    def test_nonconvergence_raised_when_budget_too_small(self, solves):
        # Example 6.3 is certified at the first iteration to a gap of its
        # bound's rounding margin, which nothing brings to tol 0: Newton
        # gives up, and the solve raises at once, after 1 of the 3 iterations.
        ff = load_spec(str(fixture_path("example_6_3.json"))).fusion_frame()
        config = SolverConfig(max_iters=3, tol=0.0)
        with pytest.raises(NonConvergence) as info:
            minimize_max_group_norms(*_family_problem(ff), config)
        result = info.value.result
        assert result.converged is False and result.iterations == 1
        assert 0.0 < result.gap and abs(result.gap - margin_share(solves[0])) <= 1e-15


class TestCertificate:
    """``gap`` is (upper - lower) / upper on the squared objective, with
    lower = g(lam) for some lam on the simplex.  Every left inverse lies on
    or above that lower bound, and ``converged`` is never reported with a
    gap above tol."""

    # Tol 0 leaves about one solve in five unconverged: both branches run.
    @given(seed=st.integers(0, 2 ** 32 - 1), complex_field=st.booleans(),
           tol=st.sampled_from([1e-10, 0.0]))
    @settings(max_examples=20)
    def test_no_left_inverse_beats_the_lower_bound(self, seed, complex_field, tol):
        rng = np.random.default_rng(seed)
        ff = random_overcomplete_fusion_frame(rng, int(rng.integers(2, 5)),
                                              int(rng.integers(2, 5)), complex_field)
        a0, kernel, groups, coeffs = _family_problem(ff)
        config = SolverConfig(max_iters=3000, tol=tol)
        try:
            result = minimize_max_group_norms(a0, kernel, groups, coeffs, config)
            assert result.converged and result.gap <= config.tol
        except NonConvergence as exc:
            result = exc.result
            assert not result.converged and result.gap > config.tol
        lower = result.phi * np.sqrt(1.0 - result.gap)
        assert lower <= result.phi <= result.phi_start
        for _ in range(20):
            z = rng.normal(size=a0.shape) * rng.uniform(0.0, 2.0)
            assert _phi(a0 + z @ _projector(kernel), groups, coeffs) >= lower * (1 - 1e-13)

    def test_the_certified_gap_is_never_negative(self):
        # In exact arithmetic g(lam) <= max_i v_i.  Rounding put the lower
        # bound a few ulps above the upper (gaps down to -3.5e-16) on 46 of
        # 600 frames of this draw, seeds 13 and 18 among them; the reported
        # gap is floored at 0, so phi sqrt(1 - gap) never exceeds phi.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ff = random_overcomplete_fusion_frame(rng, int(rng.integers(2, 5)),
                                                  int(rng.integers(2, 5)), bool(seed % 2))
            result = minimize_max_group_norms(*_family_problem(ff))
            assert 0.0 <= result.gap <= SolverConfig().tol
            assert result.phi * np.sqrt(1.0 - result.gap) <= result.phi

    def test_a_group_active_at_zero_weight_is_certified_by_the_polish(self, rng, solves):
        # The second group's norm reaches the optimum (to 1e-8), but the
        # optimal weights are (1, 0): the reweighting closes such a gap like
        # 1/t^2 (2.2e-7 after 5000 iterations here).  Newton drops the
        # second group from the face and closes it at once.
        ff = random_overcomplete_fusion_frame(rng, 4, 2)
        problem = _family_problem(ff)
        result = minimize_max_group_norms(*problem, SolverConfig())
        assert result.converged and abs(result.gap - margin_share(solves[0])) <= 1e-15
        assert result.iterations < 1000
        norms = _group_norms(result.a, _membership(problem[2], 5), np.array(problem[3]))
        assert abs(norms[0] - norms[1]) <= 1e-8 * result.phi
        alone = _reweighting_alone(*problem, max_iters=5000)
        assert alone.iterations == 5000 and alone.gap() > 1e-7

    def test_the_slow_frame_is_certified_by_newton_without_scipy(self, monkeypatch, solves):
        # The same frame, built here from its seed: Newton certifies it to
        # rounding in at most 5 steps.
        ff = random_overcomplete_fusion_frame(np.random.default_rng(20240811), 4, 2)
        steps = _count_newton_steps(monkeypatch)
        result = minimize_max_group_norms(*_family_problem(ff))
        assert result.converged and result.polished
        assert abs(result.gap - margin_share(solves[0])) <= 1e-15
        assert 0 < len(steps) <= 5

    def test_a_group_stepped_past_its_weight_rejoins_the_face(self):
        # Newton's first step takes the weights of two groups of parallel
        # local vectors from 2.2e-3 to 0, past their optimum 6.3e-5.  One
        # of them then exceeds g on every W_lam, and the step back onto the
        # face rises only within 2^-8 of its first trial.
        rng = np.random.default_rng(196)
        d, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        problem = _local_problem(random_system(rng, d, m))
        result = minimize_max_group_norms(*problem)
        assert result.converged and result.polished and result.gap <= 1e-10
        assert result.iterations < 100
        assert abs(result.phi - _slsqp_oracle(*problem)) <= 1e-9 * result.phi

    def test_a_moved_point_stands_for_w_lam_only_at_zero_weight(self):
        # After a step off the face, W moved along the columns that the
        # groups at weight 0 leave free minimizes the Lagrangian only while
        # those groups weigh 0.  Taken for W_lam at weights where they do
        # not, its v overstated g, and Newton climbed a g it never
        # evaluated: the certified bound stalled at gap 7.3e-3.
        rng = np.random.default_rng(2198)
        d, m, complex_field = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                               bool(rng.integers(2)))
        problem = _local_problem(random_system(rng, d, m, complex_field))
        result = minimize_max_group_norms(*problem)
        assert result.converged and result.polished and result.gap <= 1e-10
        assert result.iterations < 100
        assert abs(result.phi - _slsqp_oracle(*problem)) <= 1e-9 * result.phi

    @given(seed=st.integers(0, 2 ** 32 - 1), complex_field=st.booleans(),
           system=st.booleans())
    @settings(max_examples=20)
    def test_newton_matches_the_slsqp_fallback(self, seed, complex_field, system):
        # The default solve against an SLSQP solve from the start point:
        # Newton is no worse, and the oracle's point does not lie below
        # Newton's certified lower bound.
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        problem = (_local_problem(random_system(rng, d, m, complex_field)) if system
                   else _family_problem(random_overcomplete_fusion_frame(rng, d, m, complex_field)))
        config = SolverConfig(max_iters=3000)
        default = minimize_max_group_norms(*problem, config)
        assert default.converged and default.gap <= config.tol
        oracle = _slsqp_oracle(*problem)
        assert default.phi <= oracle * (1 + 1e-9)
        assert oracle >= default.phi * np.sqrt(1.0 - default.gap) * (1 - 1e-13)


    def test_an_inexact_solve_cannot_shrink_the_certified_gap(self, monkeypatch, solves):
        # Every W the solve evaluates is off by 1e-7.  The lower bound must
        # not rise with it: lam @ v at such a W overstated g(lam), and with
        # it the certified lower bound, by about 21 ulps, reading gap 0.
        w1, w2 = 1.0, 2.0
        synth = np.hstack([w1 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                           w2 * np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])])
        kernel = np.array([[0.0], [1.0], [0.0], [-w1 / w2]]) / np.hypot(1.0, w1 / w2)
        errors = minimax._Solve.errors
        monkeypatch.setattr(minimax._Solve, "errors", lambda solve, w: errors(solve, w + 1e-7))
        try:
            result = minimize_max_group_norms(np.linalg.solve(synth @ synth.T, synth), kernel,
                                              [[0, 1], [2, 3]], [w1, w2])
        except NonConvergence as exc:
            result = exc.result
        # g(lam) = tr((T D^-1 T*)^-1), D the per-column lam_i c_i^2.
        dw = np.repeat(solves[0].dual * np.array([w1, w2]) ** 2, 2)
        g = float(np.trace(np.linalg.inv((synth / dw) @ synth.T)))
        lower = result.phi ** 2 * (1.0 - result.gap)
        assert solves[0].lower <= g * (1.0 + 2.0 * np.finfo(float).eps)
        assert lower <= g * (1.0 + 4.0 * np.finfo(float).eps)
        # The optimum is sqrt(5) / 2, so the true gap is (phi^2 - 5/4) / phi^2.
        assert result.gap >= (result.phi ** 2 - 1.25) / result.phi ** 2


class TestKernelCoordinates:
    """The solver moves W in A = A0 + W N*, with N an orthonormal basis of
    ker T, so A leaves A0 only along the kernel projector N N*."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_default_solve_moves_a_only_along_the_kernel(self, rng, complex_field):
        ff = random_overcomplete_fusion_frame(rng, 4, 3, complex_field)
        a0, kernel, groups, coeffs = _family_problem(ff)
        d, n = a0.shape
        assert n > d     # a fusion frame's synthesis matrix has rank d
        result = minimize_max_group_norms(a0, kernel, groups, coeffs)
        assert result.polished and result.phi < result.phi_start
        assert np.max(np.abs((result.a - a0) @ (np.eye(n) - _projector(kernel)))) <= 1e-12
        assert np.max(np.abs(result.a @ ff.analysis_matrix() - np.eye(d))) <= 1e-12

    @pytest.mark.parametrize("seed", [400, 1353])
    def test_a_far_optimum_stays_a_left_inverse(self, seed):
        # Local systems in R^5 with synthesis condition numbers 1e4 and 2e4,
        # whose optimum lies at ||W|| of about 2e3.  In A T* - I =
        # (A0 T* - I) + W N* T*, the last term is rounding only while N is
        # orthogonal to the row space of T: ||W|| multiplies any leak of N,
        # and a leak of 1e-12 puts the residual above the default tol 1e-9.
        rng = np.random.default_rng(seed)
        d, m, complex_field = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                               bool(rng.integers(2)))
        ws = random_system(rng, d, m, complex_field)
        a0, kernel, groups, coeffs = _local_problem(ws)
        result = minimize_max_group_norms(a0, kernel, groups, coeffs)
        assert result.converged and result.gap <= SolverConfig().tol
        synth = _GroupProblem.of_local_vectors(ws).synth
        residual = np.linalg.norm(result.a @ synth.conj().T - np.eye(d))
        drift = np.linalg.norm(result.a - a0, 2) * np.linalg.norm(synth, 2)
        assert residual <= 10 * np.finfo(float).eps * drift
        assert local_worst_case_optimal_system(ws).solver.converged

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_riesz_problem_polishes_the_bound_alone(self, rng, monkeypatch, complex_field):
        # N has no columns: the start point is the only left inverse, and
        # the first iteration, with all weight on the largest group,
        # certifies it exactly; Newton does not run.
        ff = random_riesz_basis(rng, 4, 2, complex_field)
        a0, kernel, groups, coeffs = _family_problem(ff)
        assert kernel.shape == (4, 0)
        steps = _count_newton_steps(monkeypatch)
        result = minimize_max_group_norms(a0, kernel, groups, coeffs)
        assert steps == []
        assert result.converged and not result.polished
        assert result.iterations == 1 and result.gap == 0.0
        np.testing.assert_array_equal(result.a, a0)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_example_6_3_stays_on_the_family(self, complex_field, solves):
        # Uniform weights are optimal here, so the solve is certified at the
        # first iteration, before any polish, in real and in complex
        # coordinates, and A = A0 + W N* is a left inverse to rounding.
        ff = load_spec(str(fixture_path("example_6_3.json"))).fusion_frame()
        if complex_field:
            ff = FusionFrame(tuple(Subspace(s.basis.astype(complex)) for s in ff.subspaces),
                             ff.weights)
        problem = _family_problem(ff)
        result = minimize_max_group_norms(*problem)
        assert result.converged and not result.polished
        assert result.iterations == 1 and abs(result.gap - margin_share(solves[0])) <= 1e-15
        residual = np.max(np.abs(result.a @ ff.analysis_matrix() - np.eye(ff.ambient_dim)))
        assert residual <= 1e-12
        assert residual <= 16 * np.finfo(float).eps


def _solve_and_weights(problem, seed):
    """A fresh solve on ``problem`` (a0, kernel, groups, coeffs) in the
    solver's coordinates, and random weights on the simplex."""
    a0, kernel, groups, coeffs = problem
    coeffs = np.asarray(coeffs, dtype=float)
    solve = minimax._Solve(coeffs.max() * a0, kernel, _membership(groups, a0.shape[1]),
                           coeffs / coeffs.max())
    lam = np.random.default_rng(seed).uniform(0.05, 1.0, size=len(groups))
    return solve, lam / lam.sum()


def _lstsq_point(solve, lam):
    """W_lam by least squares in kernel coordinates, min over X of
    ||D^(1/2) (A0* + N X)||_F at numpy's default cut-off, and g(lam) = lam @
    v there: a minimizer found without the solver's factorizations."""
    root = np.sqrt(solve.col_weights @ lam)[:, None]
    w = np.linalg.lstsq(root * solve.basis, -root * solve.a0.conj().T, rcond=None)[0].conj().T
    return w, float(lam @ solve.errors(w))


class TestCore:
    """The one factorization per lam: W_lam, the weak-duality bound on g(lam)
    and Newton's Hessian, against the kernel-coordinate least squares."""

    @pytest.mark.parametrize("seed", range(6))
    def test_interior_weights_match_the_kernel_least_squares(self, seed):
        rng = np.random.default_rng(seed)
        problem = (_local_problem(random_system(rng, 4, 3, bool(seed % 2))) if seed % 3
                   else _family_problem(random_overcomplete_fusion_frame(rng, 4, 4, bool(seed % 2))))
        solve, lam = _solve_and_weights(problem, seed)
        w, v = solve.evaluate(lam)
        exact_w, g = _lstsq_point(solve, lam)
        assert np.max(np.abs(w - exact_w)) <= 1e-10 * max(1.0, np.max(np.abs(exact_w)))
        # The bound lies below g(lam), by about its stated margin.
        assert solve.lower <= g and solve.margin > 0.0
        assert g - solve.lower <= 2.0 * solve.margin + 1e-14 * g
        assert solve.factors[0] is lam

    @pytest.mark.parametrize("seed", range(4))
    def test_the_core_hessian_is_the_kernel_form(self, seed):
        # C = D^-1 - D^-1 T* M^-1 T D^-1 from the core's factors equals
        # N (N* D N)^-1 N* from the SVD of D^(1/2) N.
        rng = np.random.default_rng(100 + seed)
        solve, lam = _solve_and_weights(
            _family_problem(random_overcomplete_fusion_frame(rng, 4, 4, bool(seed % 2))), seed)
        solve.evaluate(lam)
        _, _, minv, ti, inv_dw = solve.factors
        core = np.diag(inv_dw) - ti.conj().T @ minv @ ti
        root = np.sqrt(solve.col_weights @ lam)[:, None]
        _, sing, vh = np.linalg.svd(root * solve.basis, full_matrices=False)
        f = solve.basis @ (vh.conj().T / sing)
        np.testing.assert_allclose(core, f @ f.conj().T, rtol=0.0,
                                   atol=1e-10 * np.max(np.abs(core)))

    @pytest.mark.parametrize("seed", range(4))
    def test_the_face_bound_is_a_tight_lower_bound(self, seed):
        # With one group at weight 0, the bound comes from the core on the
        # other columns, in coordinates orthogonal to the range of T_O.
        rng = np.random.default_rng(200 + seed)
        solve, lam = _solve_and_weights(
            _local_problem(random_system(rng, 4, 3, bool(seed % 2))), seed)
        lam[0] = 0.0
        lam /= lam.sum()
        w, _ = solve.evaluate(lam)
        exact_w, g = _lstsq_point(solve, lam)
        assert np.max(np.abs(w - exact_w)) <= 1e-10 * max(1.0, np.max(np.abs(exact_w)))
        # The face keeps the SVD of D^(1/2) N that gave W for Newton.
        assert solve.factors[0] is lam and solve.factors[1] is None
        assert solve.lower <= g and g - solve.lower <= 2.0 * solve.margin + 1e-13 * g
