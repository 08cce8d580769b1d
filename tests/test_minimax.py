"""Worst-case solver: convexity of the objective, closed-form agreement,
stationarity at the start point, the non-convergence contract, and the
kernel coordinates of the polish."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusionframes import minimax
from fusionframes.duality import left_inverses_parametrization
from fusionframes.errors import NonConvergence
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
    random_fusion_frame,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_riesz_basis,
)


def _family_problem(ff):
    family = left_inverses_parametrization(ff)
    groups = [np.arange(sl.start, sl.stop) for sl in ff.block_slices()]
    return family.pinv_member, family.kernel_projector, groups, list(ff.weights)


def _check_two_group_closed_form(unitary):
    w1, w2 = 1.0, 2.0
    b1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    synth = np.hstack([w1 * b1, w2 * b2])
    s = synth @ synth.T
    a0 = np.linalg.solve(s, synth)
    proj = np.eye(4) - synth.T @ np.linalg.solve(s, synth)
    result = minimize_max_group_norms(
        unitary @ a0, proj, [[0, 1], [2, 3]], [w1, w2], SolverConfig(max_iters=5000))
    expected = np.array([[0, 0, 1 / w2, 0],
                         [1 / w1, 0, 0, 0],
                         [0, 1 / (2 * w1), 0, 1 / (2 * w2)]])
    assert np.max(np.abs(result.a - unitary @ expected)) <= 1e-8
    assert abs(result.phi - np.sqrt(5.0) / 2.0) <= 1e-10


class TestObjective:
    def test_convexity_at_midpoints(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        a0, proj, groups, coeffs = _family_problem(ff)
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
        a0, proj, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, proj, groups, coeffs,
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
        a0, proj, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, proj, groups, coeffs,
                                          SolverConfig(max_iters=3000))
        analysis = ff.analysis_matrix()
        assert np.max(np.abs(result.a @ analysis - np.eye(4))) <= 1e-9
        assert result.phi <= result.phi_start + 1e-12

    def test_monotone_improvement_reported(self, rng):
        ff = random_fusion_frame(rng, 5, 3)
        a0, proj, groups, coeffs = _family_problem(ff)
        result = minimize_max_group_norms(a0, proj, groups, coeffs,
                                          SolverConfig(max_iters=2000))
        assert result.phi <= result.phi_subgradient <= result.phi_start + 1e-12

    def test_nonconvergence_raised_when_budget_too_small(self, rng):
        # Overcomplete: a Riesz basis has a single left inverse, and the
        # solver rightly stops at its first iteration.
        ff = random_overcomplete_fusion_frame(rng, 4, 2)
        a0, proj, groups, coeffs = _family_problem(ff)
        if abs(coeffs[0] - coeffs[1]) < 0.3:
            coeffs = [1.0, 3.0]
        config = SolverConfig(max_iters=3, patience=1000, polish=False,
                              tol=1e-300)
        with pytest.raises(NonConvergence) as info:
            minimize_max_group_norms(a0, proj, groups, coeffs, config)
        assert info.value.result.converged is False
        assert info.value.result.iterations == 3

    def test_polish_calls_the_module_level_minimize(self, rng, monkeypatch):
        # The polish reaches SLSQP only through minimax._scipy_minimize, the
        # name that loads scipy and that profilers wrap; a call that bypassed
        # it would leave the wrapper silently counting nothing.
        ff = random_fusion_frame(rng, 5, 3)
        problem = _family_problem(ff)
        reference = minimize_max_group_norms(*problem, SolverConfig())
        calls = _capture_polish_sizes(monkeypatch)
        result = minimize_max_group_norms(*problem, SolverConfig())
        assert len(calls) == 1
        assert result.polished and reference.polished
        assert result.phi == reference.phi
        np.testing.assert_array_equal(result.a, reference.a)
        unpolished = minimize_max_group_norms(*problem, SolverConfig(polish=False))
        assert len(calls) == 1
        assert not unpolished.polished


def _capture_polish_sizes(monkeypatch) -> list:
    """Wrap minimax._scipy_minimize; the returned list collects the size of
    every start vector handed to SLSQP."""
    sizes = []
    original = minimax._scipy_minimize

    def capturing(fun, x0, *args, **kwargs):
        sizes.append(x0.size)
        return original(fun, x0, *args, **kwargs)

    monkeypatch.setattr(minimax, "_scipy_minimize", capturing)
    return sizes


class TestKernelCoordinates:
    """The polish moves W in A = A0 + W N*, with N an orthonormal basis of
    ker T: d x k unknowns (twice that for a complex problem) plus the bound
    t, where k = n - rank T.  Subgradient steps move A itself."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_polish_unknowns_are_the_kernel_coordinates(self, rng, monkeypatch,
                                                        complex_field):
        ff = random_overcomplete_fusion_frame(rng, 4, 3, complex_field)
        a0, proj, groups, coeffs = _family_problem(ff)
        d, n = a0.shape
        k = n - d     # a fusion frame's synthesis matrix has rank d
        assert k > 0
        sizes = _capture_polish_sizes(monkeypatch)
        result = minimize_max_group_norms(a0, proj, groups, coeffs)
        assert sizes == [(2 if complex_field else 1) * d * k + 1]
        assert result.polished
        assert np.max(np.abs(result.a @ ff.analysis_matrix() - np.eye(d))) <= 1e-12

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_riesz_problem_polishes_the_bound_alone(self, rng, monkeypatch, complex_field):
        # P = 0: the start point is the only left inverse, one iteration
        # finds that out, and the polish has no coordinate but t.
        ff = random_riesz_basis(rng, 4, 2, complex_field)
        a0, proj, groups, coeffs = _family_problem(ff)
        assert not proj.any()
        sizes = _capture_polish_sizes(monkeypatch)
        result = minimize_max_group_norms(a0, proj, groups, coeffs)
        assert sizes == [1]
        assert result.polished and result.converged
        assert result.iterations == 1
        np.testing.assert_array_equal(result.a, a0)

    @pytest.mark.parametrize("polish", [False, True])
    def test_example_6_3_stays_on_the_family(self, polish):
        # 50000 in-place steps: without the final projection back onto the
        # family, A T* - I drifts to about 1.3e-14 here.
        ff = load_spec(str(fixture_path("example_6_3.json"))).fusion_frame()
        problem = _family_problem(ff)
        if polish:
            result = minimize_max_group_norms(*problem, SolverConfig())
            assert result.polished
        else:
            with pytest.raises(NonConvergence) as info:
                minimize_max_group_norms(*problem, SolverConfig(polish=False))
            result = info.value.result
        assert result.iterations == 50000
        residual = np.max(np.abs(result.a @ ff.analysis_matrix() - np.eye(ff.ambient_dim)))
        assert residual <= 1e-12
        assert residual <= 16 * np.finfo(float).eps
