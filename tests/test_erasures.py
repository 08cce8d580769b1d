"""Erasure error tables and loss-optimal duals.

The brute-force oracles here rebuild every error operator from raw
subspace bases and weights with plain dense products, independently of
the BlockOp machinery under test.
"""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from fusionframes import erasures
from fusionframes.duality import (_left_inverse_family, canonical_dual, dual_from_left_inverse,
                                  left_inverses_parametrization, q_dual_residual)
from fusionframes.errors import (BadR, LengthMismatch, NotADual, NotAFusionFrame, NotUnitNorm,
                                 NullVector)
from fusionframes.erasures import (
    _GroupErasures,
    _GroupProblem,
    error_vector,
    hierarchical_optimal,
    local_error_vector,
    local_mse_optimal_system,
    local_worst_case_optimal_system,
    mse_optimal_dual,
    worst_case_optimal_dual,
)
from fusionframes.frames import Frame, frame_operator
from fusionframes.fusion import FusionFrame
from fusionframes.linalg import Subspace, frobenius_norm
from fusionframes.minimax import SolverConfig
from fusionframes.reproduce import fixture_path
from fusionframes.specio import load_spec
from fusionframes import frames as fr
from fusionframes.systems import (
    FusionFrameSystem,
    _certified_system_from_left_inverse_of_frame,
    dual_system_from_left_inverse_of_frame,
    is_dual_system,
)

from conftest import (
    random_fusion_frame,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_riesz_basis,
    random_system,
    random_unitary,
    tilted_plane_and_lines,
)
from test_fusion import two_plane_frame
from test_systems import two_plane_system


def tied_hierarchy_report():
    """A system in R^2 with weights 1: span e1 with local frame [e1, e1] and
    span e2 with [e2, e2, e2, e2].  Its p = inf report carries the left
    inverse [e1/2, e1/2, (1/4 + z_j) e2] with z = (0.1, -0.1, 0.1, -0.1),
    which ties the mean-square optimum [e1/2, e1/2, e2/4, ...] at levels 1
    and 2 (0.5 and 1.0) and is higher at level 3 (1.0595 against 1.0308).
    Returns the system and the report."""
    e1, e2 = np.eye(2)
    ws = FusionFrameSystem(FusionFrame((Subspace(e1[:, None]), Subspace(e2[:, None])),
                                       np.ones(2)),
                           (Frame(np.array([e1, e1])), Frame(np.array([e2] * 4))))
    z = np.array([0.1, -0.1, 0.1, -0.1])
    a = np.column_stack([e1 / 2, e1 / 2] + [(0.25 + zj) * e2 for zj in z])
    vs, pair = _certified_system_from_left_inverse_of_frame(ws, a)
    return ws, replace(local_mse_optimal_system(ws), p=math.inf, optimal_dual=pair,
                       optimal_system=vs)


def brute_force_error(pair, lost):
    """Independent recomputation of one pattern error via explicit dense
    d x d products assembled from bases and weights (no BlockOp)."""
    primal, dual, q = pair.primal, pair.dual, pair.q
    d = primal.ambient_dim
    op = np.zeros((d, d), dtype=complex)
    for j in range(dual.size):
        for i in lost:
            block = np.asarray(q.blocks[j][i])
            if block.size == 0:
                continue
            left = dual.weights[j] * dual.subspaces[j].basis     # d x n_j
            right = primal.weights[i] * primal.subspaces[i].basis.conj().T
            op += left @ block @ right
    return float(np.linalg.norm(op, "fro"))


def brute_force_local_error(ws, vs, lost):
    """Independent recomputation of one local pattern error: losing vector
    l of block i drops w_i v_i g_il f_il^*, assembled from the systems'
    weights and local vectors with dense outer products."""
    d = ws.ff.ambient_dim
    op = np.zeros((d, d), dtype=complex)
    for i, l in lost:
        f = ws.local_frames[i].vectors[l]
        g = vs.local_frames[i].vectors[l]
        op += ws.ff.weights[i] * vs.ff.weights[i] * np.outer(g, f.conj())
    return float(np.linalg.norm(op, "fro"))


def random_dual_system(rng, ws):
    """A dual system from a random left inverse of the global analysis."""
    synth = fr.synthesis(ws.global_frame(True))
    pinv = np.linalg.pinv(synth)
    z = rng.normal(size=synth.shape)
    if np.iscomplexobj(synth):
        z = z + 1j * rng.normal(size=synth.shape)
    a = pinv.conj().T + z @ (np.eye(ws.total_local) - pinv @ synth)
    return dual_system_from_left_inverse_of_frame(ws, a, ws.ff.weights.copy())


class TestErrorVector:
    def test_full_erasure_is_identity_norm(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        pair = canonical_dual(ff)
        table = error_vector(pair, 3)
        assert len(table) == 1
        assert abs(table[0][1] - 2.0) < 1e-9  # ||I_4||_F = 2

    def test_single_block_frame(self):
        ff = FusionFrame.from_spanning_sets([np.eye(3)], [2.0])
        pair = canonical_dual(ff)
        table = error_vector(pair, 1)
        assert len(table) == 1
        assert abs(table[0][1] - math.sqrt(3.0)) < 1e-12

    def test_two_plane_canonical_oracle(self):
        ff = two_plane_frame(1.0, 2.0)
        pair = canonical_dual(ff)
        s_inv = np.linalg.inv(ff.fusion_operator())
        for (pattern, err) in error_vector(pair, 1):
            i = pattern.indices[0]
            expected = (ff.weights[i] ** 2
                        * frobenius_norm(s_inv @ ff.subspaces[i].projector()))
            assert abs(err - expected) < 1e-12

    def test_lexicographic_order_and_count(self, rng):
        ff = random_fusion_frame(rng, 5, 4)
        pair = canonical_dual(ff)
        table = error_vector(pair, 2)
        assert [p.indices for p, _ in table] == list(combinations(range(4), 2))

    def test_bad_r(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        pair = canonical_dual(ff)
        with pytest.raises(BadR):
            error_vector(pair, 0)
        with pytest.raises(BadR):
            error_vector(pair, 4)

    def test_brute_force_oracle_random(self, rng):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(
                rng, 4, 3, complex_field=bool(rng.integers(2)))
            family = left_inverses_parametrization(ff)
            z = rng.normal(size=family.shape)
            pair = dual_from_left_inverse(ff, family.member(z))
            for r in (1, 2):
                for pattern, err in error_vector(pair, r):
                    assert abs(err - brute_force_error(pair, pattern.indices)) <= 1e-12

    def test_tables_longer_than_one_chunk(self, rng):
        # 8008 patterns of 6 lost blocks out of 16: their parents, the level-5
        # patterns, fill more than one chunk of 2^15 // 16 = 2048, so the
        # table comes in more than one piece and must keep the lexicographic
        # order across the boundary
        ff = random_fusion_frame(rng, 3, 16, max_dim=1)
        pair = canonical_dual(ff)
        pieces = [f.size for _, _, f in erasures._erasures(
            _GroupProblem.of_blocks(ff), pair)._walk(6, 6)]
        assert len(pieces) > 1
        table = error_vector(pair, 6)
        assert [p.indices for p, _ in table] == list(combinations(range(16), 6))
        edge = table[pieces[0] - 8:pieces[0] + 8]
        for pattern, err in table[::41] + edge:
            assert abs(err - brute_force_error(pair, pattern.indices)) <= 1e-12

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_block_permutation_permutes_tables(self, rng, complex_field):
        ff = random_overcomplete_fusion_frame(rng, 4, 5, complex_field)
        perm = rng.permutation(ff.size)
        permuted = FusionFrame(tuple(ff.subspaces[k] for k in perm), ff.weights[perm])
        pair, pair_perm = canonical_dual(ff), canonical_dual(permuted)
        for r in range(1, ff.size + 1):
            original = {p.indices: e for p, e in error_vector(pair, r)}
            for pattern, err in error_vector(pair_perm, r):
                lost = tuple(sorted(int(perm[k]) for k in pattern.indices))
                assert abs(err - original[lost]) <= 1e-12 * max(1.0, err)
        for p in (2.0, math.inf):
            levels, levels_perm = (
                hierarchical_optimal(replace(mse_optimal_dual(w), p=p), w.size,
                                     samples=1).aggregate_by_r
                for w in (ff, permuted))
            assert set(levels) == set(levels_perm) == set(range(1, ff.size + 1))
            for r, value in levels.items():
                assert abs(levels_perm[r] - value) <= 1e-12 * value

    def test_mse_levels_match_enumerated_tables(self, rng):
        for complex_field in (False, True):
            ff = random_overcomplete_fusion_frame(rng, 4, 5, complex_field)
            report = mse_optimal_dual(ff, rng.uniform(0.5, 2.0, size=5))
            for r, value in report.aggregate_by_r.items():
                errors = [e for _, e in error_vector(report.optimal_dual, r)]
                enumerated = math.sqrt(math.fsum(e * e for e in errors))
                assert abs(value - enumerated) <= 1e-12 * value


class TestScalingIdentity:
    def test_weighted_mask_norm(self, rng):
        # the analysis factor contributes exactly the block weight
        ff = random_fusion_frame(rng, 5, 3)
        analysis = ff.analysis_matrix()
        slices = ff.block_slices()
        for _ in range(10):
            a = rng.normal(size=(5, ff.total_dim))
            i = int(rng.integers(3))
            masked = np.zeros_like(a)
            masked[:, slices[i]] = a[:, slices[i]]
            lhs = frobenius_norm(masked @ analysis)
            rhs = ff.weights[i] * frobenius_norm(masked)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


class TestMseOptimal:
    def test_two_plane_dual_is_itself(self):
        ff = two_plane_frame(1.0, 2.0)
        report = mse_optimal_dual(ff)
        for sub, got in zip(ff.subspaces, report.optimal_dual.dual.subspaces):
            assert got.distance_to(sub) <= 1e-10
        assert "trace orthogonality" in report.certificate

    def test_uniform_weights_reduce_to_canonical(self, rng):
        ff = random_fusion_frame(rng, 5, 3, weight_span=(1.3, 1.3))
        report = mse_optimal_dual(ff)
        canon = canonical_dual(ff)
        lhs = (report.optimal_dual.dual.synthesis_matrix()
               @ report.optimal_dual.q.as_matrix())
        rhs = canon.dual.synthesis_matrix() @ canon.q.as_matrix()
        assert frobenius_norm(lhs - rhs) <= 1e-9

    def test_never_beaten_by_random_competitors(self, rng):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, 5, 3)
            v = rng.uniform(0.5, 2.0, size=3)
            report = mse_optimal_dual(ff, v)
            family = left_inverses_parametrization(ff)
            for _ in range(50):
                z = rng.normal(size=family.shape) * rng.uniform(0.0, 2.0)
                competitor = dual_from_left_inverse(ff, family.member(z), v)
                comp_mse = math.fsum(e ** 2 for _, e in error_vector(competitor, 1))
                assert comp_mse >= report.aggregate ** 2 - 1e-9

    def test_mse_decomposition_identity(self, rng):
        # competitor MSE minus optimal MSE equals the weighted distance
        # between the reconstruction maps, blockwise
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        v = rng.uniform(0.5, 2.0, size=3)
        report = mse_optimal_dual(ff, v)
        optimal_map = (report.optimal_dual.dual.synthesis_matrix()
                       @ report.optimal_dual.q.as_matrix())
        family = left_inverses_parametrization(ff)
        slices = ff.block_slices()
        for _ in range(10):
            z = rng.normal(size=family.shape)
            competitor = dual_from_left_inverse(ff, family.member(z), v)
            comp_map = (competitor.dual.synthesis_matrix()
                        @ competitor.q.as_matrix())
            lhs = (math.fsum(e ** 2 for _, e in error_vector(competitor, 1))
                   - report.aggregate ** 2)
            rhs = math.fsum(
                ff.weights[i] ** 2
                * frobenius_norm(comp_map[:, sl] - optimal_map[:, sl]) ** 2
                for i, sl in enumerate(slices))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_aggregate_by_r_complete(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        report = mse_optimal_dual(ff)
        assert set(report.aggregate_by_r) == {1, 2, 3}
        assert abs(report.aggregate_by_r[3] - 2.0) < 1e-9


class TestWorstCaseOptimal:
    def test_uniform_condition_returns_canonical(self, rng):
        ff = random_parseval_uniform_equidim(rng, 6, 2, copies=2)
        report = worst_case_optimal_dual(ff, solver=SolverConfig(max_iters=2000))
        family = left_inverses_parametrization(ff)
        assert np.max(np.abs(report.solver.a - family.pinv_member)) <= 1e-4
        w = ff.weights[0]
        assert abs(report.aggregate - w ** 2 * math.sqrt(2.0)) <= 1e-6
        assert "theorem-backed" in report.certificate

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_riesz_basis_stops_at_its_only_dual(self, rng, scale):
        # One left inverse: no direction to move in, at any weight scale.
        ff = random_riesz_basis(rng, 5, 3)
        ff = FusionFrame(ff.subspaces, scale * ff.weights)
        report = worst_case_optimal_dual(ff)
        assert report.solver.iterations == 1
        assert report.solver.phi == report.solver.phi_start

    def test_bad_dual_weights_fail_before_the_solve(self, rng, monkeypatch):
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran before the dual weights were checked")

        ff = random_overcomplete_fusion_frame(rng, 6, 5)
        monkeypatch.setattr(erasures, "minimize_max_group_norms", solver_must_not_run)
        for v in ([1.0], [math.nan] * ff.size, [1.0] * (ff.size - 1) + [math.inf]):
            with pytest.raises(ValueError):
                worst_case_optimal_dual(ff, v=v)

    def test_aggregate_matches_solver_phi(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 4, 3)
        report = worst_case_optimal_dual(ff, solver=SolverConfig(max_iters=2000))
        assert abs(report.aggregate - report.solver.phi) <= 1e-8

    def test_never_beaten_by_random_competitors(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 4, 2)
        report = worst_case_optimal_dual(ff, solver=SolverConfig(max_iters=3000))
        family = left_inverses_parametrization(ff)
        for _ in range(25):
            z = rng.normal(size=family.shape) * rng.uniform(0.0, 2.0)
            competitor = dual_from_left_inverse(ff, family.member(z))
            worst = max(e for _, e in error_vector(competitor, 1))
            assert worst >= report.aggregate - 1e-8


def two_lines_in_r3() -> FusionFrameSystem:
    """A valid system with unit local vectors whose subspaces, two lines
    in R^3, do not span."""
    e1, e2 = np.eye(3)[:1], np.eye(3)[1:2]
    ff = FusionFrame.from_spanning_sets([e1.T, e2.T], [1.0, 1.0])
    return FusionFrameSystem(ff, (Frame(e1), Frame(e2)))


class TestNonSpanning:
    """One spanning check, in the group-erasure problem, guards every
    optimizer and table before any solve."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("solved a problem whose subspaces do not span")

        monkeypatch.setattr(erasures, "minimize_max_group_norms", must_not_run)
        monkeypatch.setattr(_GroupProblem, "mse_left_inverse", property(must_not_run))

    @pytest.mark.parametrize("optimizer", [local_mse_optimal_system,
                                           local_worst_case_optimal_system])
    def test_local_optimizers_refuse_before_the_solve(self, no_solve, optimizer):
        with pytest.raises(NotAFusionFrame, match="do not span the ambient space"):
            optimizer(two_lines_in_r3())

    @pytest.mark.parametrize("optimizer", [mse_optimal_dual, worst_case_optimal_dual])
    def test_subspace_optimizers_check_spanning_before_dual_weights(self, no_solve,
                                                                     optimizer):
        with pytest.raises(NotAFusionFrame, match="do not span the ambient space"):
            optimizer(two_lines_in_r3().ff, v=[math.nan, 1.0])

    def test_local_error_vector_refuses_a_non_spanning_primal(self):
        ws = two_lines_in_r3()
        with pytest.raises(NotAFusionFrame):
            local_error_vector(ws, ws, 1)


class TestLocalErrorVector:
    def test_full_local_erasure(self, rng):
        ws = random_system(rng, 4, 2, unit_norm=True)
        vs = local_mse_optimal_system(ws).optimal_system
        table = local_error_vector(ws, vs, ws.total_local)
        assert len(table) == 1
        assert abs(table[0][1] - 2.0) <= 1e-9

    def test_single_losses_match_column_norms(self, rng):
        ws = random_system(rng, 4, 2, unit_norm=True)
        vs = local_mse_optimal_system(ws).optimal_system
        left = vs.ff.synthesis_matrix() @ vs.coupling().as_matrix()
        right = ws.coupling().adjoint().as_matrix() @ ws.ff.analysis_matrix()
        for k, (pattern, err) in enumerate(local_error_vector(ws, vs, 1)):
            oracle = float(np.linalg.norm(np.outer(left[:, k], right[k, :]), "fro"))
            assert abs(err - oracle) <= 1e-12

    def test_two_plane_equal_weights_single_loss_errors(self):
        # Oracle: error for losing one unit vector f is the norm of the
        # corresponding reconstruction column, here ||inverse(diag(3/2,3/2,3))
        # applied to f||.  The vectors along the shared third axis give 1/3;
        # the tilted ones give sqrt(1/3 + 1/36) = sqrt(13)/6.  The two
        # blocks mirror each other, so the multiset is {1/3, s13, s13} twice.
        ws = two_plane_system(1.0, 1.0)
        report = local_mse_optimal_system(ws)
        errors = [e for _, e in report.per_pattern_errors]
        s13 = math.sqrt(13.0) / 6.0
        expected = [1.0 / 3.0, s13, s13, 1.0 / 3.0, s13, s13]
        np.testing.assert_allclose(errors, expected, atol=1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_brute_force_oracle_random(self, rng, complex_field):
        for _ in range(3):
            ws = random_system(rng, 4, 3, complex_field, unit_norm=True)
            for vs in (local_mse_optimal_system(ws).optimal_system,
                       random_dual_system(rng, ws)):
                for r in (1, 2, 3):
                    for pattern, err in local_error_vector(ws, vs, r):
                        oracle = brute_force_local_error(ws, vs, pattern.indices)
                        assert abs(err - oracle) <= 1e-12 * max(1.0, oracle)


    def test_misaligned_systems_raise_length_mismatch(self, rng):
        ws = random_system(rng, 4, 2, unit_norm=True)
        vs = local_mse_optimal_system(ws).optimal_system
        first = vs.local_frames[0].vectors
        longer = FusionFrameSystem(vs.ff, (Frame(np.vstack([first, first[:1]])),)
                                   + vs.local_frames[1:])
        for primal, dual in ((ws, longer), (longer, ws)):
            with pytest.raises(LengthMismatch):
                local_error_vector(primal, dual, 1)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_block_permutation_permutes_tables(self, rng, complex_field):
        ws = random_system(rng, 3, 4, complex_field, unit_norm=True)
        perm = rng.permutation(ws.ff.size)
        permuted = FusionFrameSystem(
            FusionFrame(tuple(ws.ff.subspaces[k] for k in perm), ws.ff.weights[perm]),
            tuple(ws.local_frames[k] for k in perm))
        report, report_perm = (local_mse_optimal_system(s) for s in (ws, permuted))
        for r in (1, 2, 3):
            original = {p.indices: e for p, e in
                        local_error_vector(ws, report.optimal_system, r)}
            for pattern, err in local_error_vector(permuted, report_perm.optimal_system, r):
                lost = tuple(sorted((int(perm[i]), l) for i, l in pattern.indices))
                assert abs(err - original[lost]) <= 1e-12 * max(1.0, err)
        for p in (2.0, math.inf):
            levels, levels_perm = (
                hierarchical_optimal(replace(rep, p=p), ws.total_local,
                                     samples=1).aggregate_by_r
                for rep in (report, report_perm))
            assert set(levels) == set(levels_perm) == set(range(1, ws.total_local + 1))
            for r, value in levels.items():
                assert abs(levels_perm[r] - value) <= 1e-12 * value
        assert report.aggregate_by_r.keys() == report_perm.aggregate_by_r.keys()
        for r, value in report.aggregate_by_r.items():
            assert abs(report_perm.aggregate_by_r[r] - value) <= 1e-12 * value


class TestLocalMseOptimal:
    def test_requires_unit_norm(self, rng):
        ws = random_system(rng, 4, 2, unit_norm=False)
        norms = np.concatenate([np.linalg.norm(f.vectors, axis=1)
                                for f in ws.local_frames])
        if np.all(np.abs(norms - 1) < 1e-9):
            pytest.skip("random frames happened to be unit norm")
        with pytest.raises(NotUnitNorm):
            local_mse_optimal_system(ws)

    def test_orthonormal_global_basis_self_dual_scaled(self, rng):
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        ff = FusionFrame.from_spanning_sets([u[:, :2], u[:, 2:]], [1.0, 2.0])
        ws = FusionFrameSystem(ff, (Frame(u[:, :2].T), Frame(u[:, 2:].T)))
        v = np.array([2.0, 1.0])
        report = local_mse_optimal_system(ws, v)
        for i, frame in enumerate(report.optimal_system.local_frames):
            expected = ws.local_frames[i].vectors / (ff.weights[i] * v[i])
            np.testing.assert_allclose(frame.vectors, expected, atol=1e-10)

    def test_never_beaten_by_competitor_systems(self, rng):
        from fusionframes.systems import dual_system_from_left_inverse_of_frame
        from fusionframes import frames as fr

        ws = random_system(rng, 4, 2, unit_norm=True)
        report = local_mse_optimal_system(ws)
        wf = ws.global_frame(True)
        synth = fr.synthesis(wf)
        pinv = np.linalg.pinv(synth)
        a0 = pinv.conj().T
        proj = np.eye(ws.total_local) - pinv @ synth
        beaten = 0
        for _ in range(50):
            z = rng.normal(size=a0.shape) * rng.uniform(0.0, 1.5)
            vs = dual_system_from_left_inverse_of_frame(ws, a0 + z @ proj,
                                                        ws.ff.weights.copy())
            comp = math.fsum(e ** 2 for _, e in local_error_vector(ws, vs, 1))
            if comp < report.aggregate ** 2 - 1e-9:
                beaten += 1
        assert beaten == 0


class TestLocalWorstCase:
    def test_rejects_zero_vectors(self, rng):
        ws = random_system(rng, 4, 2)
        vecs = ws.local_frames[0].vectors.copy()
        vecs[0] = 0.0
        try:
            bad = FusionFrameSystem(ws.ff, (Frame(vecs), ws.local_frames[1]))
        except Exception:
            pytest.skip("zero vector broke spanning; construction refused")
        with pytest.raises(NullVector):
            local_worst_case_optimal_system(bad)

    def test_parseval_uniform_norm_system_is_optimal(self, rng):
        # orthonormal-basis blocks: the global weighted frame is Parseval
        # with equal-norm vectors, so the primal system is its own optimum
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        ff = FusionFrame.from_spanning_sets([u[:, :2], u[:, 2:]], [1.0, 1.0])
        ws = FusionFrameSystem(ff, (Frame(u[:, :2].T), Frame(u[:, 2:].T)))
        report = local_worst_case_optimal_system(
            ws, solver=SolverConfig(max_iters=2000))
        for i, sub in enumerate(report.optimal_system.ff.subspaces):
            assert sub.distance_to(ff.subspaces[i]) <= 1e-6
        assert abs(report.aggregate - 1.0) <= 1e-8
        assert "theorem-backed" in report.certificate

    def test_equal_start_norms_with_unequal_coefficients_claim_nothing(self):
        # Unit vectors at 0, 70 and 140 degrees with weights (1, r, 1): r is
        # chosen so that the columns ||S^-1 w_k f_k|| of the start point are
        # equal, but the erasure charges c_k = w_k ||f_k|| are not, so the
        # start point is not optimal and no uniqueness may be claimed.
        vecs = [np.array([math.cos(t), math.sin(t)])
                for t in np.radians([0.0, 70.0, 140.0])]

        def start_columns(r):
            w = np.array([1.0, r, 1.0])
            s_op = sum(wk ** 2 * np.outer(f, f) for wk, f in zip(w, vecs))
            return [np.linalg.norm(np.linalg.solve(s_op, wk * f))
                    for wk, f in zip(w, vecs)]

        r = brentq(lambda r: start_columns(r)[1] - start_columns(r)[0], 1.0, 3.0)
        ff = FusionFrame.from_spanning_sets([f.reshape(2, 1) for f in vecs], [1.0, r, 1.0])
        ws = FusionFrameSystem(ff, tuple(Frame(f.reshape(1, 2)) for f in vecs))
        report = local_worst_case_optimal_system(ws)
        assert "theorem-backed" not in report.certificate
        assert report.solver.phi < report.solver.phi_start - 0.1

    def test_single_block_system(self, rng):
        ff = FusionFrame.from_spanning_sets([np.eye(3)], [1.0])
        vectors = np.vstack([np.eye(3), np.ones((1, 3)) / math.sqrt(3.0)])
        ws = FusionFrameSystem(ff, (Frame(vectors),))
        report = local_worst_case_optimal_system(
            ws, solver=SolverConfig(max_iters=2000))
        assert report.optimal_dual.residual <= 1e-9


def basis_system(ff):
    """The system whose local frames are the stored orthonormal bases."""
    return FusionFrameSystem(ff, tuple(Frame(sub.basis.T) for sub in ff.subspaces))


class TestOneGroupProblem:
    """Subspace and local-vector erasures are one problem: a system whose
    local frames are orthonormal bases of its subspaces has the same
    synthesis matrix and costs under both constructors."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_orthonormal_local_bases_give_the_subspace_mse_dual(self, rng, complex_field):
        ff = random_overcomplete_fusion_frame(rng, 4, 3, complex_field)
        ws = basis_system(ff)
        blocks = _GroupProblem.of_blocks(ff)
        local = _GroupProblem.of_local_vectors(ws, unit_norm=True)
        np.testing.assert_array_equal(local.synth, blocks.synth)
        np.testing.assert_array_equal(local.column_coeffs, blocks.column_coeffs)
        pair = mse_optimal_dual(ff).optimal_dual
        vs = local_mse_optimal_system(ws).optimal_system
        left = pair.dual.synthesis_matrix() @ pair.q.as_matrix()
        left_local = vs.ff.synthesis_matrix() @ vs.coupling().as_matrix()
        assert frobenius_norm(left_local - left) <= 1e-12 * frobenius_norm(left)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_lines_give_the_subspace_worst_case(self, rng, complex_field):
        ff = random_fusion_frame(rng, 3, 5, complex_field, max_dim=1)
        blocks = worst_case_optimal_dual(ff)
        local = local_worst_case_optimal_system(basis_system(ff))
        assert local.solver.iterations == blocks.solver.iterations
        assert abs(local.solver.phi - blocks.solver.phi) <= 1e-9 * blocks.solver.phi
        assert len(local.per_pattern_errors) == ff.size
        for (block, err), (vector, err_local) in zip(blocks.per_pattern_errors,
                                                     local.per_pattern_errors):
            assert vector.indices == ((block.indices[0], 0),)
            assert abs(err_local - err) <= 1e-9 * err


def _certificate_levels(certificate, name):
    """{r: value printed after ``name``} from the level lines of a hierarchy
    certificate."""
    out = {}
    for line in certificate.splitlines():
        if line.startswith("r=") and name + " " in line:
            r = int(line[2:line.index(":")])
            out[r] = float(line.split(name + " ")[1].split(",")[0])
    return out


class TestHierarchical:
    def test_mse_chain_constant_on_two_plane(self):
        ff = two_plane_frame(1.0, 2.0)
        base = mse_optimal_dual(ff)
        chained = hierarchical_optimal(base, 2, samples=10)
        assert set(chained.aggregate_by_r) == {1, 2}
        assert "chain constant" in chained.certificate
        assert abs(chained.aggregate_by_r[2] - math.sqrt(3.0)) <= 1e-9

    def test_worst_case_chain_on_uniform_parseval(self, rng):
        # Every block has the same erasure norm, so level 1 attains its bound;
        # the pairs of blocks do not all lose the same, so level 2 does not.
        ff = random_parseval_uniform_equidim(rng, 4, 2, copies=2)
        base = worst_case_optimal_dual(ff, solver=SolverConfig(max_iters=1500))
        chained = hierarchical_optimal(base, 2, samples=5)
        bounds = _certificate_levels(chained.certificate, "lower bound")
        assert abs(chained.aggregate_by_r[1] - bounds[1]) <= 1e-9
        assert chained.aggregate_by_r[2] > bounds[2] + 1e-3
        assert "chain constant" not in chained.certificate
        assert chained.certificate.endswith(
            "lower bound not attained at r=2: optimality above the bound is not proven there")

    def test_p_inf_level_1_takes_the_solvers_bound_and_a_replaced_dual_does_not(self):
        # Example 6.4: the power-mean bound at level 1 lies below the
        # optimum, so only the solver's certified bound proves it.  A report
        # whose dual was replaced starts with an empty cache and falls back
        # to the power-mean bound; its canonical dual is not optimal there.
        ff = load_spec(str(fixture_path("example_6_4.json"))).fusion_frame()
        base = worst_case_optimal_dual(ff)
        checked = hierarchical_optimal(base, 2)
        bounds = _certificate_levels(checked.certificate, "lower bound")
        assert abs(bounds[1] - base.solver.phi) <= 1e-12 * base.solver.phi
        assert "chain constant" in checked.certificate
        replaced = hierarchical_optimal(replace(base, optimal_dual=canonical_dual(ff)), 2)
        fallback = _certificate_levels(replaced.certificate, "lower bound")
        assert fallback[1] < 0.99 * base.solver.phi < replaced.aggregate_by_r[1]
        assert replaced.certificate.endswith(
            "lower bound not attained at r=1: optimality above the bound is not proven there")

    def test_local_chain(self, rng):
        ws = random_system(rng, 3, 2, unit_norm=True)
        base = local_mse_optimal_system(ws)
        chained = hierarchical_optimal(base, 2, samples=5)
        assert set(chained.aggregate_by_r) >= {1, 2}

    def test_level_m_is_identity_norm(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        base = mse_optimal_dual(ff)
        chained = hierarchical_optimal(base, 2, samples=3)
        assert abs(chained.aggregate_by_r[2] - 2.0) <= 1e-9

    def test_bad_max_r(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        base = mse_optimal_dual(ff)
        with pytest.raises(BadR):
            hierarchical_optimal(base, 5)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_certificate_without_samples(self, samples):
        base = mse_optimal_dual(two_plane_frame(1.0, 2.0))
        with pytest.raises(ValueError, match="samples must be at least 1"):
            hierarchical_optimal(base, 2, samples=samples)

    def test_p2_canonical_dual_is_beaten_by_the_mse_optimum(self):
        # Example 6.3 with w = (1, 2): the canonical dual's level-1 aggregate
        # is 1.6371, the optimum's 1.5811.  Ten sampled competitors missed it.
        ff = two_plane_frame(1.0, 2.0)
        base = replace(mse_optimal_dual(ff), optimal_dual=canonical_dual(ff))
        with pytest.raises(BadR, match="the mean-square optimum beat the optimizer at level 1"):
            hierarchical_optimal(base, 2)

    def test_p2_certificate_is_theorem_backed(self):
        chained = hierarchical_optimal(mse_optimal_dual(two_plane_frame(1.0, 2.0)), 2)
        assert "theorem-backed" in chained.certificate
        assert "identity 1'G1 = d holds" in chained.certificate
        assert "sampled" not in chained.certificate.split("hierarchy check")[1]

    @staticmethod
    def _check_two_engines_and_no_draws(rng, monkeypatch, p):
        base = replace(mse_optimal_dual(random_overcomplete_fusion_frame(rng, 4, 5)), p=p)
        built = []

        class CountedErasures(_GroupErasures):
            def __init__(self, problem, left):
                built.append(left)
                super().__init__(problem, left)

        def must_not_run(*args, **kwargs):
            raise AssertionError("the hierarchy check sampled competitors")

        monkeypatch.setattr(erasures, "_GroupErasures", CountedErasures)
        monkeypatch.setattr(erasures, "_left_inverse_family", must_not_run)
        monkeypatch.setattr(np.random, "default_rng", must_not_run)
        few = hierarchical_optimal(base, 5, samples=1)
        many = hierarchical_optimal(base, 5, samples=50)
        # The replaced report builds its two engines on first use, and the
        # second check reuses them.
        assert len(built) == 2
        assert few.certificate == many.certificate
        assert few.aggregate_by_r == many.aggregate_by_r

    def test_p2_builds_two_engines_and_draws_nothing(self, rng, monkeypatch):
        self._check_two_engines_and_no_draws(rng, monkeypatch, 2.0)

    def test_p_inf_builds_two_engines_and_draws_nothing(self, rng, monkeypatch):
        self._check_two_engines_and_no_draws(rng, monkeypatch, math.inf)

    def test_a_report_and_two_checks_build_one_problem_two_engines_and_one_solve(
            self, monkeypatch):
        counts = dict.fromkeys(("problems", "engines", "solves"), 0)
        post_init, core = _GroupProblem.__post_init__, erasures._core

        def counted_post_init(problem):
            counts["problems"] += 1
            post_init(problem)

        class CountedErasures(_GroupErasures):
            def __init__(self, problem, left):
                counts["engines"] += 1
                super().__init__(problem, left)

        def counted_core(*args, **kwargs):
            counts["solves"] += 1
            return core(*args, **kwargs)

        monkeypatch.setattr(_GroupProblem, "__post_init__", counted_post_init)
        monkeypatch.setattr(erasures, "_GroupErasures", CountedErasures)
        monkeypatch.setattr(erasures, "_core", counted_core)
        base = mse_optimal_dual(random_overcomplete_fusion_frame(np.random.default_rng(7), 4, 5))
        for r in (2, 3):
            hierarchical_optimal(base, r)
        assert counts == {"problems": 1, "engines": 2, "solves": 1}

    def test_a_checked_report_is_freed_without_the_collector(self):
        # A cycle between the cached engines and their problem would keep
        # all three, with the problem's SVD, alive until a collection.
        enabled = gc.isenabled()
        gc.disable()
        try:
            base = mse_optimal_dual(two_plane_frame(1.0, 2.0))
            hierarchical_optimal(base, 2)
            refs = [weakref.ref(obj) for obj in (base._problem, base._engine, base._rival)]
            del base
            assert [ref() for ref in refs] == [None] * 3
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("optimizer", [mse_optimal_dual, worst_case_optimal_dual])
    def test_a_checked_report_drops_the_solve_and_gram_of_its_problem(self, optimizer):
        ff = random_overcomplete_fusion_frame(np.random.default_rng(7), 4, 5)
        base = optimizer(ff)
        hierarchical_optimal(base, 2)
        assert not {"mse_left_inverse", "synth_gram_t"} & set(vars(base._problem))
        assert (hierarchical_optimal(base, 3).certificate
                == hierarchical_optimal(optimizer(ff), 3).certificate)

    def test_a_replaced_report_reads_no_cached_engine(self):
        ff = two_plane_frame(1.0, 2.0)
        base = mse_optimal_dual(ff)
        hierarchical_optimal(base, 2)
        with pytest.raises(BadR, match="the mean-square optimum beat the optimizer at level 1"):
            hierarchical_optimal(replace(base, optimal_dual=canonical_dual(ff)), 2)
        fresh = replace(mse_optimal_dual(ff), p=math.inf)
        assert (hierarchical_optimal(replace(base, p=math.inf), 2).certificate
                == hierarchical_optimal(fresh, 2).certificate)

    def test_p2_checks_that_the_maps_sum_to_the_identity(self):
        base = mse_optimal_dual(two_plane_frame(1.0, 2.0))
        pair = base.optimal_dual
        # A T* = (1 + 1e-8) I: 1'G1 misses d = 3 by 6e-8, but the recorded
        # residual is the optimum's, about 1e-16.
        off = replace(pair, dual=FusionFrame(pair.dual.subspaces,
                                             (1.0 + 1e-8) * pair.dual.weights))
        with pytest.raises(NotADual, match="group maps do not sum to the identity"):
            hierarchical_optimal(replace(base, optimal_dual=off), 2)
        # With its true residual the identity holds (the bound is tight here),
        # and the comparison with the optimum catches the scaled dual instead.
        honest = replace(off, residual=q_dual_residual(off.primal, off.dual, off.q))
        with pytest.raises(BadR, match="level 1"):
            hierarchical_optimal(replace(base, optimal_dual=honest), 2)

    def test_p2_local_hierarchy_needs_unit_norm_local_frames(self, rng):
        ws = random_system(rng, 3, 2)
        base = replace(local_worst_case_optimal_system(ws), p=2.0)
        with pytest.raises(NotUnitNorm):
            hierarchical_optimal(base, 2)

    def test_p2_lists_every_level_beyond_the_enumeration_cap(self, rng):
        # 24 lines in R^3: C(24, 9) = 1307504 patterns exceed the cap, but
        # the p = 2 levels need no enumeration.
        ff = random_fusion_frame(rng, 3, 24, max_dim=1)
        base = mse_optimal_dual(ff)
        assert set(base.aggregate_by_r) == set(range(1, 9))
        chained = hierarchical_optimal(base, 12)
        assert set(chained.aggregate_by_r) == set(range(1, 13))
        assert "r=12: optimizer" in chained.certificate
        for r, value in base.aggregate_by_r.items():
            assert abs(chained.aggregate_by_r[r] - value) <= 1e-12 * value

    def test_p_inf_refuses_levels_beyond_the_enumeration_cap(self, rng, monkeypatch):
        ff = random_fusion_frame(rng, 3, 24, max_dim=1)
        base = replace(mse_optimal_dual(ff), p=math.inf)

        def must_not_run(*args, **kwargs):
            raise AssertionError("an engine was built before the cap was checked")

        monkeypatch.setattr(erasures, "_GroupErasures", must_not_run)
        with pytest.raises(BadR, match=r"1307504 patterns of size 9 exceed the exact "
                                       r"enumeration cap \(1000000\)"):
            hierarchical_optimal(base, 12)

    def test_p_inf_optimum_tied_below_and_lower_above_raises(self):
        # The MSE optimum ties the report at levels 1 and 2, so it is a
        # stage-3 competitor, and it beats the report there.
        _, base = tied_hierarchy_report()
        assert hierarchical_optimal(base, 2).aggregate_by_r == pytest.approx({1: 0.5, 2: 1.0})
        with pytest.raises(BadR, match="the mean-square optimum beat the optimizer at level 3"):
            hierarchical_optimal(base, 3)

    def test_p_inf_optimum_worse_at_level_1_is_no_competitor(self):
        # The MSE optimum is lower at levels 2-4 but higher at level 1, so it
        # is not optimal at level 1 and competes at no later stage.
        ws = random_system(np.random.default_rng(1), 3, 3)
        chained = hierarchical_optimal(local_worst_case_optimal_system(ws), 4)
        own = chained.aggregate_by_r
        rival = _certificate_levels(chained.certificate, "mean-square optimum")
        assert rival[1] > own[1] + 0.1
        assert all(rival[r] < own[r] - 0.05 for r in (2, 3, 4))
        assert "chain constant" not in chained.certificate

    def test_p_inf_example_6_3_attains_its_bounds(self):
        # Example 6.3 with w = (1, 2): the worst-case dual attains the lower
        # bound at both levels, so the chain is constant.
        chained = hierarchical_optimal(worst_case_optimal_dual(two_plane_frame(1.0, 2.0)), 2)
        bounds = _certificate_levels(chained.certificate, "lower bound")
        assert abs(bounds[1] - math.sqrt(1.25)) <= 1e-9
        for r in (1, 2):
            assert abs(chained.aggregate_by_r[r] - bounds[r]) <= 1e-9
        assert "chain constant" in chained.certificate
        assert "theorem-backed" in chained.certificate.split("hierarchy check")[1]

    @pytest.mark.parametrize("m", [40, 60, 100, 200])
    def test_p2_margin_grows_with_the_level(self, m):
        # m random lines in R^3 up to r = m/2.  At m = 100, level 13 reads
        # about 2.03e7, and the report and the optimum read it 1 ulp
        # (3.7e-9) apart: an absolute margin of 1e-9 failed the optimum
        # against itself.
        rng = np.random.default_rng(1)
        spans = [rng.normal(size=3).reshape(3, 1) for _ in range(m)]
        ff = FusionFrame.from_spanning_sets(spans, rng.uniform(0.5, 2, size=m))
        chained = hierarchical_optimal(mse_optimal_dual(ff), m // 2)
        assert set(chained.aggregate_by_r) == set(range(1, m // 2 + 1))
        assert "chain constant" in chained.certificate

    def test_p2_level_whose_pattern_counts_pass_the_float_range(self):
        # 1100 lines in R^2: C(1099, 549) has 1095 bits, so it is no float,
        # but the level-550 aggregate is about 1e165.
        rng = np.random.default_rng(0)
        spans = [rng.normal(size=2).reshape(2, 1) for _ in range(1100)]
        base = mse_optimal_dual(FusionFrame.from_spanning_sets(spans, np.ones(1100)))
        engine = base._engine
        tr, total = Fraction(engine._trace), Fraction(engine._sum)
        fitting = 0
        for r in range(1, 1101):
            groups, pairs = math.comb(1099, r - 1), math.comb(1098, r - 2) if r >= 2 else 0
            exact = groups * tr + pairs * (total - tr)
            k = max(exact.numerator.bit_length() - exact.denominator.bit_length() - 900, 0) // 2
            reference = math.ldexp(math.sqrt(exact / 4 ** k), k)
            level = engine.level(r, 2)
            assert abs(level - reference) <= 1e-15 * reference, r
            try:
                unscaled = math.sqrt(max(groups * engine._trace
                                         + pairs * (engine._sum - engine._trace), 0.0))
            except OverflowError:
                continue
            # A level whose counts fit a float keeps the bits it had.
            assert level == unscaled, r
            fitting += 1
        assert 0 < fitting < 1100
        assert 1e164 < engine.level(550, 2) < 1e166
        chained = hierarchical_optimal(base, 550)
        assert chained.aggregate_by_r[550] == engine.level(550, 2)
        assert "chain constant" in chained.certificate


def maps_gram(problem, left):
    """The Gram matrix Re <M_j, M_k>_F of the group maps, each map
    M_j = left[:, g_j] T*[g_j, :] formed explicitly."""
    right = problem.synth.conj().T
    maps = [left[:, g] @ right[g, :] for g in problem.groups]
    return np.array([[np.vdot(mj, mk).real for mk in maps] for mj in maps])


def scaled_problem(rng, kind, complex_field, scale):
    """A random subspace or local-vector problem with every weight times ``scale``."""
    if kind == "blocks":
        ff = random_fusion_frame(rng, 4, 3, complex_field)
        return _GroupProblem.of_blocks(FusionFrame(ff.subspaces, ff.weights * scale))
    ws = random_system(rng, 4, 3, complex_field)
    return _GroupProblem.of_local_vectors(FusionFrameSystem(
        FusionFrame(ws.ff.subspaces, ws.ff.weights * scale), ws.local_frames))


class TestKernelGram:
    """The engine's Gram matrix against the explicit group maps."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_matches_the_group_maps(self, rng, kind, complex_field, scale):
        problem = scaled_problem(rng, kind, complex_field, scale)
        family = _left_inverse_family(problem.synth)
        competitor = family.member(rng.normal(size=family.shape) / scale)
        for left in (problem.mse_left_inverse, family.pinv_member, competitor):
            ref = maps_gram(problem, left)
            gram = _GroupErasures(problem, left).gram
            assert gram.shape == (len(problem.groups),) * 2
            assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_a_zero_subspace_gives_a_zero_row(self, rng):
        ff = random_fusion_frame(rng, 3, 2)
        problem = _GroupProblem.of_blocks(FusionFrame(
            ff.subspaces + (Subspace.zero(3),), np.append(ff.weights, 1.5)))
        gram = _GroupErasures(problem, problem.mse_left_inverse).gram
        assert not gram[2].any() and not gram[:, 2].any()
        ref = maps_gram(problem, problem.mse_left_inverse)
        assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_problem_builds_its_kernel_once(self, rng):
        problem = _GroupProblem.of_blocks(random_fusion_frame(rng, 3, 3))
        assert problem.synth_gram_t is problem.synth_gram_t
        assert problem.membership is problem.membership

    @pytest.mark.parametrize("optimizer", [mse_optimal_dual, worst_case_optimal_dual])
    def test_an_optimizer_decomposes_t_once(self, rng, monkeypatch, optimizer):
        # The spanning check and the left-inverse family share one SVD.
        ff = random_overcomplete_fusion_frame(rng, 3, 4)
        synth, svd = ff.synthesis_matrix(), np.linalg.svd
        of_t = []

        def counted_svd(a, *args, **kwargs):
            if np.shape(a) == synth.shape and np.array_equal(a, synth):
                of_t.append(kwargs)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        optimizer(ff)
        assert len(of_t) == 1


def gather_level(gram, r, p):
    """Per-pattern f(S) = 1'G_SS1 of the level-r patterns, each read by an
    r x r gather of G, 512 patterns at a time (the engine's reading before
    the pattern-tree walk), and the level's p-aggregate from them."""
    patterns, sums = combinations(range(len(gram)), r), []
    while True:
        lost = np.array(list(islice(patterns, 512)), dtype=np.intp).reshape(-1, r)
        if not lost.size:
            break
        sums.append(gram[lost[:, :, None], lost[:, None, :]].sum(axis=(1, 2)))
    errs = [np.sqrt(np.maximum(f, 0.0)) for f in sums]
    if p == math.inf:
        level = max(float(np.max(e)) for e in errs)
    else:
        level = sum(float(np.sum(e ** p)) for e in errs) ** (1.0 / p)
    return np.concatenate(sums), level


def exact_errors(gram, r):
    """sqrt(1'G_SS1) of every level-r pattern, from the exact rational sum of
    the float entries of G, correctly rounded."""
    entries = [[Fraction(float(x)) for x in row] for row in gram]
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for lost in combinations(range(len(gram)), r):
            f = sum(entries[a][b] for a in lost for b in lost)
            out.append(float((Decimal(f.numerator) / Decimal(f.denominator)).sqrt()))
    return out


def walk_problem(rng, kind, complex_field):
    """A random frame of 7 blocks or a system of 6 to 9 local vectors in F^3,
    and a random left inverse with a kernel part as large as its
    pseudoinverse part: its group maps cancel, so G has entries far above
    the errors of the largest patterns."""
    if kind == "blocks":
        problem = _GroupProblem.of_blocks(
            random_overcomplete_fusion_frame(rng, 3, 7, complex_field))
    else:
        problem = _GroupProblem.of_local_vectors(random_system(rng, 3, 3, complex_field))
    family = _left_inverse_family(problem.synth)
    z = rng.normal(size=family.shape)
    if complex_field:
        z = z + 1j * rng.normal(size=family.shape)
    return problem, family.member(frobenius_norm(family.pinv_member) * z)


class TestPatternWalk:
    """Tables and levels read from the pattern-tree walk against brute force."""

    @pytest.mark.parametrize("walk", [None, 64])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_tables_and_levels_match_brute_force(self, rng, monkeypatch, kind,
                                                 complex_field, walk):
        # walk = 64 cuts the levels into chunks of 64 // m patterns, so the
        # walk crosses chunk boundaries at every depth.
        if walk is not None:
            monkeypatch.setattr(erasures, "_WALK", walk)
        eps = np.finfo(float).eps
        for _ in range(2):
            problem, left = walk_problem(rng, kind, complex_field)
            m, labels = len(problem.groups), problem.labels
            assert m <= 9
            right = problem.synth.conj().T
            maps = [left[:, g] @ right[g, :] for g in problem.groups]
            engine = _GroupErasures(problem, left)
            worst = engine.levels(math.inf)
            assert list(worst) == list(range(1, m + 1))
            for r in range(1, m + 1):
                patterns = list(combinations(range(m), r))
                table = engine.table(r)
                assert [pattern.indices for pattern, _ in table] == [
                    tuple(labels[k] for k in lost) for lost in patterns]
                errs = np.array([err for _, err in table])
                for err, lost in zip(errs, patterns):
                    exact = frobenius_norm(sum(maps[k] for k in lost))
                    assert abs(err - exact) <= 1e-12 * exact
                # The walk reads every pattern the same way at every depth
                # and chunk size.
                assert errs.max() == worst[r]
                assert _GroupErasures(problem, left).level(r, math.inf) == worst[r]
                # The gather's sum of r^2 entries rounds by at most
                # r^2 eps sum|G_SS| in f(S); the walk is within an ulp.
                f, _ = gather_level(engine.gram, r, 1.0)
                spread, _ = gather_level(np.abs(engine.gram), r, 1.0)
                ref = np.sqrt(np.maximum(f, 0.0))
                slack = r * r * eps * spread / np.maximum(errs + ref, np.finfo(float).tiny)
                assert np.all(np.abs(errs - ref) <= 2 * np.spacing(ref) + slack)
                for p in (1.0, 3.0, math.inf):
                    _, reference = gather_level(engine.gram, r, p)
                    bound = (np.max(slack) if p == math.inf
                             else float(np.sum(slack ** p)) ** (1.0 / p))
                    assert (abs(engine.level(r, p) - reference)
                            <= 2 * np.spacing(reference) + bound), (r, p)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_levels_are_within_an_ulp_of_the_exact_ones(self, rng, kind, complex_field):
        # The walk's sums of the grid parts are exact, so f(S) is rounded
        # once; the gather is off by up to hundreds of ulps on these
        # problems, whose maps cancel.
        for _ in range(3):
            problem, left = walk_problem(rng, kind, complex_field)
            engine = _GroupErasures(problem, left)
            for r, level in engine.levels(math.inf).items():
                exact = exact_errors(engine.gram, r)
                assert abs(level - max(exact)) <= np.spacing(max(exact)), r
                for p in (1.0, 3.0):
                    reference = math.fsum(e ** p for e in exact) ** (1.0 / p)
                    assert (abs(engine.level(r, p) - reference)
                            <= 4 * np.spacing(reference)), (r, p)

    def test_p_inf_levels_at_m24_stop_at_the_cap_in_bounded_memory(self):
        # The m = 24 case of tools/level_scale.py.  C(24, 9) = 1307504
        # patterns exceed MAX_PATTERNS, so the walk stops at r = 8, after
        # 1271625 patterns; held as one level, r = 7 alone would need 133
        # MB of v.
        rng = np.random.default_rng(5)
        random_fusion_frame(rng, 20, 12, max_dim=20)
        random_fusion_frame(rng, 30, 16, max_dim=20)
        problem = _GroupProblem.of_blocks(random_fusion_frame(rng, 40, 24, max_dim=20))
        engine = _GroupErasures(problem, problem.mse_left_inverse)
        tracemalloc.start()
        try:
            levels = engine.levels(math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(levels) == list(range(1, 9))
        assert peak <= 32e6
        _, reference = gather_level(engine.gram, 2, math.inf)
        assert abs(levels[2] - reference) <= 2 * np.spacing(reference)


def mse_group_maps(ff):
    """The mean-square optimum's group maps from explicit products: the left
    inverse (T D^-1 T*)^-1 T D^-1 with D the squared weights per column, and
    each map its columns of a block times the block's rows of T*."""
    synth = ff.synthesis_matrix()
    scaled = synth / np.repeat(ff.weights, [s.dim for s in ff.subspaces]) ** 2
    left = np.linalg.inv(scaled @ synth.conj().T) @ scaled
    return [left[:, sl] @ synth.conj().T[sl, :] for sl in ff.block_slices()]


@pytest.mark.parametrize("complex_field", [False, True])
def test_hierarchy_rival_and_bounds_match_explicit_maps(rng, complex_field):
    """At p = inf the printed rival is the largest pattern error of the mean-
    square optimum's explicit group maps, and the printed bound is
    sqrt(S_r / N_r), S_r the level-r sum of squares of the same maps."""
    ff = random_overcomplete_fusion_frame(rng, 3, 4, complex_field)
    chained = hierarchical_optimal(replace(mse_optimal_dual(ff), p=math.inf), 3)
    maps = mse_group_maps(ff)
    rival, bound = {}, {}
    for r in (1, 2, 3):
        errors = [frobenius_norm(sum(maps[j] for j in lost))
                  for lost in combinations(range(ff.size), r)]
        rival[r] = max(errors)
        bound[r] = math.sqrt(math.fsum(e * e for e in errors) / len(errors))
    for name, reference in (("mean-square optimum", rival), ("lower bound", bound)):
        printed = _certificate_levels(chained.certificate, name)
        assert printed.keys() == reference.keys()
        for r, value in reference.items():
            assert abs(printed[r] - value) <= 1e-11 * value


def level_rounding(problem, trace, r):
    """A bound on the rounding of a level-r sum of squares read from G.

    tr G and 1'G1 are exact up to rounding of order eps n tr G (n columns),
    and the sum carries them C(m-1, r-1) and C(m-2, r-2) times.  A member
    with a large tr G reads sqrt(d) at r = m only to that accuracy.
    """
    n, m = problem.synth.shape[1], len(problem.groups)
    return 2 * math.comb(m - 1, r - 1) * 1e-12 * n * trace


def random_problem(seed, kind, complex_field):
    """A random subspace problem, or a local problem with unit-norm charges."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    if kind == "blocks":
        return rng, _GroupProblem.of_blocks(
            random_fusion_frame(rng, d, int(rng.integers(2, 6)), complex_field))
    ws = random_system(rng, d, int(rng.integers(2, 4)), complex_field, unit_norm=True)
    return rng, _GroupProblem.of_local_vectors(ws, unit_norm=True)


def random_members(rng, problem, count):
    """``count`` random members of the affine family, at scales from near the
    pseudoinverse member to far from it."""
    family = _left_inverse_family(problem.synth)
    for scale in np.geomspace(1e-3, 10.0, count):
        z = rng.normal(size=family.shape)
        if np.iscomplexobj(problem.synth):
            z = z + 1j * rng.normal(size=family.shape)
        yield family.member(scale * frobenius_norm(family.pinv_member) * z)


class TestP2Theorem:
    """For every left inverse the group maps sum to A T* = I_d, so 1'G1 = d
    and the level-r sum of squares is C(m-2, r-1) tr G + C(m-2, r-2) d:
    increasing in tr G, so the MSE optimum is optimal at every level."""

    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["blocks", "local"]),
           complex_field=st.booleans())
    @settings(max_examples=30)
    def test_level_is_the_closed_form_in_tr_g_and_d(self, seed, kind, complex_field):
        rng, problem = random_problem(seed, kind, complex_field)
        d, m = problem.synth.shape[0], len(problem.groups)
        for left in (problem.mse_left_inverse, *random_members(rng, problem, 2)):
            engine = _GroupErasures(problem, left)
            trace = float(np.trace(maps_gram(problem, left)))
            for r in range(1, m + 1):
                closed = (math.comb(m - 2, r - 1) * trace
                          + (math.comb(m - 2, r - 2) * d if r >= 2 else 0.0))
                enumerated = math.fsum(e * e for _, e in engine.table(r))
                tol = 1e-12 * closed + level_rounding(problem, trace, r)
                assert abs(enumerated - closed) <= tol
                assert abs(engine.level(r, 2) ** 2 - closed) <= tol

    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["blocks", "local"]),
           complex_field=st.booleans())
    @settings(max_examples=30)
    def test_no_member_beats_the_mse_optimum_at_any_level(self, seed, kind, complex_field):
        rng, problem = random_problem(seed, kind, complex_field)
        m = len(problem.groups)
        optimum = _GroupErasures(problem, problem.mse_left_inverse)
        for left in random_members(rng, problem, 5):
            # Only rounding separates a member equal to the optimum (a Riesz
            # basis has one left inverse), or any member at r = m.
            member = _GroupErasures(problem, left)
            trace = np.trace(member.gram)
            for r in range(1, m + 1):
                assert (member.level(r, 2) ** 2
                        >= optimum.level(r, 2) ** 2 - level_rounding(problem, trace, r))


def moved_frame(ff, u, scale):
    """``ff`` with every subspace mapped by the unitary ``u`` and every
    weight multiplied by ``scale``."""
    return FusionFrame(tuple(Subspace(u @ s.basis) for s in ff.subspaces), scale * ff.weights)


def moved_system(ws, u, scale):
    """``ws`` with its subspaces and local vectors mapped by ``u`` and its
    weights multiplied by ``scale``."""
    return FusionFrameSystem(moved_frame(ws.ff, u, scale),
                             tuple(Frame(f.vectors @ u.T) for f in ws.local_frames))


class TestP2Invariance:
    """The p = 2 level aggregates and the hierarchy do not depend on a common
    weight scale, a unitary change of ambient coordinates or the embedding
    of a real problem in the complex field."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "embedding"])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_levels_and_hierarchy(self, rng, kind, change, scale):
        d = 4 if kind == "blocks" else 3
        u = (np.eye(d, dtype=complex) if change == "embedding"
             else random_unitary(rng, d, complex_field=change == "unitary"))
        if kind == "blocks":
            ff = random_overcomplete_fusion_frame(rng, d, 4)
            reports = [mse_optimal_dual(ff), mse_optimal_dual(moved_frame(ff, u, scale))]
            m = ff.size
        else:
            ws = random_system(rng, d, 2, unit_norm=True)
            reports = [local_mse_optimal_system(ws),
                       local_mse_optimal_system(moved_system(ws, u, scale))]
            m = ws.total_local
        chained = [hierarchical_optimal(report, m) for report in reports]
        for before, after in ((reports[0].aggregate_by_r, reports[1].aggregate_by_r),
                              (chained[0].aggregate_by_r, chained[1].aggregate_by_r)):
            assert before.keys() == after.keys()
            for r, value in before.items():
                assert abs(after[r] - value) <= 1e-10 * value
        assert all("theorem-backed" in c.certificate for c in chained)

    def test_an_ill_conditioned_frame_certifies_in_rotated_coordinates(self):
        # cond T = 9.7e3.  The normal equations (T D^-1 T*)^-1 T D^-1 met
        # tol 1e-9 on the axis-aligned frame but not after this rotation
        # (residuals 1.9e-9 and 2.5e-9), though the optimum is only moved.
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        axis, rotated = tilted_plane_and_lines(), tilted_plane_and_lines(q)
        for optimizer, pick in ((mse_optimal_dual, lambda ws: ws.ff),
                                (local_mse_optimal_system, lambda ws: ws)):
            before, after = optimizer(pick(axis)), optimizer(pick(rotated))
            assert after.optimal_dual.residual <= 1e-9
            assert before.aggregate_by_r.keys() == after.aggregate_by_r.keys()
            for r, value in before.aggregate_by_r.items():
                assert abs(after.aggregate_by_r[r] - value) <= 1e-9 * value


def _hierarchy_reading(chained):
    """The levels, the printed bounds and the closing verdict of a hierarchy."""
    return (chained.aggregate_by_r, _certificate_levels(chained.certificate, "lower bound"),
            chained.certificate.splitlines()[-1])


class TestInfHierarchyInvariance:
    """The p = inf hierarchy of the mean-square bases: levels, lower bounds and
    the certified verdict do not depend on a common weight scale, a unitary
    change of ambient coordinates or the real-to-complex embedding."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "embedding"])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_levels_bounds_and_verdict(self, rng, kind, change, scale):
        d = 4 if kind == "blocks" else 3
        u = (np.eye(d, dtype=complex) if change == "embedding"
             else random_unitary(rng, d, complex_field=change == "unitary"))
        if kind == "blocks":
            ff = random_overcomplete_fusion_frame(rng, d, 4)
            reports = [mse_optimal_dual(ff), mse_optimal_dual(moved_frame(ff, u, scale))]
            m = ff.size
        else:
            ws = random_system(rng, d, 2, unit_norm=True)
            reports = [local_mse_optimal_system(ws),
                       local_mse_optimal_system(moved_system(ws, u, scale))]
            m = ws.total_local
        (levels, bounds, verdict), (levels_after, bounds_after, verdict_after) = (
            _hierarchy_reading(hierarchical_optimal(replace(report, p=math.inf), m))
            for report in reports)
        assert verdict_after == verdict
        for before, after in ((levels, levels_after), (bounds, bounds_after)):
            assert before.keys() == after.keys() == set(range(1, m + 1))
            for r, value in before.items():
                assert abs(after[r] - value) <= 1e-10 * value


class TestWorstCaseInvariance:
    """The worst-case optimum of a fusion frame or a system, the reported
    largest single-erasure error, does not depend on a common weight scale,
    a unitary change of ambient coordinates, the order of the blocks or the
    embedding of a real problem in the complex field."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_weight_scale(self, rng, kind, complex_field):
        if kind == "blocks":
            ff = random_overcomplete_fusion_frame(rng, 4, 4, complex_field)
            optima = [worst_case_optimal_dual(moved_frame(ff, np.eye(4), scale)).aggregate
                      for scale in (1e-6, 1.0, 1e6)]
        else:
            ws = random_system(rng, 3, 3, complex_field)
            optima = [local_worst_case_optimal_system(moved_system(ws, np.eye(3), scale)).aggregate
                      for scale in (1e-6, 1.0, 1e6)]
        for value in optima:
            assert abs(value - optima[1]) <= 1e-9 * optima[1]

    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "permutation", "embedding"])
    @pytest.mark.parametrize("kind", ["blocks", "local"])
    def test_optimum(self, rng, kind, change):
        d = 4 if kind == "blocks" else 3
        if kind == "blocks":
            ff = random_overcomplete_fusion_frame(rng, d, 4)
            solve, problem = worst_case_optimal_dual, ff
        else:
            ws = random_system(rng, d, 3)
            solve, problem, ff = local_worst_case_optimal_system, ws, ws.ff
        if change == "permutation":
            perm = np.roll(np.arange(ff.size), 1)
            moved = FusionFrame(tuple(ff.subspaces[k] for k in perm), ff.weights[perm])
            if kind == "local":
                moved = FusionFrameSystem(moved, tuple(ws.local_frames[k] for k in perm))
        else:
            u = (np.eye(d, dtype=complex) if change == "embedding"
                 else random_unitary(rng, d, complex_field=change == "unitary"))
            moved = (moved_frame if kind == "blocks" else moved_system)(problem, u, 1.0)
        before, after = solve(problem).aggregate, solve(moved).aggregate
        assert abs(after - before) <= 1e-9 * before


def random_worst_case_report(seed, kind, complex_field):
    """A worst-case report on a small random fusion frame or system."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    if kind == "blocks":
        return worst_case_optimal_dual(
            random_overcomplete_fusion_frame(rng, d, int(rng.integers(2, 5)), complex_field))
    return local_worst_case_optimal_system(random_system(rng, d, 2, complex_field))


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["blocks", "local"]),
       complex_field=st.booleans())
@settings(max_examples=12)
def test_worst_case_levels_are_at_least_their_bounds(seed, kind, complex_field):
    """The bound holds for every left inverse, so a worst-case report lies on
    or above it at every level below m (at r = m both read sqrt(d))."""
    report = random_worst_case_report(seed, kind, complex_field)
    m = len(report.per_pattern_errors)
    chained = hierarchical_optimal(report, m)
    bounds = _certificate_levels(chained.certificate, "lower bound")
    for r in range(1, m):
        assert chained.aggregate_by_r[r] >= bounds[r] - 1e-9
