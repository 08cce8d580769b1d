"""Erasure error tables and loss-optimal duals.

The brute-force oracles here rebuild every error operator from raw
subspace bases and weights with plain dense products, independently of
the BlockOp machinery under test.
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq

from fusionframes.duality import canonical_dual, dual_from_left_inverse, left_inverses_parametrization
from fusionframes.errors import BadR, NotUnitNorm, NullVector
from fusionframes.erasures import (
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
from fusionframes.linalg import frobenius_norm
from fusionframes.minimax import SolverConfig
from fusionframes import frames as fr
from fusionframes.systems import (
    FusionFrameSystem,
    dual_system_from_left_inverse_of_frame,
    is_dual_system,
)

from conftest import (
    random_fusion_frame,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_system,
)
from test_fusion import two_plane_frame
from test_systems import two_plane_system


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
        # 792 patterns of 5 lost blocks out of 12: the enumeration crosses a
        # chunk boundary and must keep the lexicographic order
        ff = random_fusion_frame(rng, 3, 12, max_dim=1)
        pair = canonical_dual(ff)
        table = error_vector(pair, 5)
        assert [p.indices for p, _ in table] == list(combinations(range(12), 5))
        for pattern, err in table[::7]:
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
                                     samples=0).aggregate_by_r
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


class TestHierarchical:
    def test_mse_chain_constant_on_two_plane(self):
        ff = two_plane_frame(1.0, 2.0)
        base = mse_optimal_dual(ff)
        chained = hierarchical_optimal(base, 2, samples=10)
        assert set(chained.aggregate_by_r) == {1, 2}
        assert "chain constant" in chained.certificate
        assert abs(chained.aggregate_by_r[2] - math.sqrt(3.0)) <= 1e-9

    def test_worst_case_chain_on_uniform_parseval(self, rng):
        ff = random_parseval_uniform_equidim(rng, 4, 2, copies=2)
        base = worst_case_optimal_dual(ff, solver=SolverConfig(max_iters=1500))
        chained = hierarchical_optimal(base, 2, samples=5)
        assert "chain constant" in chained.certificate

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
