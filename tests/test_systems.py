"""Fusion frame systems: coupling, dual systems, reconstruction formulas,
and the projective reconstruction-system bridge."""

import math

import numpy as np
import pytest

from fusionframes import frames as fr
from fusionframes.duality import canonical_dual, left_inverses_parametrization
from fusionframes.errors import (
    InvalidSystem,
    LengthMismatch,
    NotAFrame,
    NotLeftInverse,
    NotLocalDual,
    NotProjective,
    ShapeMismatch,
)
from fusionframes.frames import Frame, canonical_dual as canonical_dual_frame
from fusionframes.fusion import FusionFrame
from fusionframes.linalg import adjoint, frobenius_norm, orthonormalize, spectral_norm
from fusionframes.systems import (
    FusionFrameSystem,
    ProjectiveRS,
    canonical_dual_ops,
    dual_system_from_left_inverse_of_frame,
    dual_system_from_left_inverse_of_fusion,
    dual_system_iff_dual_frames,
    is_dual_system,
    projective_rs_bridge,
)

from conftest import random_matrix, random_system
from test_fusion import two_plane_frame

S3 = math.sqrt(3.0)


def two_plane_system(w1=1.0, w2=1.0) -> FusionFrameSystem:
    ff = two_plane_frame(w1, w2)
    locals_ = (
        Frame(np.array([[0.0, 0.0, 1.0],
                        [0.0, S3 / 2.0, -0.5],
                        [0.0, -S3 / 2.0, -0.5]])),
        Frame(np.array([[0.0, 0.0, 1.0],
                        [S3 / 2.0, 0.0, -0.5],
                        [-S3 / 2.0, 0.0, -0.5]])),
    )
    return FusionFrameSystem(ff, locals_)


def c4_system_pair():
    """The published dual pair of systems over the Riesz basis in C^4."""
    ws = FusionFrameSystem(
        FusionFrame.from_spanning_sets(
            [np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex),
             np.array([[0, 0], [1, 0], [0, 1], [-1, 0]], dtype=complex)],
            [1.0, 1.0]),
        (Frame(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)),
         Frame(np.array([[0, 1, 0, -1], [0, 0, 1, 0], [0, 0, 1, 0]], dtype=complex))))
    g1 = np.array([[0.5, 0.5, -0.5, 0], [0, 1, 0, 1], [0.5, -0.5, 0.5, 0]],
                  dtype=complex)
    g2 = np.array([[0, 0, 0, -1], [0.5, -0.5, 0.5, 0], [-0.5, 0.5, 0.5, 0]],
                  dtype=complex)
    vs = FusionFrameSystem(
        FusionFrame.from_spanning_sets([g1.T, g2.T], [1.0, 1.0]),
        (Frame(g1), Frame(g2)))
    return ws, vs


class TestConstruction:
    def test_rejects_vectors_outside_subspace(self):
        ff = two_plane_frame()
        with pytest.raises(InvalidSystem):
            FusionFrameSystem(ff, (Frame(np.array([[1.0, 0.0, 0.0]])),
                                   Frame(np.array([[1.0, 0.0, 0.0]]))))

    def test_rejects_non_spanning_local_frame(self):
        ff = two_plane_frame()
        with pytest.raises(InvalidSystem):
            FusionFrameSystem(ff, (Frame(np.array([[0.0, 1.0, 0.0]])),
                                   Frame(np.array([[1.0, 0.0, 0.0],
                                                   [0.0, 0.0, 1.0]]))))

    def test_rejects_nan_local_vector(self):
        # A NaN residual is not "within tolerance": the membership test
        # refuses it before any rank decision runs an SVD on NaN.
        ws = two_plane_system()
        vecs = ws.local_frames[0].vectors.copy()
        vecs[1, 1] = math.nan
        with pytest.raises(InvalidSystem, match="outside its subspace"):
            FusionFrameSystem(ws.ff, (Frame(vecs), ws.local_frames[1]))


    def test_errors_come_in_frame_order(self):
        # The span tests run after the other checks, stacked, yet the first
        # faulty frame is the one reported.
        ff = two_plane_frame()
        outside = Frame(np.array([[1.0, 0.0, 0.0]]))
        short = Frame(np.array([[0.0, 1.0, 0.0]]))
        wide = Frame(np.array([[1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidSystem, match="^local frame 0 does not span its subspace$"):
            FusionFrameSystem(ff, (short, outside))
        with pytest.raises(InvalidSystem, match="^local frame 0 does not span its subspace$"):
            FusionFrameSystem(ff, (short, wide))
        with pytest.raises(InvalidSystem, match="^local frame 0 has wrong ambient dimension$"):
            FusionFrameSystem(ff, (wide, short))
        with pytest.raises(InvalidSystem, match="^local frame 1 does not span its subspace$"):
            FusionFrameSystem(ff, (Frame(ff.subspaces[0].basis.T),
                                   Frame(np.array([[0.0, 0.0, 1.0]]))))


class TestCoupling:
    def test_basis_local_frames_give_identity_blocks(self, rng):
        ws = random_system(rng, 4, 2, extra=0)
        # local frames that are exactly the stored orthonormal bases
        locals_ = tuple(Frame(sub.basis.T) for sub in ws.ff.subspaces)
        system = FusionFrameSystem(ws.ff, locals_)
        coupling = system.coupling()
        for i, n in enumerate(system.ff.dims):
            np.testing.assert_allclose(coupling.block(i, i), np.eye(n), atol=1e-12)

    def test_tight_local_frames_have_tight_coupling_blocks(self):
        ws = two_plane_system()
        coupling = ws.coupling()
        for i in range(2):
            block = coupling.block(i, i)
            np.testing.assert_allclose(block @ adjoint(block),
                                       1.5 * np.eye(2), atol=1e-12)

    def test_global_synthesis_factorization(self, rng):
        for _ in range(5):
            ws = random_system(rng, 5, 3, complex_field=bool(rng.integers(2)))
            lhs = fr.synthesis(ws.global_frame(True))
            rhs = ws.ff.synthesis_matrix() @ ws.coupling().as_matrix()
            assert frobenius_norm(lhs - rhs) <= 1e-12 * max(1.0, frobenius_norm(lhs))

    def test_local_dual_coupling_left_inverse(self, rng):
        # couplings of local duals are left inverses of the coupling adjoint
        ws = random_system(rng, 5, 3)
        duals = []
        for sub, frame in zip(ws.ff.subspaces, ws.local_frames):
            coords = adjoint(sub.basis) @ fr.synthesis(frame)
            dual_coords = np.linalg.pinv(coords).conj().T
            duals.append(Frame((sub.basis @ dual_coords).T))
        dual_system = FusionFrameSystem(ws.ff, tuple(duals))
        product = (dual_system.coupling().as_matrix()
                   @ ws.coupling().adjoint().as_matrix())
        assert frobenius_norm(product - np.eye(ws.ff.total_dim)) <= 1e-10


class TestDualSystems:
    def test_published_c4_pair_certifies(self):
        ws, vs = c4_system_pair()
        pair = is_dual_system(ws, vs, tol=1e-10)
        assert pair.residual <= 1e-10

    def test_canonical_construction_certifies(self, rng):
        ws = random_system(rng, 5, 3)
        family = left_inverses_parametrization(ws.ff)
        local_duals = _local_canonical_duals(ws)
        vs = dual_system_from_left_inverse_of_fusion(
            ws, family.member(), ws.ff.weights.copy(), local_duals)
        assert is_dual_system(ws, vs).residual <= 1e-9

    def test_mismatched_local_sizes(self, rng):
        ws = random_system(rng, 4, 2, extra=1)
        vs = random_system(rng, 4, 2, extra=2)
        with pytest.raises(LengthMismatch):
            is_dual_system(ws, vs)

    def test_equivalence_published_pair(self):
        ws, vs = c4_system_pair()
        assert dual_system_iff_dual_frames(ws, vs) == (True, True)

    def test_equivalence_perturbed(self):
        ws, vs = c4_system_pair()
        bumped = vs.local_frames[0].vectors.copy()
        bumped[0, 0] += 0.1
        vs_bad = FusionFrameSystem(
            FusionFrame.from_spanning_sets(
                [bumped.T, vs.local_frames[1].vectors.T], [1.0, 1.0]),
            (Frame(bumped), vs.local_frames[1]))
        assert dual_system_iff_dual_frames(ws, vs_bad) == (False, False)

    def test_equivalence_on_random_pairs(self, rng):
        agreements = 0
        for k in range(20):
            ws = random_system(rng, 4, 2)
            if k % 2 == 0:
                vs = dual_system_from_left_inverse_of_frame(ws, _frame_pinv(ws))
            else:
                vs = random_system(rng, 4, 2, extra=1)
                if vs.local_sizes != ws.local_sizes:
                    continue
            got = dual_system_iff_dual_frames(ws, vs)
            assert got[0] == got[1]
            agreements += 1
        assert agreements >= 10


def _frame_pinv(ws):
    wf = ws.global_frame(True)
    synth = fr.synthesis(wf)
    return adjoint(np.linalg.pinv(synth))


def _local_canonical_duals(ws):
    duals = []
    for sub, frame in zip(ws.ff.subspaces, ws.local_frames):
        coords = adjoint(sub.basis) @ fr.synthesis(frame)
        gram = coords @ adjoint(coords)
        dual_coords = np.linalg.solve(gram, coords)
        duals.append(Frame((sub.basis @ dual_coords).T))
    return tuple(duals)


class TestFromLeftInverseOfFusion:
    def test_canonical_inputs_give_distributed_reconstruction(self, rng):
        ws = random_system(rng, 4, 2)
        ff = ws.ff
        family = left_inverses_parametrization(ff)
        local_duals = _local_canonical_duals(ws)
        vs = dual_system_from_left_inverse_of_fusion(
            ws, family.member(), ff.weights.copy(), local_duals)
        s_op = ff.fusion_operator()
        for i, frame in enumerate(vs.local_frames):
            expected = (np.linalg.solve(s_op, local_duals[i].vectors.T)
                        * ff.weights[i] / ff.weights[i]).T
            np.testing.assert_allclose(frame.vectors, expected, atol=1e-9)

    def test_rejects_non_dual_locals(self, rng):
        ws = random_system(rng, 4, 2)
        family = left_inverses_parametrization(ws.ff)
        with pytest.raises(NotLocalDual):
            dual_system_from_left_inverse_of_fusion(
                ws, family.member(), ws.ff.weights.copy(), ws.local_frames)
        # (the primal local frames are almost surely not their own duals)

    def test_rejects_nan_local_dual(self, rng):
        ws = random_system(rng, 4, 2)
        family = left_inverses_parametrization(ws.ff)
        local_duals = list(_local_canonical_duals(ws))
        vectors = local_duals[0].vectors.copy()
        vectors[0, 0] = np.nan
        local_duals[0] = Frame(vectors)
        with pytest.raises(NotLocalDual):
            dual_system_from_left_inverse_of_fusion(
                ws, family.member(), ws.ff.weights.copy(), local_duals)

    def test_frame_bounds_inside_predicted_interval(self, rng):
        # Upper bound: the Bessel bound of the local dual scaled by the
        # squared operator norm of the left inverse.  Lower bound: the
        # image-frame bound with the smallest nonzero singular value of the
        # block itself (the operator-norm shortcut for that constant is not
        # valid in general; see the decisions ledger).
        hits = 0
        for _ in range(50):
            ws = random_system(rng, 4, 2, complex_field=bool(rng.integers(2)))
            ff = ws.ff
            family = left_inverses_parametrization(ff)
            z = rng.normal(size=family.shape) * 0.3
            member = family.member(z)
            v = rng.uniform(0.5, 2.0, size=ff.size)
            local_duals = _local_canonical_duals(ws)
            vs = dual_system_from_left_inverse_of_fusion(ws, member, v, local_duals)
            member_norm = spectral_norm(member)
            slices = ff.block_slices()
            for i, frame in enumerate(vs.local_frames):
                lo, hi = fr.frame_bounds_within(frame, vs.ff.subspaces[i])
                alpha, beta = fr.frame_bounds_within(local_duals[i],
                                                     ff.subspaces[i])
                sv = np.linalg.svd(member[:, slices[i]], compute_uv=False)
                smallest_nonzero = sv[sv > 1e-10 * sv[0]][-1]
                lower = alpha * smallest_nonzero ** 2 / v[i] ** 2
                upper = beta * member_norm ** 2 / v[i] ** 2
                assert lo >= lower * (1 - 1e-8)
                assert hi <= upper * (1 + 1e-8)
                hits += 1
        assert hits > 0


class TestFromLeftInverseOfFrame:
    def test_centralized_reconstruction_on_tight_system(self):
        # uniform weights make the global-frame inverse construction agree
        # with the closed-form scaled local duals
        ws = two_plane_system(1.0, 1.0)
        a0 = _frame_pinv(ws)
        v = np.array([1.0, 3.0])
        vs = dual_system_from_left_inverse_of_frame(ws, a0, v)
        s_f = fr.frame_operator(ws.global_frame(False))
        for i, frame in enumerate(vs.local_frames):
            expected = (np.linalg.solve(s_f, ws.local_frames[i].vectors.T)
                        / v[i]).T
            np.testing.assert_allclose(frame.vectors, expected, atol=1e-10)

    def test_parseval_global_frame_self_dual(self, rng):
        # an orthonormal basis split into blocks is a Parseval global frame
        u = np.linalg.qr(random_matrix(rng, 4, 4))[0]
        ff = FusionFrame.from_spanning_sets([u[:, :2], u[:, 2:]], [1.0, 1.0])
        ws = FusionFrameSystem(ff, (Frame(u[:, :2].T), Frame(u[:, 2:].T)))
        a0 = _frame_pinv(ws)
        vs = dual_system_from_left_inverse_of_frame(ws, a0)
        for i, frame in enumerate(vs.local_frames):
            np.testing.assert_allclose(frame.vectors,
                                       ws.local_frames[i].vectors, atol=1e-10)

    def test_general_reconstruction_formula(self, rng):
        for _ in range(5):
            complex_field = bool(rng.integers(2))
            ws = random_system(rng, 5, 3, complex_field)
            family_scale = _frame_pinv(ws)
            wf = ws.global_frame(True)
            proj = (np.eye(ws.total_local)
                    - np.linalg.pinv(fr.synthesis(wf)) @ fr.synthesis(wf))
            z = random_matrix(rng, 5, ws.total_local, complex_field) * 0.5
            member = family_scale + z @ proj
            v = rng.uniform(0.5, 2.0, size=ws.ff.size)
            vs = dual_system_from_left_inverse_of_frame(ws, member, v)
            weights = ws.ff.weights
            for _ in range(10):
                vec = random_matrix(rng, 5, 1, complex_field).ravel()
                recon = np.zeros(5, dtype=complex)
                for i in range(ws.ff.size):
                    for l in range(ws.local_sizes[i]):
                        coeff = np.vdot(weights[i] * ws.local_frames[i].vectors[l],
                                        vec)
                        recon = recon + coeff * v[i] * vs.local_frames[i].vectors[l]
                assert np.linalg.norm(recon - vec) <= 1e-8 * np.linalg.norm(vec)

    def test_rejects_non_left_inverse(self, rng):
        ws = random_system(rng, 4, 2)
        bad = random_matrix(rng, 4, ws.total_local)
        with pytest.raises(NotLeftInverse):
            dual_system_from_left_inverse_of_frame(ws, bad)

    def test_rejects_nan_left_inverse(self, rng):
        ws = random_system(rng, 4, 2)
        a = _frame_pinv(ws)
        a[0, 0] = np.nan
        with pytest.raises(NotLeftInverse):
            dual_system_from_left_inverse_of_frame(ws, a)

    def test_rejects_bad_dual_weights_and_shape(self, rng):
        ws = random_system(rng, 4, 2)
        a = _frame_pinv(ws)
        for v in ([1.0], [1.0, 1.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [np.nan, 1.0],
                  [1.0, np.inf]):
            with pytest.raises(ValueError):
                dual_system_from_left_inverse_of_frame(ws, a, v)
        with pytest.raises(ShapeMismatch):
            dual_system_from_left_inverse_of_frame(ws, a[:, 1:])


class TestProjectiveBridge:
    def test_twoplane_blocks_recognized(self):
        t1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        rs = ProjectiveRS((t1, t2))
        assert np.allclose(rs.weights_implied, (1.0, 1.0))
        system = rs.to_system()
        assert system.ff.classify().is_overcomplete

    def test_non_projective_rejected(self):
        with pytest.raises(NotProjective):
            ProjectiveRS((np.array([[1.0, 0.0], [0.0, 0.5]]),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_block_rejected(self, bad):
        with pytest.raises(NotProjective, match="^block 0 has entries that are not finite$"):
            ProjectiveRS((np.array([[bad, 0.0], [0.0, 1.0]]),))
        eye = np.eye(2)
        with pytest.raises(NotProjective, match="^block 1 has entries that are not finite$"):
            ProjectiveRS((eye, np.array([[1.0, 0.0], [0.0, bad]])))

    def test_overflowing_gram_is_not_certified(self):
        # (1e200 I)* (1e200 I) overflows, so the deviation is NaN: it cannot
        # show that the block is a scaled isometry.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NotProjective, match=r"deviation nan"):
            ProjectiveRS((1e200 * np.eye(2),))

    def test_canonical_dual_of_orthonormal_blocks(self, rng):
        u = np.linalg.qr(random_matrix(rng, 4, 4))[0]
        rs = ProjectiveRS((u[:, :2], u[:, 2:]))
        duals = canonical_dual_ops(rs.ops)
        rs_dual = ProjectiveRS(tuple(duals))
        assert projective_rs_bridge(rs, rs_dual) == (True, True)

    def test_riesz_c4_blocks_have_nonprojective_dual(self):
        t1 = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex)
        s = 1 / math.sqrt(2)
        t2 = np.array([[0, 0], [0, s], [1, 0], [0, -s]], dtype=complex)
        rs = ProjectiveRS((t1, t2))
        duals = canonical_dual_ops(rs.ops)
        total = sum(td @ adjoint(t) for td, t in zip(duals, rs.ops))
        assert frobenius_norm(total - np.eye(4)) <= 1e-10
        with pytest.raises(NotProjective):
            ProjectiveRS(tuple(duals))

    def test_operator_and_canonical_dual_match_the_blockwise_formulas(self, rng):
        t1, t2 = random_matrix(rng, 4, 2), random_matrix(rng, 4, 3)
        s = t1 @ adjoint(t1) + t2 @ adjoint(t2)
        np.testing.assert_allclose(canonical_dual_ops((t1, t2))[1], np.linalg.solve(s, t2),
                                   atol=1e-12)
        u = np.linalg.qr(random_matrix(rng, 4, 4))[0]
        rs = ProjectiveRS((2.0 * u[:, :1], u[:, 1:]))
        np.testing.assert_allclose(rs.operator(), u @ np.diag([4.0, 1, 1, 1]) @ adjoint(u),
                                   atol=1e-12)

    def test_canonical_dual_of_non_spanning_blocks_is_refused(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotAFrame):
            canonical_dual_ops((t, t))

    def test_bridge_components_agree_on_nondual(self, rng):
        u = np.linalg.qr(random_matrix(rng, 4, 4))[0]
        w = np.linalg.qr(random_matrix(rng, 4, 4))[0]
        rs = ProjectiveRS((u[:, :2], u[:, 2:]))
        other = ProjectiveRS((w[:, :2], w[:, 2:]))
        got = projective_rs_bridge(rs, other)
        assert got[0] == got[1]
