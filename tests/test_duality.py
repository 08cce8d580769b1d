"""Dual fusion frames: certification, classification, constructions,
and the structural invariants of the coupling-operator formalism."""

import numpy as np
import pytest

from fusionframes.blockop import BlockOp
from fusionframes.duality import (
    QKind,
    alternate_dual_to_q_dual,
    canonical_dual,
    classify_q,
    dual_from_left_inverse,
    is_q_dual,
    left_inverses_parametrization,
    noncanonical_dual,
    q_dual_residual,
    riesz_dual_containment_check,
)
from fusionframes.errors import (
    NotADual,
    NotAlternateDual,
    NotBlockDiagonal,
    NotLeftInverse,
    NotOvercomplete,
    NotRiesz,
    ShapeMismatch,
    TrivialSubspace,
)
from fusionframes.fusion import FusionFrame
from fusionframes.reproduce import fixture_path
from fusionframes.specio import load_spec
from fusionframes.linalg import (
    Subspace,
    frobenius_norm,
    orthonormalize,
    span_union,
)

from conftest import (
    random_fusion_frame,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_riesz_basis,
)
from test_fusion import riesz_c4, two_plane_frame


class TestCertification:
    def test_canonical_certifies_tightly(self, rng):
        ff = random_fusion_frame(rng, 5, 3)
        pair = canonical_dual(ff)
        assert pair.residual <= 1e-10

    def test_zero_q_fails(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        zero = BlockOp.zeros(ff.dims, ff.dims)
        with pytest.raises(NotADual):
            is_q_dual(ff, ff, zero, tol=1e-9)

    def test_shape_mismatch(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        other = random_fusion_frame(rng, 4, 3)
        q = BlockOp.zeros(other.dims, other.dims)
        with pytest.raises(ShapeMismatch):
            is_q_dual(ff, other, q)

    def test_residual_without_raising(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        zero = BlockOp.zeros(ff.dims, ff.dims)
        resid = q_dual_residual(ff, ff, zero)
        assert abs(resid - 2.0) < 1e-12  # ||I_4||_F


class TestClassifyQ:
    def test_identity_is_component_preserving(self):
        q = BlockOp.identity((2, 3))
        assert classify_q(q) is QKind.COMPONENT_PRESERVING

    def test_offdiagonal_block_is_general(self):
        q = BlockOp.zeros((2, 2), (2, 2))
        grid = [list(row) for row in q.blocks]
        grid[0][1] = np.eye(2)
        grid[0][0] = np.eye(2)
        grid[1][1] = np.eye(2)
        q = BlockOp((2, 2), (2, 2), tuple(map(tuple, grid)))
        assert classify_q(q) is QKind.GENERAL

    def test_rank_deficient_diagonal_is_only_block_diagonal(self):
        q = BlockOp.block_diagonal([np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
        assert classify_q(q) is QKind.BLOCK_DIAGONAL

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_class_does_not_depend_on_weight_scale(self, scale):
        spec = load_spec(str(fixture_path("example_6_3.json")))
        ff = spec.fusion_frame()
        scaled = FusionFrame(ff.subspaces, scale * ff.weights)
        assert canonical_dual(scaled).classify() is QKind.COMPONENT_PRESERVING
        q = BlockOp.block_diagonal([scale * np.eye(2),
                                    scale * np.array([[1.0, 0.0], [0.0, 0.0]])])
        assert classify_q(q) is QKind.BLOCK_DIAGONAL
        coupled = BlockOp.from_matrix(scale * np.ones((4, 4)), (2, 2), (2, 2))
        assert classify_q(coupled) is QKind.GENERAL

    def test_published_system_coupling_is_bd_not_cp(self):
        # spot-checked end to end in the reproduction suite; here only the
        # shape logic: a 3x2 diagonal block can never have full row rank 3
        q = BlockOp.block_diagonal([np.ones((3, 2)), np.ones((3, 2))])
        assert classify_q(q) is QKind.BLOCK_DIAGONAL


class TestCanonicalDual:
    def test_parseval_dual_is_itself(self, rng):
        ff = random_parseval_uniform_equidim(rng, 6, 2, copies=2)
        pair = canonical_dual(ff)
        for sub, dual_sub in zip(ff.subspaces, pair.dual.subspaces):
            assert dual_sub.distance_to(sub) < 1e-9
        # each diagonal block acts on its subspace as (w_i / v_i) = 1 times
        # the identity (checked basis-independently through the projector)
        for i, sub in enumerate(ff.subspaces):
            ambient = (pair.dual.subspaces[i].basis @ pair.q.block(i, i)
                       @ sub.basis.conj().T)
            np.testing.assert_allclose(ambient, sub.projector(), atol=1e-9)

    def test_two_plane_dual_subspaces_are_operator_images(self):
        ff = two_plane_frame(1.0, 2.0)
        pair = canonical_dual(ff)
        s_inv = np.linalg.inv(ff.fusion_operator())
        for sub, dual_sub in zip(ff.subspaces, pair.dual.subspaces):
            expected = orthonormalize(s_inv @ sub.basis)
            assert dual_sub.distance_to(expected) < 1e-12

    def test_random_overcomplete_residual(self, rng):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, 6, 4,
                                                  complex_field=bool(rng.integers(2)))
            pair = canonical_dual(ff)
            assert pair.residual <= 1e-9
            assert pair.classify() is QKind.COMPONENT_PRESERVING

    def test_custom_dual_weights(self, rng):
        ff = random_fusion_frame(rng, 4, 3)
        v = rng.uniform(0.5, 2.0, size=3)
        pair = canonical_dual(ff, v)
        assert pair.residual <= 1e-9
        np.testing.assert_allclose(pair.dual.weights, v)


class TestLeftInverses:
    def test_riesz_basis_unique_left_inverse(self, rng):
        ff = random_riesz_basis(rng, 5, 3)
        family = left_inverses_parametrization(ff)
        assert family.is_unique
        assert frobenius_norm(family.kernel_projector) <= 1e-10

    def test_every_member_is_left_inverse(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        family = left_inverses_parametrization(ff)
        analysis = ff.analysis_matrix()
        for _ in range(5):
            z = rng.normal(size=family.shape)
            member = family.member(z)
            assert frobenius_norm(member @ analysis - np.eye(5)) <= 1e-10

    def test_kernel_projector_is_projector(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3, complex_field=True)
        proj = left_inverses_parametrization(ff).kernel_projector
        assert frobenius_norm(proj @ proj - proj) <= 1e-10
        assert frobenius_norm(proj.conj().T - proj) <= 1e-10


class TestDualFromLeftInverse:
    def test_pinv_member_reproduces_canonical(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        family = left_inverses_parametrization(ff)
        pair = dual_from_left_inverse(ff, family.pinv_member)
        canon = canonical_dual(ff)
        for got, expected in zip(pair.dual.subspaces, canon.dual.subspaces):
            assert got.distance_to(expected) < 1e-9
        assert frobenius_norm(pair.q.as_matrix() - canon.q.as_matrix()) < 1e-9

    def test_random_left_inverse_certifies(self, rng):
        for complex_field in (False, True):
            ff = random_overcomplete_fusion_frame(rng, 5, 3, complex_field)
            family = left_inverses_parametrization(ff)
            z = rng.normal(size=family.shape)
            if complex_field:
                z = z + 1j * rng.normal(size=family.shape)
            pair = dual_from_left_inverse(ff, family.member(z), tol=1e-9)
            assert pair.residual <= 1e-9
            assert pair.classify() is QKind.COMPONENT_PRESERVING

    def test_rejects_non_left_inverse(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        bad = rng.normal(size=(4, ff.total_dim))
        with pytest.raises(NotLeftInverse):
            dual_from_left_inverse(ff, bad)


class TestNoncanonicalDual:
    def test_two_plane_example_dimension_drop(self):
        ff = two_plane_frame(1.0, 2.0)
        pair = noncanonical_dual(ff)
        assert pair.residual <= 1e-9
        dims = [s.dim for s in pair.dual.subspaces]
        assert min(dims) == 1 and max(dims) == 2  # one block shrank from 2 to 1

    def test_riesz_input_rejected(self, rng):
        with pytest.raises(NotOvercomplete):
            noncanonical_dual(random_riesz_basis(rng, 5, 3))

    def test_coincident_lines_with_transversal(self):
        # three copies of one line plus a transversal line in F^2: the pivot
        # block shrinks to the zero subspace and the dual still certifies
        line = np.array([[1.0], [0.0]])
        other = np.array([[1.0], [1.0]])
        ff = FusionFrame.from_spanning_sets([line, line, line, other],
                                            [1.0, 0.7, 1.3, 2.0])
        pair = noncanonical_dual(ff)
        assert pair.residual <= 1e-9
        assert pair.dual.subspaces[0].dim == 0

    def test_zero_subspace_rejected(self):
        ff = FusionFrame(
            (Subspace(np.eye(2)), Subspace.zero(2)), [1.0, 1.0])
        with pytest.raises(TrivialSubspace):
            noncanonical_dual(ff)

    def test_random_overcomplete_family(self, rng):
        for _ in range(10):
            ff = random_overcomplete_fusion_frame(
                rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)),
                complex_field=bool(rng.integers(2)))
            pair = noncanonical_dual(ff)
            assert pair.residual <= 1e-9
            dims_dual = [s.dim for s in pair.dual.subspaces]
            dims_primal = [s.dim for s in ff.subspaces]
            assert any(a < b for a, b in zip(dims_dual, dims_primal))


class TestRieszContainment:
    def test_canonical_dual_gives_equality(self, rng):
        ff = random_riesz_basis(rng, 5, 3)
        pair = canonical_dual(ff)
        assert riesz_dual_containment_check(ff, pair, tol=1e-8)
        s_inv = np.linalg.inv(ff.fusion_operator())
        for sub, dual_sub in zip(ff.subspaces, pair.dual.subspaces):
            assert dual_sub.distance_to(orthonormalize(s_inv @ sub.basis)) < 1e-9

    def test_requires_riesz(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 4, 3)
        pair = canonical_dual(ff)
        with pytest.raises(NotRiesz):
            riesz_dual_containment_check(ff, pair)

    def test_requires_block_diagonal(self, rng):
        ff = random_riesz_basis(rng, 4, 2)
        pair = canonical_dual(ff)
        grid = [list(row) for row in pair.q.blocks]
        grid[0][1] = np.ones((pair.q.row_dims[0], pair.q.col_dims[1]))
        scrambled = BlockOp(pair.q.row_dims, pair.q.col_dims, tuple(map(tuple, grid)))
        bad = type(pair)(pair.primal, pair.dual, scrambled, pair.residual)
        with pytest.raises(NotBlockDiagonal):
            riesz_dual_containment_check(ff, bad)

    def test_any_certified_block_diagonal_dual_contains_canonical(self, rng):
        # enlarge each canonical dual subspace and couple through the
        # enlarged coordinates: containment must still hold
        for _ in range(5):
            ff = random_riesz_basis(rng, 6, 3)
            pair = canonical_dual(ff)
            subs, blocks = [], []
            for i, sub in enumerate(pair.dual.subspaces):
                extra = rng.normal(size=(6, 1))
                enlarged = span_union(sub, orthonormalize(extra))
                lift = enlarged.basis.conj().T @ sub.basis   # isometry coords
                subs.append(enlarged)
                blocks.append(lift @ pair.q.block(i, i))
            big = FusionFrame(tuple(subs), pair.dual.weights.copy())
            enlarged_pair = is_q_dual(ff, big, BlockOp.block_diagonal(blocks), 1e-9)
            assert riesz_dual_containment_check(ff, enlarged_pair, tol=1e-8)


class TestAlternateDualConversion:
    def test_canonical_subspaces_reduce_to_canonical(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        canon = canonical_dual(ff)
        pair = alternate_dual_to_q_dual(ff, canon.dual)
        for got, expected in zip(pair.dual.subspaces, canon.dual.subspaces):
            assert got.distance_to(expected) < 1e-9

    def test_enlarged_canonical_subspaces_still_convert(self, rng):
        # any enlargement of the canonical dual subspaces satisfies the
        # weighted-projection identity, and the conversion shrinks it back
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        canon = canonical_dual(ff)
        subs = []
        for sub in canon.dual.subspaces:
            extra = orthonormalize(rng.normal(size=(5, 1)))
            subs.append(span_union(sub, extra))
        enlarged = FusionFrame(tuple(subs), ff.weights.copy())
        pair = alternate_dual_to_q_dual(ff, enlarged)
        assert pair.residual <= 1e-9
        for got, expected in zip(pair.dual.subspaces, canon.dual.subspaces):
            assert got.distance_to(expected) < 1e-8

    def test_parseval_containing_subspaces(self, rng):
        ff = random_parseval_uniform_equidim(rng, 6, 2, copies=2)
        subs = []
        for sub in ff.subspaces:
            extra = orthonormalize(rng.normal(size=(6, 1)))
            subs.append(span_union(sub, extra))
        candidate = FusionFrame(tuple(subs), ff.weights.copy())
        pair = alternate_dual_to_q_dual(ff, candidate)
        for got, original in zip(pair.dual.subspaces, ff.subspaces):
            assert got.distance_to(original) < 1e-8

    def test_rejects_non_alternate(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        wrong = random_fusion_frame(rng, 5, 3)
        try:
            alternate_dual_to_q_dual(ff, wrong)
        except NotAlternateDual:
            return
        pytest.skip("random candidate accidentally satisfied the identity")


class TestStructuralInvariants:
    def test_duality_symmetry_under_adjoint(self, rng):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, 5, 3,
                                                  complex_field=bool(rng.integers(2)))
            family = left_inverses_parametrization(ff)
            z = rng.normal(size=family.shape)
            pair = dual_from_left_inverse(ff, family.member(z))
            swapped = is_q_dual(pair.dual, pair.primal, pair.q.adjoint(), 1e-8)
            assert swapped.residual <= 1e-8

    def test_reconstruction_on_random_vectors(self, rng):
        for _ in range(3):
            complex_field = bool(rng.integers(2))
            ff = random_overcomplete_fusion_frame(rng, 6, 4, complex_field)
            family = left_inverses_parametrization(ff)
            z = rng.normal(size=family.shape)
            pair = dual_from_left_inverse(ff, family.member(z))
            q_mat = pair.q.as_matrix()
            for _ in range(100):
                vec = rng.normal(size=6)
                if complex_field:
                    vec = vec + 1j * rng.normal(size=6)
                coeffs = pair.primal.analyze(vec).concat()
                recon = pair.dual.synthesize(
                    type(pair.primal.analyze(vec)).from_concat(
                        q_mat @ coeffs, pair.dual.dims))
                assert np.linalg.norm(recon - vec) <= 1e-8 * np.linalg.norm(vec)

    def test_block_diagonal_commutation_with_masks(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        pair = canonical_dual(ff)
        q = pair.q
        for j in range(ff.size):
            mask_src = BlockOp.mask(q.col_dims, [j])
            mask_dst = BlockOp.mask(q.row_dims, [j])
            diff = (q @ mask_src).as_matrix() - (mask_dst @ q).as_matrix()
            assert frobenius_norm(diff) <= 1e-10

    def test_riesz_component_preserving_dual_is_unique(self, rng):
        # two certified component-preserving duals with the same weights
        # coincide: subspaces and coupling operators match
        for _ in range(5):
            ff = random_riesz_basis(rng, 5, 3)
            family = left_inverses_parametrization(ff)
            v = rng.uniform(0.5, 2.0, size=3)
            first = dual_from_left_inverse(ff, family.member(), v)
            second = canonical_dual(ff, v)
            for a, b in zip(first.dual.subspaces, second.dual.subspaces):
                assert a.distance_to(b) <= 1e-9
            assert frobenius_norm(first.q.as_matrix() - second.q.as_matrix()) <= 1e-9

    def test_block_diagonal_pairs_with_equal_map_differ_by_weight_ratios(self, rng):
        # if two block-diagonal couplings compose to the same reconstruction
        # map over the same subspaces, they differ by the diagonal operator
        # of weight ratios
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        pair = canonical_dual(ff)
        v = pair.dual.weights
        v_tilde = rng.uniform(0.5, 2.0, size=3)
        scaled_blocks = [pair.q.block(i, i) * (v[i] / v_tilde[i])
                         for i in range(3)]
        q_tilde = BlockOp.block_diagonal(scaled_blocks)
        other = is_q_dual(ff, FusionFrame(pair.dual.subspaces, v_tilde), q_tilde,
                          1e-9)
        # same reconstruction map
        lhs = pair.dual.synthesis_matrix() @ pair.q.as_matrix()
        rhs = other.dual.synthesis_matrix() @ other.q.as_matrix()
        assert frobenius_norm(lhs - rhs) <= 1e-10
        # ratio operator recovers one coupling from the other
        ratio = BlockOp.weight_diagonal(pair.q.row_dims,
                                        [vt / vv for vt, vv in zip(v_tilde, v)])
        recovered = (ratio @ q_tilde).as_matrix()
        assert frobenius_norm(recovered - pair.q.as_matrix()) <= 1e-10
