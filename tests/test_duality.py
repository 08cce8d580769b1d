"""Dual fusion frames: certification, classification, constructions,
and the structural invariants of the coupling-operator formalism."""

import numpy as np
import pytest

from fusionframes.blockop import BlockOp
from fusionframes.duality import (
    QKind,
    _left_inverse_family,
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
    NotAFusionFrame,
    NotAlternateDual,
    NotBlockDiagonal,
    NotLeftInverse,
    NotOvercomplete,
    NotRiesz,
    ShapeMismatch,
    TrivialSubspace,
)
from fusionframes.frames import synthesis
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
    random_system,
    random_unitary,
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

    def test_nan_q_fails(self, rng):
        ff = random_fusion_frame(rng, 4, 2)
        pair = canonical_dual(ff)
        q = pair.q.as_matrix().copy()
        q[0, 0] = np.nan
        with pytest.raises(NotADual):
            is_q_dual(ff, pair.dual, BlockOp.from_matrix(q, pair.dual.dims, ff.dims))

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

    def test_certifies_at_the_callers_tol(self):
        # Example 6.4's pseudoinverse is a left inverse to about 8.9e-16 and
        # its dual reconstructs to about 1.07e-15: at 1e-15 the left
        # inverse passes, so only the certificate itself can refuse.
        ff = load_spec(str(fixture_path("example_6_4.json"))).fusion_frame()
        assert canonical_dual(ff).residual > 1e-15
        with pytest.raises(NotADual, match="exceeds tol 1.0e-15"):
            canonical_dual(ff, tol=1e-15)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_reconstruction_matrix_is_the_identity(self, rng, complex_field):
        ff = random_overcomplete_fusion_frame(rng, 4, 3, complex_field)
        pair = canonical_dual(ff)
        for p in (pair, pair.swapped()):
            recon = p.reconstruction_matrix()
            assert recon.shape == (4, 4)
            assert frobenius_norm(recon - np.eye(4)) <= 1e-9


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


def _family_case(rng, case, complex_field, scale):
    """A synthesis matrix T of the given kind, its weights scaled by
    ``scale``, with the left-inverse family built from it: frames through
    the public parametrization, local-vector systems as the erasure layer
    builds theirs."""
    if case == "system":
        ws = random_system(rng, 4, 3, complex_field)
        synth = scale * synthesis(ws.global_frame(weighted=True))
        return synth, _left_inverse_family(synth)
    make = random_riesz_basis if case == "riesz" else random_overcomplete_fusion_frame
    ff = make(rng, 5, 3, complex_field)
    ff = FusionFrame(ff.subspaces, scale * ff.weights)
    return ff.synthesis_matrix(), left_inverses_parametrization(ff)


class TestLeftInverses:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("case", ["riesz", "overcomplete", "system"])
    def test_kernel_is_an_orthonormal_basis_of_ker_t(self, rng, case, complex_field, scale):
        # N*N = I, N has n - d columns and T N = 0 to rounding, at every
        # weight scale; the member is unique exactly when n = d, where N has
        # no columns at all.
        synth, family = _family_case(rng, case, complex_field, scale)
        d, n = synth.shape
        kernel = family.kernel
        eps = np.finfo(float).eps
        assert kernel.shape == (n, n - d)
        assert frobenius_norm(kernel.conj().T @ kernel - np.eye(n - d)) <= 16 * n * eps
        assert frobenius_norm(synth @ kernel) <= 16 * n * eps * np.linalg.norm(synth, 2)
        assert family.is_unique == (n == d)
        assert family.is_unique == (case == "riesz")

    def test_riesz_basis_unique_left_inverse(self, rng):
        ff = random_riesz_basis(rng, 5, 3)
        family = left_inverses_parametrization(ff)
        assert family.is_unique
        z = rng.normal(size=family.shape)
        np.testing.assert_array_equal(family.member(z), family.pinv_member)

    def test_overcomplete_family_is_not_unique(self, rng):
        family = left_inverses_parametrization(random_overcomplete_fusion_frame(rng, 5, 3))
        assert not family.is_unique

    def test_every_member_is_left_inverse(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        family = left_inverses_parametrization(ff)
        analysis = ff.analysis_matrix()
        for _ in range(5):
            z = rng.normal(size=family.shape)
            member = family.member(z)
            assert frobenius_norm(member @ analysis - np.eye(5)) <= 1e-10

    @pytest.mark.parametrize("lines", [
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],      # a plane of R^3
        [[1.0, 0.0], [1.0, 1e-12]],              # R^2, but to below RANK_TOL
    ])
    def test_non_spanning_frame_has_no_left_inverse(self, lines):
        ff = FusionFrame.from_spanning_sets([np.array(v)[:, None] for v in lines],
                                            [1.0, 1.0])
        with pytest.raises(NotAFusionFrame):
            left_inverses_parametrization(ff)
        with pytest.raises(NotAFusionFrame):
            canonical_dual(ff)


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

    def test_rejects_nan_left_inverse(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        a = left_inverses_parametrization(ff).member()
        a[0, 0] = np.nan
        with pytest.raises(NotLeftInverse):
            dual_from_left_inverse(ff, a)

    def test_rejects_bad_dual_weights_and_shape(self, rng):
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        a = left_inverses_parametrization(ff).member()
        for v in ([1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -2.0, 1.0],
                  [1.0, np.nan, 1.0], [1.0, 1.0, np.inf]):
            with pytest.raises(ValueError):
                dual_from_left_inverse(ff, a, v)
        with pytest.raises(ShapeMismatch):
            dual_from_left_inverse(ff, a[:, 1:])


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

    def test_spanning_is_checked_before_trivial_subspaces(self):
        line = Subspace(np.array([[1.0], [0.0]]))
        with pytest.raises(NotAFusionFrame):
            noncanonical_dual(FusionFrame((line, line, Subspace.zero(2)), [1.0, 1.0, 1.0]))

    def test_needs_no_full_classification(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("classify() called")
        monkeypatch.setattr(FusionFrame, "classify", refuse)
        assert noncanonical_dual(two_plane_frame(1.0, 2.0)).residual <= 1e-9
        with pytest.raises(NotOvercomplete):
            noncanonical_dual(FusionFrame.from_spanning_sets(
                [np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])], [1.0, 1.0]))

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

    def test_needs_no_full_classification(self, rng, monkeypatch):
        ff = random_riesz_basis(rng, 4, 2)
        pair = canonical_dual(ff)
        overcomplete = random_overcomplete_fusion_frame(rng, 4, 3)
        other = canonical_dual(overcomplete)

        def refuse(self, *args, **kwargs):
            raise AssertionError("classify() called")
        monkeypatch.setattr(FusionFrame, "classify", refuse)
        assert riesz_dual_containment_check(ff, pair, tol=1e-8)
        with pytest.raises(NotRiesz):
            riesz_dual_containment_check(overcomplete, other)

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
        # The canonical dual subspaces with doubled weights reconstruct 2 I,
        # so the residual is ||I||_F = sqrt(5).
        ff = random_overcomplete_fusion_frame(rng, 5, 3)
        doubled = FusionFrame(canonical_dual(ff).dual.subspaces, 2.0 * ff.weights)
        with pytest.raises(NotAlternateDual) as info:
            alternate_dual_to_q_dual(ff, doubled)
        assert type(info.value) is NotAlternateDual
        assert str(info.value) == "weighted projection reconstruction fails (residual 2.236e+00)"
        assert abs(info.value.residual - np.sqrt(5.0)) <= 1e-9


def _moved(ff, u, scale):
    """``ff`` with every subspace mapped by the unitary ``u`` and every
    weight multiplied by ``scale``."""
    return FusionFrame(tuple(Subspace(u @ s.basis) for s in ff.subspaces),
                       scale * ff.weights)


class TestMetamorphicInvariance:
    """A common weight scale, a unitary change of ambient coordinates and
    the real-to-complex embedding must not change a dual construction
    beyond mapping its dual subspaces by the same unitary; a block
    permutation only permutes them.  The subspace
    tests inside (principal angles, orth_complement_within) read only
    orthonormal bases, so no threshold depends on the scale."""

    @staticmethod
    def _unitary(rng, d, change):
        if change == "embedding":
            return np.eye(d, dtype=complex)
        return random_unitary(rng, d, complex_field=change == "unitary")

    @staticmethod
    def _assert_moved_by(base, moved, u, perm=None):
        """``moved``'s dual subspaces are ``base``'s, in the order ``perm``,
        mapped by ``u``."""
        before_all = (base.dual.subspaces if perm is None
                      else [base.dual.subspaces[k] for k in perm])
        assert moved.dual.dims == tuple(s.dim for s in before_all)
        for before, after in zip(before_all, moved.dual.subspaces):
            expected = u @ before.projector() @ u.conj().T
            assert frobenius_norm(after.projector() - expected) <= 1e-8
        assert moved.residual <= 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "embedding", "permutation"])
    def test_canonical_dual(self, rng, scale, change):
        # A block permutation permutes the dual subspaces; Q keeps its class.
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, int(rng.integers(2, 7)),
                                                  int(rng.integers(2, 5)))
            v = rng.uniform(0.5, 2.0, size=ff.size)
            if change == "permutation":
                perm, u = rng.permutation(ff.size), np.eye(ff.ambient_dim)
            else:
                perm, u = np.arange(ff.size), self._unitary(rng, ff.ambient_dim, change)
            reordered = FusionFrame(tuple(ff.subspaces[k] for k in perm), ff.weights[perm])
            base = canonical_dual(ff, v)
            moved = canonical_dual(_moved(reordered, u, scale), scale * v[perm])
            self._assert_moved_by(base, moved, u, perm)
            assert classify_q(moved.q) is classify_q(base.q) is QKind.COMPONENT_PRESERVING

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "embedding"])
    def test_noncanonical_dual(self, rng, scale, change):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, int(rng.integers(3, 7)),
                                                  int(rng.integers(2, 5)))
            u = self._unitary(rng, ff.ambient_dim, change)
            self._assert_moved_by(noncanonical_dual(ff),
                                  noncanonical_dual(_moved(ff, u, scale)), u)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("change", ["orthogonal", "unitary", "embedding"])
    def test_alternate_dual_to_q_dual(self, rng, scale, change):
        for _ in range(5):
            ff = random_overcomplete_fusion_frame(rng, 5, 3)
            # enlarged canonical dual subspaces: an alternate dual whose
            # certified subspaces are smaller than the candidate's
            enlarged = FusionFrame(
                tuple(span_union(sub, orthonormalize(rng.normal(size=(5, 1))))
                      for sub in canonical_dual(ff).dual.subspaces), ff.weights)
            u = self._unitary(rng, 5, change)
            self._assert_moved_by(
                alternate_dual_to_q_dual(ff, enlarged),
                alternate_dual_to_q_dual(_moved(ff, u, scale), _moved(enlarged, u, scale)), u)


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
