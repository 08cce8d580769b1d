"""The public surface of ``fusionframes``: the names in ``__all__`` and the
call signature of each one.  A change here is a change to the public API
and must be deliberate; a refactor that keeps the API leaves this file
alone."""

import enum
import inspect

import fusionframes

# Name -> str(inspect.signature(obj)).  Annotations are strings because
# every module uses postponed evaluation of annotations.
SIGNATURES = {
    "AffineFamily":
        "(pinv_member: 'np.ndarray', kernel: 'np.ndarray') -> None",
    "BlockOp":
        "(row_dims: 'Sequence[int]', col_dims: 'Sequence[int]', blocks)",
    "BlockVector":
        "(blocks: 'tuple') -> None",
    "ClassificationReport":
        "(is_fusion_frame: 'bool', is_tight: 'bool', is_parseval: 'bool', "
        "is_riesz: 'bool', is_orthonormal_basis: 'bool', is_overcomplete: 'bool', "
        "is_uniform_weight: 'bool', is_equi_dimensional: 'bool', "
        "bounds: 'tuple[float, float] | None', tol: 'float' = 1e-09) -> None",
    "ErasurePattern":
        "(kind: 'str', indices: 'tuple') -> None",
    "ErasureReport":
        "(r: 'int', p: 'float', per_pattern_errors: 'tuple', aggregate: 'float', "
        "optimal_dual: 'QDualPair', certificate: 'str', "
        "aggregate_by_r: 'dict' = <factory>, "
        "optimal_system: 'Optional[FusionFrameSystem]' = None, "
        "primal_system: 'Optional[FusionFrameSystem]' = None, "
        "solver: 'Optional[MinimaxResult]' = None) -> None",
    "Frame":
        "(vectors: 'np.ndarray', label: 'Optional[str]' = None) -> None",
    "FusionFrame":
        "(subspaces: 'tuple[Subspace, ...]', weights: 'np.ndarray') -> None",
    "FusionFrameSystem":
        "(ff: 'FusionFrame', local_frames: 'tuple[Frame, ...]') -> None",
    "MinimaxResult":
        "(a: 'np.ndarray', phi: 'float', phi_start: 'float', iterations: 'int', "
        "converged: 'bool', polished: 'bool', gap: 'float') -> None",
    "ProjectiveRS":
        "(ops: 'tuple', tol: 'float' = 1e-08) -> None",
    "QDualPair":
        "(primal: 'FusionFrame', dual: 'FusionFrame', q: 'BlockOp', "
        "residual: 'float') -> None",
    "SolverConfig":
        "(max_iters: 'int' = 50000, tol: 'float' = 1e-10) -> None",
    "Subspace":
        "(basis: 'np.ndarray') -> None",
    "alternate_dual_to_q_dual":
        "(w: 'FusionFrame', v: 'FusionFrame', tol: 'float' = 1e-09) -> 'QDualPair'",
    "canonical_dual":
        "(w: 'FusionFrame', v=None, tol: 'float' = 1e-09) -> 'QDualPair'",
    "canonical_dual_frame":
        "(f: 'Frame', tol: 'float' = 1e-10) -> 'Frame'",
    "canonical_dual_ops":
        "(ops) -> 'list'",
    "classify_q":
        "(q: 'BlockOp', tol: 'float' = 1e-09) -> 'QKind'",
    "dual_from_left_inverse":
        "(w: 'FusionFrame', a, v=None, tol: 'float' = 1e-09) -> 'QDualPair'",
    "dual_system_from_left_inverse_of_frame":
        "(ws: 'FusionFrameSystem', a, v=None, "
        "tol: 'float' = 1e-09) -> 'FusionFrameSystem'",
    "dual_system_from_left_inverse_of_fusion":
        "(ws: 'FusionFrameSystem', a, v=None, "
        "local_duals: 'Sequence[Frame]' = None, "
        "tol: 'float' = 1e-09) -> 'FusionFrameSystem'",
    "dual_system_iff_dual_frames":
        "(ws: 'FusionFrameSystem', vs: 'FusionFrameSystem', "
        "tol: 'float' = 1e-09) -> 'tuple[bool, bool]'",
    "error_vector":
        "(pair: 'QDualPair', r: 'int')",
    "frame_bounds":
        "(f: 'Frame', tol: 'float' = 1e-10) -> 'tuple[float, float]'",
    "frobenius_norm":
        "(mat) -> 'float'",
    "hierarchical_optimal":
        "(base: 'ErasureReport', max_r: 'int', "
        "samples: 'int' = 10) -> 'ErasureReport'",
    "intersect":
        "(u: 'Subspace', v: 'Subspace', tol: 'float' = 1e-08) -> 'Subspace'",
    "is_dual_frame":
        "(f: 'Frame', g: 'Frame', tol: 'float' = 1e-09) -> 'bool'",
    "is_dual_system":
        "(ws: 'FusionFrameSystem', vs: 'FusionFrameSystem', "
        "tol: 'float' = 1e-09) -> 'QDualPair'",
    "is_q_dual":
        "(w: 'FusionFrame', v: 'FusionFrame', q: 'BlockOp', "
        "tol: 'float' = 1e-09) -> 'QDualPair'",
    "left_inverses_parametrization":
        "(w: 'FusionFrame') -> 'AffineFamily'",
    "local_error_vector":
        "(ws: 'FusionFrameSystem', vs: 'FusionFrameSystem', r: 'int')",
    "local_mse_optimal_system":
        "(ws: 'FusionFrameSystem', v=None, tol: 'float' = 1e-09) -> 'ErasureReport'",
    "local_worst_case_optimal_system":
        "(ws: 'FusionFrameSystem', solver: 'SolverConfig | None' = None, "
        "tol: 'float' = 1e-09) -> 'ErasureReport'",
    "mse_optimal_dual":
        "(w: 'FusionFrame', v=None, tol: 'float' = 1e-09) -> 'ErasureReport'",
    "noncanonical_dual":
        "(w: 'FusionFrame', tol: 'float' = 1e-09) -> 'QDualPair'",
    "orth_complement_within":
        "(u: 'Subspace', z: 'Subspace', tol: 'float' = 1e-09) -> 'Subspace'",
    "orthonormalize":
        "(spanning, tol: 'float' = 1e-10) -> 'Subspace'",
    "pinv":
        "(mat, tol: 'float' = 1e-10)",
    "projective_rs_bridge":
        "(rs: 'ProjectiveRS', rs_dual: 'ProjectiveRS', "
        "tol: 'float' = 1e-09) -> 'tuple[bool, bool]'",
    "q_dual_residual":
        "(w: 'FusionFrame', v: 'FusionFrame', q: 'BlockOp') -> 'float'",
    "riesz_dual_containment_check":
        "(w: 'FusionFrame', pair: 'QDualPair', tol: 'float' = 1e-09) -> 'bool'",
    "span_union":
        "(u: 'Subspace', v: 'Subspace', tol: 'float' = 1e-10) -> 'Subspace'",
    "spectral_norm":
        "(mat) -> 'float'",
    "worst_case_optimal_dual":
        "(w: 'FusionFrame', v=None, solver: 'SolverConfig | None' = None, "
        "tol: 'float' = 1e-09) -> 'ErasureReport'",
}

#: Enums are pinned by their members: the signature of an Enum class is that
#: of the enum machinery, not of the package.
ENUM_MEMBERS = {
    "QKind": {"GENERAL": "general", "BLOCK_DIAGONAL": "block_diagonal",
              "COMPONENT_PRESERVING": "component_preserving"},
}


def test_all_lists_exactly_the_pinned_names():
    assert sorted(fusionframes.__all__) == sorted([*SIGNATURES, *ENUM_MEMBERS])
    assert len(set(fusionframes.__all__)) == len(fusionframes.__all__)


def test_every_public_callable_keeps_its_signature():
    for name, expected in SIGNATURES.items():
        assert str(inspect.signature(getattr(fusionframes, name))) == expected, name


def test_every_public_enum_keeps_its_members():
    for name, expected in ENUM_MEMBERS.items():
        kind = getattr(fusionframes, name)
        assert issubclass(kind, enum.Enum)
        assert {m.name: m.value for m in kind} == expected
