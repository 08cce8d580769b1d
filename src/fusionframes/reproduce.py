"""Reproduction of the library's bundled worked examples.

``reproduce(id)`` loads the example's fixture, recomputes the published
quantities from the spans and weights it reads there, and returns a
:class:`~fusionframes.specio.Report` whose checks must all pass; the
report's digest is the sha256 of that fixture.  One table,
``specio.EXAMPLES``, names each example's fixture and the function here
that fills its report; ``tol`` is the only setting, the certification
tolerance of every dual the example builds.  These routines back the
``ff reproduce`` command and the acceptance suite.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .duality import (
    DEFAULT_TOL,
    QKind,
    canonical_dual,
    classify_q,
    dual_from_left_inverse,
    left_inverses_parametrization,
    riesz_dual_containment_check,
)
from .errors import NotProjective, ParseError
from .erasures import (
    local_mse_optimal_system,
    local_worst_case_optimal_system,
    mse_optimal_dual,
    worst_case_optimal_dual,
)
from .fusion import FusionFrame
from .linalg import adjoint, frobenius_norm, orthonormalize
from .specio import EXAMPLE_ALIASES, EXAMPLES, Check, Report, load_spec
from .systems import ProjectiveRS, canonical_dual_ops, is_dual_system


def fixture_path(name: str):
    return resources.files("fusionframes").joinpath("fixtures", name)


# -- two blocks in C^4: a Riesz fusion basis with an overcomplete dual ---------

def _riesz_basis_dual(spec, report: Report, tol: float) -> None:
    ws = spec.system()
    vs = spec.dual_system()

    report.add(Check.boolean("primal is a Riesz fusion basis",
                             ws.ff.classify().is_riesz))
    pair = is_dual_system(ws, vs, tol)
    report.add(Check.leq("dual system residual", pair.residual, 1e-10))
    kind = classify_q(pair.q, tol)
    report.add(Check.boolean("coupling operator is block-diagonal",
                             kind != QKind.GENERAL))
    report.add(Check.boolean("coupling operator is not component-preserving",
                             kind == QKind.BLOCK_DIAGONAL))
    for i, sub in enumerate(vs.ff.subspaces):
        report.add(Check.boolean(f"dim of dual subspace {i + 1} is 3", sub.dim == 3))
    report.add(Check.boolean("dual contains the canonical dual blockwise",
                             riesz_dual_containment_check(ws.ff, pair, tol)))
    for i in range(ws.ff.size):
        report.add(Check.boolean(
            f"containment is strict at block {i + 1}",
            vs.ff.subspaces[i].dim > ws.ff.subspaces[i].dim))

    # Spot check of the coupling action on a concrete direct-sum element.
    f1 = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)     # x1=1, x2=2
    f2 = np.array([0.0, 3.0, 4.0, -3.0], dtype=complex)    # y2=3, y3=4
    coords = np.concatenate([ws.ff.subspaces[0].coords(f1),
                             ws.ff.subspaces[1].coords(f2)])
    image = pair.q.as_matrix() @ coords
    c1 = vs.ff.subspaces[0].basis @ image[:3]
    c2 = vs.ff.subspaces[1].basis @ image[3:]
    expected1 = np.array([1.0, 2.0, 0.0, 2.0], dtype=complex)
    expected2 = np.array([0.0, 0.0, 4.0, -6.0], dtype=complex)
    report.add(Check.leq("coupling action block 1 matches closed form",
                         float(np.max(np.abs(c1 - expected1))), 1e-10))
    report.add(Check.leq("coupling action block 2 matches closed form",
                         float(np.max(np.abs(c2 - expected2))), 1e-10))

    report.payload["dual_dims"] = [s.dim for s in vs.ff.subspaces]
    report.payload["residual"] = pair.residual


def _non_projective_canonical_dual(spec, report: Report, tol: float) -> None:
    rs = ProjectiveRS(tuple(sub.basis for sub in spec.fusion_frame().subspaces))
    synth = rs.synthesis_matrix()
    report.add(Check.boolean("family is a Riesz reconstruction system",
                             abs(np.linalg.det(synth)) > 1e-8))
    duals = canonical_dual_ops(rs.ops)
    total = sum(td @ adjoint(t) for td, t in zip(duals, rs.ops))
    report.add(Check.leq("canonical dual reconstructs the identity",
                         frobenius_norm(total - np.eye(rs.ambient_dim)), 1e-10))
    w2 = float(np.linalg.norm(duals[1], 2))
    deviation = frobenius_norm(adjoint(duals[1]) @ duals[1] - w2 * w2 * np.eye(2))
    report.add(Check.geq("canonical dual block 2 is not a scaled isometry",
                         deviation, 1e-2))
    try:
        ProjectiveRS(tuple(duals))
        refused = False
    except NotProjective:
        refused = True
    report.add(Check.boolean("converting the non-projective dual is refused",
                             refused))
    report.payload["dual_projectivity_deviation"] = deviation


# -- two planes in F^3: the running overcomplete example -----------------------

def _ambient_block_maps(ff: FusionFrame, a: np.ndarray) -> list[np.ndarray]:
    """Per-block ambient action of a coordinate-space left inverse."""
    out = []
    for sl, sub in zip(ff.block_slices(), ff.subspaces):
        out.append(a[:, sl] @ adjoint(sub.basis))
    return out


def _left_inverse_closed_forms(spec, report: Report, tol: float) -> None:
    # The closed forms hold for every weight pair on the fixture's planes:
    # they are checked at equal weights, at the fixture's and at a pair
    # with w1 > w2.
    subspaces = spec.fusion_frame().subspaces
    for w1, w2 in ((1.0, 1.0), tuple(spec.weights), (3.0, 0.5)):
        ff = FusionFrame(subspaces, np.array([w1, w2]))
        s_inv = np.linalg.inv(ff.fusion_operator())
        expected = np.diag([1.0 / w2 ** 2, 1.0 / w1 ** 2, 1.0 / (w1 ** 2 + w2 ** 2)])
        report.add(Check.leq(
            f"inverse operator matches closed form (w={w1},{w2})",
            float(np.max(np.abs(s_inv - expected))), 1e-12))
        pair = canonical_dual(ff, tol=tol)
        for i, sub in enumerate(pair.dual.subspaces):
            report.add(Check.leq(
                f"canonical dual subspace {i + 1} equals the primal (w={w1},{w2})",
                sub.distance_to(ff.subspaces[i]), 1e-10))

        family = left_inverses_parametrization(ff)
        kernel_dim = family.kernel.shape[1]
        report.add(Check.boolean(
            f"left-inverse freedom has one parameter direction (w={w1},{w2})",
            kernel_dim == 1))
        rng = np.random.default_rng(42)
        z = rng.normal(size=family.shape)
        a = family.member(z)
        blocks = _ambient_block_maps(ff, a)
        base_blocks = _ambient_block_maps(ff, family.pinv_member)
        # Free parameters touch only the shared third coordinate direction:
        # columns through the first two coordinates match the pseudoinverse
        # member, and the two residual columns satisfy r1*w1 + r2*w2 = 0.
        fixed = max(
            float(np.max(np.abs(blocks[0][:, 1] - base_blocks[0][:, 1]))),
            float(np.max(np.abs(blocks[1][:, 0] - base_blocks[1][:, 0]))))
        report.add(Check.leq(
            f"columns without freedom match the pseudoinverse (w={w1},{w2})",
            fixed, 1e-10))
        r1 = blocks[0][:, 2] - base_blocks[0][:, 2]
        r2 = blocks[1][:, 2] - base_blocks[1][:, 2]
        report.add(Check.leq(
            f"free columns satisfy the weight relation (w={w1},{w2})",
            float(np.max(np.abs(r1 * w1 + r2 * w2))), 1e-10))

        pair_a = dual_from_left_inverse(ff, a, tol=tol)
        denom = w1 ** 2 + w2 ** 2
        expected_v1 = orthonormalize(np.array(
            [[0.0, r1[0]], [1.0, r1[1]], [0.0, w1 / denom + r1[2]]]))
        report.add(Check.leq(
            f"first dual subspace matches the closed form (w={w1},{w2})",
            pair_a.dual.subspaces[0].distance_to(expected_v1), 1e-9))


def _optimal_duals(spec, report: Report, tol: float) -> None:
    ff = spec.fusion_frame()
    w1, w2 = ff.weights

    mse = mse_optimal_dual(ff, tol=tol)
    for i, sub in enumerate(mse.optimal_dual.dual.subspaces):
        report.add(Check.leq(
            f"mean-square optimal dual subspace {i + 1} equals the primal",
            sub.distance_to(ff.subspaces[i]), 1e-10))
    blocks = _ambient_block_maps(
        ff, mse.optimal_dual.dual.synthesis_matrix() @ mse.optimal_dual.q.as_matrix())
    # Dual weights cancel inside the weighted synthesis, so the ambient
    # per-block reconstruction maps are weight-free.
    expected1 = np.diag([0.0, 1.0 / w1, 1.0 / (2.0 * w1)])
    expected2 = np.diag([1.0 / w2, 0.0, 1.0 / (2.0 * w2)])
    report.add(Check.leq("optimal coupling halves the shared coordinate (block 1)",
                         float(np.max(np.abs(blocks[0] - expected1))), 1e-12))
    report.add(Check.leq("optimal coupling halves the shared coordinate (block 2)",
                         float(np.max(np.abs(blocks[1] - expected2))), 1e-12))

    wc = worst_case_optimal_dual(ff, tol=tol)
    a_blocks = _ambient_block_maps(ff, wc.solver.a)
    paper1 = np.array([[0.0, 0.0, 0.0],
                       [0.0, 1.0 / w1, 0.0],
                       [0.0, 0.0, 1.0 / (2.0 * w1)]])
    paper2 = np.array([[1.0 / w2, 0.0, 0.0],
                       [0.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0 / (2.0 * w2)]])
    err = max(float(np.max(np.abs(a_blocks[0] - paper1))),
              float(np.max(np.abs(a_blocks[1] - paper2))))
    report.add(Check.leq("worst-case minimizer matches the closed form", err, 1e-4))
    if abs(w1 - w2) > 1e-12:
        report.add(Check.geq("worst-case optimum strictly beats the canonical dual",
                             wc.solver.gap_from_start, 1e-6))
    report.payload["worst_case_value"] = wc.aggregate
    report.payload["iterations"] = wc.solver.iterations


def _local_mse_system(spec, report: Report, tol: float) -> None:
    ws = spec.system()
    ff = ws.ff

    # The dual weights are the primal weights, so the optimal local duals
    # scale with 1 / w_i^2.
    result = local_mse_optimal_system(ws, tol=tol)
    s3 = math.sqrt(3.0)
    expected = [
        np.array([[0.0, 0.0, 1.0 / 3.0],
                  [0.0, s3 / 3.0, -1.0 / 6.0],
                  [0.0, -s3 / 3.0, -1.0 / 6.0]]),
        np.array([[0.0, 0.0, 1.0 / 3.0],
                  [s3 / 3.0, 0.0, -1.0 / 6.0],
                  [-s3 / 3.0, 0.0, -1.0 / 6.0]]),
    ]
    for i, (frame_expected, w) in enumerate(zip(expected, ff.weights)):
        got = result.optimal_system.local_frames[i].vectors
        report.add(Check.leq(
            f"optimal local dual vectors match closed form (block {i + 1})",
            float(np.max(np.abs(got - frame_expected / (w * w)))), 1e-12))

    recon_opt = (result.optimal_dual.dual.synthesis_matrix()
                 @ result.optimal_dual.q.as_matrix())
    canon = canonical_dual(ff, tol=tol)
    recon_can = canon.dual.synthesis_matrix() @ canon.q.as_matrix()
    separation = frobenius_norm(recon_opt - recon_can)
    if np.ptp(ff.weights) > 1e-12:
        report.add(Check.geq(
            "optimal reconstruction differs from the canonical dual",
            separation, 1e-3))
    report.payload["reconstruction_separation"] = separation
    report.payload["mse_r1"] = result.aggregate


def _projective_system(spec, report: Report, tol: float) -> None:
    ff = spec.fusion_frame()
    system = ProjectiveRS(tuple(sub.basis for sub in ff.subspaces)).to_system()
    for i in range(ff.size):
        report.add(Check.leq(
            f"carried subspace {i + 1} matches the running example",
            system.ff.subspaces[i].distance_to(ff.subspaces[i]), 1e-12))


# -- a full-space block plus a line: worst-case local optimizer ----------------

def _local_worst_case_system(spec, report: Report, tol: float) -> None:
    ws = spec.system()
    result = local_worst_case_optimal_system(ws, tol=tol)

    s_op = ws.ff.fusion_operator()
    canonical_v1 = orthonormalize(np.linalg.solve(s_op, ws.ff.subspaces[0].basis))
    canonical_v2 = orthonormalize(np.linalg.solve(s_op, ws.ff.subspaces[1].basis))
    v1, v2 = result.optimal_system.ff.subspaces

    report.add(Check.leq("first optimal subspace is the canonical image",
                         v1.distance_to(canonical_v1), 1e-3))
    report.add(Check.geq("second optimal subspace leaves the canonical image",
                         v2.distance_to(canonical_v2), 0.1))

    root = math.sqrt(74.0)
    g2 = np.array([(2.0 - root) / 20.0, (2.0 - root) / 20.0, -0.5])
    published_v2 = orthonormalize(g2.reshape(-1, 1))
    report.add(Check.leq("second optimal subspace matches the published span",
                         v2.distance_to(published_v2), 1e-3))

    a_col = (22.0 - root) / 20.0
    b_col = (2.0 - root) / 20.0
    published = np.array([[a_col, b_col, 1.5],
                          [b_col, a_col, -1.5],
                          [b_col, b_col, 0.5],
                          [b_col, b_col, -0.5]]).T
    norms = [np.linalg.norm(v) for f in ws.local_frames for v in f.vectors]
    coeffs = np.repeat(ws.ff.weights, [f.size for f in ws.local_frames]) * norms
    published_phi = float(np.max(coeffs * np.linalg.norm(published, axis=0)))
    report.add(Check.leq("worst-case objective matches the published system",
                         abs(result.aggregate - published_phi), 1e-6))
    report.payload["worst_case_value"] = result.aggregate
    report.payload["published_value"] = published_phi
    report.payload["iterations"] = result.solver.iterations


#: Example id -> (the fixture it reads, the function that fills its report).
_EXAMPLES = {example_id: (fixture, globals()[fill])
             for example_id, (fixture, fill) in EXAMPLES.items()}

EXAMPLE_IDS = tuple(_EXAMPLES)


def reproduce(example_id: str, tol: float = DEFAULT_TOL) -> Report:
    """The report of one example, by id or alias; ParseError for any other id.

    ``tol`` certifies every dual the example builds: NotADual when one
    does not reach it.  Examples 6.2b and 6.3d certify no dual.
    """
    example_id = EXAMPLE_ALIASES.get(example_id, example_id)
    if example_id not in _EXAMPLES:
        raise ParseError(f"unknown example id {example_id!r}; "
                         f"choose from {', '.join(EXAMPLE_IDS)}")
    fixture, fill = _EXAMPLES[example_id]
    spec = load_spec(str(fixture_path(fixture)))
    report = Report(f"reproduce {example_id}", spec.digest)
    fill(spec, report, tol)
    return report
