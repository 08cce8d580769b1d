"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; the
tolerances are fixed here and match the library's certificates.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from fusionframes.duality import (
    canonical_dual,
    classify_q,
    dual_from_left_inverse,
    left_inverses_parametrization,
    noncanonical_dual,
    QKind,
)
from fusionframes.erasures import error_vector, mse_optimal_dual
from fusionframes.frames import Frame
from fusionframes.fusion import FusionFrame
from fusionframes.linalg import frobenius_norm
from fusionframes.minimax import SolverConfig, minimize_max_group_norms
from fusionframes.reproduce import reproduce
from fusionframes.specio import load_spec
from fusionframes.systems import (
    FusionFrameSystem,
    dual_system_from_left_inverse_of_frame,
    dual_system_iff_dual_frames,
)
from fusionframes import frames as fr

from conftest import (
    random_matrix,
    random_overcomplete_fusion_frame,
    random_parseval_uniform_equidim,
    random_system,
)
from test_erasures import brute_force_error
from fusionframes.reproduce import fixture_path


def _conclude(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def _report_ok(report):
    failures = [c.name for c in report.checks if not c.passed]
    return not failures, "; ".join(failures)


def test_criterion_01_inverse_operator_closed_form():
    start = time.monotonic()
    report = reproduce("6.3a")
    elapsed = time.monotonic() - start
    ok, detail = _report_ok(report)
    _conclude(1, "inverse fusion operator closed form (three weight pairs)",
              ok and elapsed < 1.0, detail or f"{elapsed:.2f}s")


def test_criterion_02_mse_and_worst_case_closed_forms():
    start = time.monotonic()
    report = reproduce("6.3b")
    elapsed = time.monotonic() - start
    ok, detail = _report_ok(report)
    _conclude(2, "mean-square dual equals primal; worst-case minimizer "
                 "matches published map to 1e-4",
              ok and elapsed < 30.0, detail or f"{elapsed:.1f}s")


def test_criterion_03_local_mse_vectors_and_coupling_separation():
    report = reproduce("6.3c")
    ok, detail = _report_ok(report)
    _conclude(3, "local optimal dual vectors to 1e-12 and coupling "
                 "separation beyond 1e-3", ok, detail)


def test_criterion_04_riesz_basis_dual_system():
    report = reproduce("6.2a")
    ok, detail = _report_ok(report)
    _conclude(4, "Riesz classification, certified dual system, "
                 "block-diagonal non-preserving coupling, containment",
              ok, detail)


def test_criterion_05_worst_case_local_optimizer_subspaces():
    report = reproduce("6.4")
    ok, detail = _report_ok(report)
    _conclude(5, "worst-case local optimizer keeps block 1 canonical and "
                 "moves block 2", ok, detail)


def test_criterion_06_property_suite_500_random_frames():
    start = time.monotonic()
    rng = np.random.default_rng(600)
    count = 0
    while count < 500:
        d = int(rng.integers(2, 13))
        m = int(rng.integers(2, 7))
        complex_field = count % 2 == 0
        ff = random_overcomplete_fusion_frame(rng, d, m, complex_field)
        pair = canonical_dual(ff)
        assert pair.residual <= 1e-9

        swapped = pair.swapped()
        resid = frobenius_norm(
            swapped.dual.synthesis_matrix() @ swapped.q.as_matrix()
            @ swapped.primal.analysis_matrix() - np.eye(d))
        assert resid <= 1e-8

        report = mse_optimal_dual(ff)
        optimal_map = (report.optimal_dual.dual.synthesis_matrix()
                       @ report.optimal_dual.q.as_matrix())
        optimal_mse = report.aggregate ** 2
        family = left_inverses_parametrization(ff)
        slices = ff.block_slices()
        for _ in range(10):
            z = rng.normal(size=family.shape)
            if complex_field:
                z = z + 1j * rng.normal(size=family.shape)
            competitor = dual_from_left_inverse(ff, family.member(z))
            comp_map = (competitor.dual.synthesis_matrix()
                        @ competitor.q.as_matrix())
            comp_mse = math.fsum(e ** 2 for _, e in error_vector(competitor, 1))
            spread = math.fsum(
                ff.weights[i] ** 2
                * frobenius_norm(comp_map[:, sl] - optimal_map[:, sl]) ** 2
                for i, sl in enumerate(slices))
            scale = max(comp_mse, 1.0)
            assert abs(comp_mse - optimal_mse - spread) <= 1e-8 * scale
            assert comp_mse >= optimal_mse - 1e-9
        count += 1
    elapsed = time.monotonic() - start
    _conclude(6, "500 random frames: canonical residual, adjoint symmetry, "
                 "mean-square decomposition, optimum never beaten",
              elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_07_uniform_parseval_minimizer():
    start = time.monotonic()
    rng = np.random.default_rng(700)
    for trial in range(100):
        n = int(rng.choice([1, 2, 3]))
        blocks = int(rng.integers(2, 5))
        d = n * blocks
        copies = int(rng.integers(1, 3))
        complex_field = trial % 2 == 0
        ff = random_parseval_uniform_equidim(rng, d, n, copies, complex_field)
        family = left_inverses_parametrization(ff)
        groups = [np.arange(sl.start, sl.stop) for sl in ff.block_slices()]
        result = minimize_max_group_norms(
            family.pinv_member, family.kernel, groups,
            list(ff.weights), SolverConfig(max_iters=2000))
        synthesis = ff.synthesis_matrix()
        assert np.max(np.abs(result.a - synthesis)) <= 1e-4
        w = ff.weights[0]
        assert abs(result.phi - w ** 2 * math.sqrt(n)) <= 1e-6
    elapsed = time.monotonic() - start
    _conclude(7, "100 uniform equi-dimensional Parseval frames: minimizer "
                 "is the synthesis matrix, objective w^2 sqrt(n)",
              elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_08_system_duality_equivalence():
    rng = np.random.default_rng(800)
    agreements = 0
    for trial in range(200):
        d = int(rng.integers(3, 6))
        m = int(rng.integers(2, 4))
        complex_field = trial % 2 == 0
        ws = random_system(rng, d, m, complex_field)
        wf = ws.global_frame(True)
        synth = fr.synthesis(wf)
        pinv = np.linalg.pinv(synth)
        member = pinv.conj().T
        proj = np.eye(ws.total_local) - pinv @ synth
        z = random_matrix(rng, d, ws.total_local, complex_field) * 0.5
        vs = dual_system_from_left_inverse_of_frame(ws, member + z @ proj)
        if trial % 2 == 1:
            bumped = vs.local_frames[0].vectors.copy()
            bumped[0, 0] += 0.1
            spans = [bumped.T] + [f.vectors.T for f in vs.local_frames[1:]]
            vs = FusionFrameSystem(
                FusionFrame.from_spanning_sets(spans, vs.ff.weights),
                (Frame(bumped),) + vs.local_frames[1:])
        got = dual_system_iff_dual_frames(ws, vs)
        assert got[0] == got[1]
        agreements += 1
    _conclude(8, "200 random system pairs: frame duality and system duality "
                 "booleans agree", agreements == 200)


def test_criterion_09_noncanonical_duals_exist():
    rng = np.random.default_rng(900)
    for trial in range(100):
        d = int(rng.integers(2, 8))
        m = int(rng.integers(2, 6))
        complex_field = trial % 2 == 0
        ff = random_overcomplete_fusion_frame(rng, d, m, complex_field)
        pair = noncanonical_dual(ff)
        assert pair.residual <= 1e-9
        drops = [dual.dim < primal.dim for dual, primal
                 in zip(pair.dual.subspaces, ff.subspaces)]
        assert any(drops)
    _conclude(9, "100 random overcomplete frames admit certified "
                 "non-canonical duals with a strict dimension drop", True)


def test_criterion_10_brute_force_error_oracle():
    rng = np.random.default_rng(1000)
    fixtures = ["example_6_2.json", "example_6_3.json", "example_6_4.json",
                "orthonormal_basis.json"]
    checked = 0
    for name in fixtures:
        spec = load_spec(str(fixture_path(name)))
        ff = spec.fusion_frame()
        if ff.size > 4:
            continue
        family = left_inverses_parametrization(ff)
        z = rng.normal(size=family.shape)
        if np.iscomplexobj(family.pinv_member):
            z = z + 1j * rng.normal(size=family.shape)
        pairs = [canonical_dual(ff), dual_from_left_inverse(ff, family.member(z))]
        for pair in pairs:
            for r in (1, 2):
                if r > ff.size:
                    continue
                for pattern, err in error_vector(pair, r):
                    oracle = brute_force_error(pair, pattern.indices)
                    assert abs(err - oracle) <= 1e-12
                    checked += 1
    _conclude(10, "fixture error tables match the independent dense oracle",
              checked > 0, f"{checked} pattern errors compared")
