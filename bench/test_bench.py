"""Tests of the benchmark's own pieces, on tiny problems.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _random_maps(rng, m, d, complex_field):
    return [gen.random_matrix(rng, d, d, complex_field) for _ in range(m)]


@pytest.mark.parametrize("complex_field", [False, True])
def test_mse_closed_form_matches_enumeration(complex_field):
    rng = np.random.default_rng(3)
    maps = _random_maps(rng, 5, 3, complex_field)
    g = checks.gram(maps)
    for r in range(1, 6):
        brute = math.sqrt(sum(np.linalg.norm(sum(maps[j] for j in s)) ** 2
                              for s in itertools.combinations(range(5), r)))
        assert checks.mse_level_aggregate(g, r) == pytest.approx(brute, rel=1e-12)


def test_reweighting_bound_two_copies_of_a_basis():
    # T = [I | I] with groups {0,1} and {2,3}: every left inverse is
    # [aI | (1-a)I] plus kernel terms, so the optimum is explicit.
    synth = np.hstack([np.eye(2), np.eye(2)])
    groups = [[0, 1], [2, 3]]
    # Worst case with c = (1, 2): 2a^2 = 8(1-a)^2 at a = 2/3.
    lower, upper, _ = checks.reweighting_bound(synth, groups, [1.0, 2.0])
    assert lower == pytest.approx(math.sqrt(8.0 / 9.0), rel=1e-10)
    assert upper == pytest.approx(lower, rel=1e-10)
    # Mean square: 2a^2 + 8(1-a)^2 is least at a = 4/5, value 1.6.
    mse, _, _ = checks.reweighting_bound(synth, groups, [1.0, 2.0],
                                         lam=np.ones(2), max_iters=0)
    assert mse == pytest.approx(math.sqrt(1.6), rel=1e-12)


@pytest.mark.parametrize("complex_field", [False, True])
def test_reweighting_bound_is_scale_free_and_closes_on_random_problems(complex_field):
    groups = [[0, 1], [2, 3], [4, 5, 6]]
    bounds = []
    p = gen.random_frame(np.random.default_rng(5), "t", 4, [2, 2, 3], complex_field)
    bases = [checks.orth_basis(s) for s in p.spans]
    for scale in (1e-6, 1.0, 1e6):
        weights = scale * p.weights
        synth = np.hstack([w * b for w, b in zip(weights, bases)])
        lower, upper, _ = checks.reweighting_bound(synth, groups, weights)
        assert upper - lower <= 1e-10 * lower
        # No left inverse beats the bound, the pseudoinverse one included.
        a0 = np.linalg.solve(synth @ synth.conj().T, synth)
        phi0 = max(c * np.linalg.norm(a0[:, g]) for c, g in zip(weights, groups))
        assert lower <= phi0 * (1 + 1e-12)
        bounds.append(lower)
    assert bounds == pytest.approx([bounds[1]] * 3, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="the worst-case solver depends on a common weight "
                   "scale; the worst_case workload keeps weights at scale 1 because of it")
def test_worst_case_solver_reaches_the_bound_at_a_large_weight_scale():
    import workloads
    from fusionframes import erasures
    from fusionframes.fusion import FusionFrame

    p = gen.random_frame(np.random.default_rng(5), "t", 4, [2, 2, 3], False)
    weights = 1e6 * p.weights
    bases = [checks.orth_basis(s) for s in p.spans]
    synth = np.hstack([w * b for w, b in zip(weights, bases)])
    lower, _, _ = checks.reweighting_bound(synth, [[0, 1], [2, 3], [4, 5, 6]], weights)
    report = erasures.worst_case_optimal_dual(FusionFrame.from_spanning_sets(p.spans, weights))
    phi = checks.max_group_error(workloads.report_maps(report))
    assert phi == pytest.approx(lower, rel=workloads.OBJECTIVE_RTOL)


def test_self_time_subtracts_the_union_of_children():
    #        0: [0, 10]
    #   1: [1, 3]   2: [2, 5]   3: [7, 8]   4: [9, 12] (clipped to 10)
    #   5: [2.5, 3] is a child of 2
    starts = [0.0, 1.0, 2.0, 7.0, 9.0, 2.5]
    ends = [10.0, 3.0, 5.0, 8.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 0, 2]
    got = tracer.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - (4 + 1 + 1), 2, 2.5, 1, 3, 0.5])


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(13))
    assert run.tail(values) == (2, 23)
    values = list(range(200))
    value, pct = run.tail(values)
    assert pct == 95 and sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_an_op_whose_check_raises_is_a_failed_op():
    import workloads

    def check(outcome):
        return {"label": "x", "value": outcome["missing"]}

    took, passed, record = run.timed(workloads.Op("x", lambda: {}, check))
    assert not passed and took >= 0.0
    assert record["failure"].startswith("check raised KeyError")


def _problem_bytes(problems):
    out = []
    for p in problems:
        out.append(p.label.encode())
        out.extend(np.ascontiguousarray(a).tobytes() for a in p.spans)
        out.append(np.asarray(p.weights).tobytes())
    return b"".join(out)


def test_one_seed_gives_byte_identical_inputs():
    import workloads

    example = gen.load_example(os.path.join(os.path.dirname(HERE), "src", "fusionframes",
                                            "fixtures", "example_6_4.json"), "example-6.4")
    for make in (gen.mse_problems, lambda s: gen.worst_problems(s, example)):
        assert _problem_bytes(make(7)) == _problem_bytes(make(7))
        assert _problem_bytes(make(7)) != _problem_bytes(make(8))
    first = [f.text for f in gen.cli_files(7, workloads.stored_bases)]
    assert first == [f.text for f in gen.cli_files(7, workloads.stored_bases)]
    assert first != [f.text for f in gen.cli_files(8, workloads.stored_bases)]


@pytest.mark.parametrize("cell", [("frame", 4, 3, True), ("system", 3, (2, 3, 3), False)])
def test_a_presented_problem_keeps_its_worst_case_optimum(cell):
    import workloads

    problem = gen._cell_problem(np.random.default_rng(2), cell)
    shown = gen.presented(np.random.default_rng(3), problem)
    assert _problem_bytes([shown]) != _problem_bytes([problem])
    lower, upper = zip(*(checks.reweighting_bound(*workloads.erasure_problem(p))[:2]
                         for p in (problem, shown)))
    assert lower[1] == pytest.approx(lower[0], rel=1e-9)
    assert upper[1] == pytest.approx(upper[0], rel=1e-9)


def test_tracer_patches_every_binding_and_restores_them():
    from fusionframes import fusion, linalg

    original = linalg.orthonormalize
    assert fusion.orthonormalize is original
    t = tracer.Tracer()
    t.install()
    try:
        assert fusion.orthonormalize is not original
        fusion.FusionFrame.from_spanning_sets([np.eye(3)[:, :2], np.eye(3)[:, 2:]], [1.0, 1.0])
    finally:
        t.uninstall()
    assert fusion.orthonormalize is original and linalg.orthonormalize is original
    names = [t.names[i] for i in t.name_ids]
    assert names.count("linalg.orthonormalize") == 2
    assert names[0] == "fusion.FusionFrame.from_spanning_sets"
    assert all(t.parents[k] == 0 for k, n in enumerate(names)
               if n == "linalg.orthonormalize")
