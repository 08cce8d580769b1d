"""The three workloads: ops built from the generated inputs, and the
check each op's output must pass.

An op's ``call`` is the timed part: one or more calls into the library's
public API, reached through module attributes so that the tracer's
patches apply.  Its ``check`` runs afterwards, untimed, on the returned
objects' public attributes and the benchmark's own mathematics
(``checks``); it raises ``CheckFailed`` or returns the op's answer
record, which holds no timings so that two commits' records can be
diffed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen
from fusionframes import cli, erasures
from fusionframes.frames import Frame
from fusionframes.fusion import FusionFrame
from fusionframes.specio import parse_spec
from fusionframes.systems import FusionFrameSystem

#: Certification tolerance: the CLI default and the library's DEFAULT_TOL.
TOL = 1e-9
#: Level aggregates against the Gram closed form, relative.
LEVEL_RTOL = 1e-9
#: Worst-case objective against the reference bound, relative.
OBJECTIVE_RTOL = 1e-6
#: The reference counts as closed when its own gap is below this.
REFERENCE_GAP = 1e-8
HIERARCHY_LEVELS = (2, 3)
HIERARCHY_SAMPLES = 10


class CheckFailed(Exception):
    """An op's output is wrong; ``record`` says what was seen."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = dict(record, failure=message)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]


def _require(cond, message, record):
    if not cond:
        raise CheckFailed(message, record)


# -- the problems as library objects and as plain matrices --------------------------

def to_library(problem):
    ff = FusionFrame.from_spanning_sets(problem.spans, problem.weights)
    if isinstance(problem, gen.SystemProblem):
        return FusionFrameSystem(ff, tuple(Frame(rows) for rows in problem.local))
    return ff


def erasure_problem(problem):
    """(synthesis T, column groups, coefficients) of the group-erasure
    problem: blocks of subspace coordinates for a frame, single local
    vectors for a system."""
    if isinstance(problem, gen.SystemProblem):
        synth = np.vstack([w * rows for w, rows in zip(problem.weights, problem.local)]).T
        coeffs = np.concatenate([w * np.linalg.norm(rows, axis=1)
                                 for w, rows in zip(problem.weights, problem.local)])
        return synth, [[k] for k in range(synth.shape[1])], coeffs
    bases = [checks.orth_basis(s) for s in problem.spans]
    synth = np.hstack([w * b for w, b in zip(problem.weights, bases)])
    offsets = np.cumsum([0] + [b.shape[1] for b in bases])
    groups = [list(range(offsets[i], offsets[i + 1])) for i in range(len(bases))]
    return synth, groups, np.asarray(problem.weights, dtype=float)


def _dense(q):
    """The coupling operator as one matrix, from its public block grid."""
    dtype = np.result_type(*(b.dtype for row in q.blocks for b in row), 1.0)
    out = np.zeros((sum(q.row_dims), sum(q.col_dims)), dtype=dtype)
    roff = np.cumsum([0] + list(q.row_dims))
    coff = np.cumsum([0] + list(q.col_dims))
    for j, row in enumerate(q.blocks):
        for i, blk in enumerate(row):
            out[roff[j]:roff[j + 1], coff[i]:coff[i + 1]] = blk
    return out


def _synthesis(ff):
    return np.hstack([w * s.basis for w, s in zip(ff.weights, ff.subspaces)])


def report_maps(report):
    """Each erasure group's reconstruction map under the report's dual."""
    if report.optimal_system is not None:
        ws, vs = report.primal_system, report.optimal_system
        return [w * v * np.outer(g, f.conj())
                for w, fw, v, fv in zip(ws.ff.weights, ws.local_frames,
                                        vs.ff.weights, vs.local_frames)
                for f, g in zip(fw.vectors, fv.vectors)]
    pair = report.optimal_dual
    left = _synthesis(pair.dual) @ _dense(pair.q)
    right = _synthesis(pair.primal).conj().T
    offsets = np.cumsum([0] + list(pair.primal.dims))
    groups = [np.arange(offsets[i], offsets[i + 1]) for i in range(pair.primal.size)]
    return checks.group_maps(left, right, groups)


def _pattern_count(report, total):
    return sum(math.comb(total, r) for r in report.aggregate_by_r)


# -- mse_tables ---------------------------------------------------------------------

def mse_op(problem) -> Op:
    obj = to_library(problem)
    local = isinstance(problem, gen.SystemProblem)
    synth, groups, coeffs = erasure_problem(problem)
    optimum, _, _ = checks.reweighting_bound(synth, groups, coeffs,
                                             lam=np.ones(len(groups)), max_iters=0)
    d = synth.shape[0]

    def call():
        base = (erasures.local_mse_optimal_system(obj) if local
                else erasures.mse_optimal_dual(obj))
        return base, [erasures.hierarchical_optimal(base, r, samples=HIERARCHY_SAMPLES)
                      for r in HIERARCHY_LEVELS]

    def check(result):
        base, hierarchy = result
        maps = report_maps(base)
        g = checks.gram(maps)
        record = {"label": problem.label, "exit": 0, "objective": base.aggregate,
                  "levels": {str(r): v for r, v in sorted(base.aggregate_by_r.items())},
                  "hierarchy": [{str(r): v for r, v in sorted(h.aggregate_by_r.items())}
                                for h in hierarchy],
                  "patterns": sum(_pattern_count(rep, len(groups))
                                  for rep in [base] + hierarchy),
                  "iterations": None}
        residual = checks.reconstruction_residual(maps, d)
        _require(residual <= TOL, f"duality residual {residual:.3e} > {TOL}", record)
        for rep in [base] + hierarchy:
            for r, value in rep.aggregate_by_r.items():
                expect = checks.mse_level_aggregate(g, r)
                _require(abs(value - expect) <= LEVEL_RTOL * expect,
                         f"level {r} aggregate {value!r} != closed form {expect!r}", record)
        _require(abs(base.aggregate - optimum) <= LEVEL_RTOL * optimum,
                 f"level-1 aggregate {base.aggregate!r} != optimum {optimum!r}", record)
        return record

    return Op(problem.label, call, check)


# -- worst_case -----------------------------------------------------------------------

def published_6_4(problem):
    """Objective of the published optimal system of Example 6.4, whose
    entries involve sqrt(74)."""
    root = math.sqrt(74.0)
    a, b = (22.0 - root) / 20.0, (2.0 - root) / 20.0
    published = np.array([[a, b, 1.5], [b, a, -1.5], [b, b, 0.5], [b, b, -0.5]])
    _, _, coeffs = erasure_problem(problem)
    return float(np.max(coeffs * np.linalg.norm(published, axis=1)))


def worst_op(problem, published=None) -> Op:
    obj = to_library(problem)
    local = isinstance(problem, gen.SystemProblem)
    synth, groups, coeffs = erasure_problem(problem)
    lower, upper, ref_iters = checks.reweighting_bound(synth, groups, coeffs)
    closed = upper - lower <= REFERENCE_GAP * lower
    d = synth.shape[0]

    def call():
        if local:
            return erasures.local_worst_case_optimal_system(obj)
        return erasures.worst_case_optimal_dual(obj)

    def check(report):
        maps = report_maps(report)
        phi = checks.max_group_error(maps)
        reference = lower if closed else upper
        excess = (phi - reference) / reference
        record = {"label": problem.label, "exit": 0,
                  "objective": phi, "reported": report.solver.phi,
                  "iterations": report.solver.iterations,
                  "levels": {str(r): v for r, v in sorted(report.aggregate_by_r.items())},
                  "patterns": _pattern_count(report, len(groups)),
                  "reference": reference, "reference_limited": not closed,
                  "reference_iterations": ref_iters, "excess": excess}
        residual = checks.reconstruction_residual(maps, d)
        _require(residual <= TOL, f"duality residual {residual:.3e} > {TOL}", record)
        _require(phi >= lower * (1.0 - 1e-9),
                 f"objective {phi!r} below the lower bound {lower!r}", record)
        if closed:
            _require(abs(excess) <= OBJECTIVE_RTOL,
                     f"objective {phi!r} vs reference {lower!r} (excess {excess:.2e})", record)
        else:
            _require(excess <= OBJECTIVE_RTOL,
                     f"objective {phi!r} above the best feasible reference {upper!r}",
                     record)
        if published is not None:
            _require(abs(phi - published) <= OBJECTIVE_RTOL * published,
                     f"objective {phi!r} vs published {published!r}", record)
        return record

    return Op(problem.label, call, check)


# -- cli_files -----------------------------------------------------------------------

def stored_bases(text, dual):
    """Bases the program stores for a file's primal or dual subspaces."""
    spec = parse_spec(json.loads(text))
    ff = spec.dual_fusion_frame() if dual else spec.fusion_frame()
    return [s.basis for s in ff.subspaces]


def _read_matrix_rows(rows):
    arr = np.array(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1] if arr.ndim == 3 else arr


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json_report(path, record):
    _require(os.path.exists(path), "no --json report written", record)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    os.remove(path)
    record["json_sha256"] = _sha(text)
    body = json.loads(text)
    _require(body["ok"] is True, "report is not ok", record)
    residual = body["payload"]["residual"]["value"]
    record["residual"] = residual
    _require(residual <= TOL, f"residual {residual:.3e} > {TOL}", record)
    return body


def _primal_ops(path, label, spec):
    spans = [_read_matrix_rows(s["spanning_vectors"]).T for s in spec["subspaces"]]
    weights = np.array(spec["weights"], dtype=float)
    bases = [checks.orth_basis(s) for s in spans]
    fusion_op = sum(w * w * b @ b.conj().T for w, b in zip(weights, bases))
    bounds = np.linalg.eigvalsh(fusion_op)[[0, -1]]
    images = [np.linalg.solve(fusion_op, b) for b in bases]

    def check_analyze(result):
        code, out, _ = result
        record = {"label": f"analyze {label}", "exit": code, "stdout_sha256": _sha(out)}
        _require(code == 0, f"exit {code}, expected 0", record)
        _require("[PASS] family is a fusion frame" in out, "not a fusion frame", record)
        line = next((x for x in out.splitlines() if x.startswith("bounds: ")), "")
        fields = dict(part.strip().split("=") for part in line[len("bounds: "):].split(","))
        seen = np.array([float(fields["lower"]), float(fields["upper"])])
        _require(np.all(np.abs(seen - bounds) <= 1e-5 * bounds),
                 f"bounds {seen} vs {bounds}", record)
        return record

    json_out = path[:-5] + ".canonical.out.json"

    def check_canonical(result):
        code, out, _ = result
        record = {"label": f"canonical-dual {label}", "exit": code}
        _require(code == 0, f"exit {code}, expected 0", record)
        body = _read_json_report(json_out, record)
        payload = body["payload"]
        _require(payload["q_classification"] == "component_preserving",
                 f"classified {payload['q_classification']}", record)
        for i, (rows, image) in enumerate(zip(payload["dual_bases"], images)):
            basis = _read_matrix_rows(rows)
            off = image - basis @ (basis.conj().T @ image)
            _require(np.linalg.norm(off) <= 1e-8 * np.linalg.norm(image),
                     f"dual subspace {i} is not S^-1 of the primal one", record)
        return record

    return [
        Op(f"analyze {label}", lambda: run_cli(["analyze", path]), check_analyze),
        Op(f"canonical-dual {label}",
           lambda: run_cli(["canonical-dual", path, "--json", json_out]), check_canonical),
    ]


def _verify_op(path, label, mode, perturbed):
    json_out = path[:-5] + ".verify.out.json"
    expected = 3 if perturbed else 0

    def check(result):
        code, out, err = result
        record = {"label": f"verify-dual {label}", "exit": code}
        _require(code == expected, f"exit {code}, expected {expected}", record)
        if perturbed:
            _require("certification failed" in err, "no certification error", record)
            _require(not os.path.exists(json_out), "report written for a non-dual", record)
            return record
        body = _read_json_report(json_out, record)
        _require(body["payload"]["mode"] == mode, f"mode {body['payload']['mode']}", record)
        return record

    return Op(f"verify-dual {label}",
              lambda: run_cli(["verify-dual", path, "--json", json_out]), check)


def cli_ops(seed, out_dir):
    ops = []
    for item in gen.cli_files(seed, stored_bases):
        path = os.path.join(out_dir, f"{item.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(item.text)
        if item.mode is None:
            ops.extend(_primal_ops(path, item.name, json.loads(item.text)))
        else:
            ops.append(_verify_op(path, item.name, item.mode, item.perturbed))
    return ops


def build_ops(workload, seed, root, out_dir):
    if workload == "mse_tables":
        return [mse_op(p) for p in gen.mse_problems(seed)]
    if workload == "worst_case":
        example = gen.load_example(
            os.path.join(root, "src", "fusionframes", "fixtures", "example_6_4.json"),
            "example-6.4")
        problems = gen.worst_problems(seed, example)
        return [worst_op(p, published_6_4(p) if p is example else None) for p in problems]
    if workload == "cli_files":
        return cli_ops(seed, out_dir)
    raise ValueError(f"unknown workload {workload}")
