"""Command-line front end.

Commands:
    ff analyze <file>                    classification and bounds
    ff canonical-dual <file> [--weights ...]
    ff verify-dual <file> [--tol T]      certify the dual section
    ff optimal <file> --p {2,inf} --r N [solver flags]
    ff local-optimal <file> --p {2,inf} --r N [solver flags]
    ff reproduce <id>                    rerun a bundled worked example

Exit codes: 0 pass, 2 parse error or invalid input, 3 certification
failure, 4 solver non-convergence.  A file that is not UTF-8 JSON exits
2.  FF_TOL overrides the default tolerance 1e-9; a ``--tol``,
``--solver-tol`` or FF_TOL that is not a finite number >= 0 exits 2, and
so does a ``--max-iters``, ``--patience`` or ``--samples`` below 1, a
``--step-scale`` that is not a finite number > 0, and at ``--p inf`` an
``--r`` with a level of more than MAX_PATTERNS erasure patterns.
Reports go to stdout; ``--json PATH`` additionally writes the
machine-readable report, byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .duality import canonical_dual, classify_q, is_q_dual
from .errors import (
    FusionFrameError,
    InvalidSpec,
    NonConvergence,
    NotADual,
    ParseError,
)
from .erasures import (
    _check_enumerable,
    hierarchical_optimal,
    local_mse_optimal_system,
    local_worst_case_optimal_system,
    mse_optimal_dual,
    worst_case_optimal_dual,
)
from .minimax import SolverConfig
from .reproduce import EXAMPLE_IDS, reproduce
from .specio import Check, Report, load_spec
from .systems import is_dual_system

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERTIFICATION = 3
EXIT_NONCONVERGENCE = 4


def _tolerance(text: str, source: str) -> float:
    """A tolerance read from ``source`` (a flag or FF_TOL): a finite
    number >= 0.  Zero is accepted and demands an exact result."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidSpec(f"{source} must be a finite number >= 0, got {text!r}")
    return value


def _positive(value, source: str) -> None:
    """Check a solver flag read from ``source``: finite and > 0, so an
    integer flag is >= 1."""
    if not 0 < value < math.inf:
        rule = "an integer >= 1" if isinstance(value, int) else "a finite number > 0"
        raise InvalidSpec(f"{source} must be {rule}, got {value!r}")


def _emit(report: Report, json_path: str | None) -> int:
    """Print the report, write it to ``json_path`` if given, and return the
    exit code of its checks."""
    print(report.human())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    return EXIT_OK if report.ok else EXIT_CERTIFICATION


def cmd_analyze(args) -> int:
    spec = load_spec(args.file)
    ff = spec.fusion_frame()
    report = Report("analyze", spec.digest)
    cls = ff.classify()
    report.payload["classification"] = cls.as_dict()
    report.payload["dims"] = list(ff.dims)
    report.payload["weights"] = [float(w) for w in ff.weights]
    if cls.is_fusion_frame:
        lo, hi = cls.bounds
        report.payload["bounds"] = {"lower": lo, "upper": hi, "tol": cls.tol}
    report.add(Check.boolean("family is a fusion frame", cls.is_fusion_frame))
    return _emit(report, args.json)


def cmd_canonical_dual(args) -> int:
    tol = args.tol
    spec = load_spec(args.file)
    ff = spec.fusion_frame()
    v = np.asarray(args.weights, dtype=float) if args.weights else None
    if v is not None and (v.size != ff.size or not np.all((v > 0) & np.isfinite(v))):
        raise InvalidSpec(f"--weights must be {ff.size} positive finite numbers, one each")
    pair = canonical_dual(ff, v, tol)
    report = Report("canonical-dual", spec.digest)
    report.payload["residual"] = {"value": pair.residual, "tol": tol}
    report.payload["dual_dims"] = [s.dim for s in pair.dual.subspaces]
    report.payload["dual_weights"] = [float(w) for w in pair.dual.weights]
    report.payload["dual_bases"] = [s.basis for s in pair.dual.subspaces]
    report.payload["q_classification"] = classify_q(pair.q, tol).value
    report.add(Check.leq("duality residual", pair.residual, tol))
    return _emit(report, args.json)


def cmd_verify_dual(args) -> int:
    tol = args.tol
    spec = load_spec(args.file)
    ff = spec.fusion_frame()
    report = Report("verify-dual", spec.digest)
    if spec.dual is None:
        raise InvalidSpec("verify-dual requires a dual section")
    if spec.dual.local_frames is not None and spec.local_frames is not None:
        ws = spec.system()
        vs = spec.dual_system()
        pair = is_dual_system(ws, vs, tol)
        report.payload["mode"] = "system"
    else:
        dual = spec.dual_fusion_frame()
        q = spec.dual_q(ff, dual)
        pair = is_q_dual(ff, dual, q, tol)
        report.payload["mode"] = "fusion-frame"
    report.payload["residual"] = {"value": pair.residual, "tol": tol}
    report.payload["q_classification"] = classify_q(pair.q, tol).value
    report.add(Check.leq("duality residual", pair.residual, tol))
    return _emit(report, args.json)


def cmd_optimal(args) -> int:
    """``ff optimal`` on a fusion frame and ``ff local-optimal`` on a
    system: they differ only in the loader and the two optimizers."""
    spec = load_spec(args.file)
    if args.command == "optimal":
        primal, mse, worst = spec.fusion_frame(), mse_optimal_dual, worst_case_optimal_dual
    else:
        primal, mse, worst = (spec.system(), local_mse_optimal_system,
                              local_worst_case_optimal_system)
    groups = primal.size if args.command == "optimal" else primal.total_local
    if not 1 <= args.r <= groups:
        raise InvalidSpec(f"--r must lie in 1..{groups}")
    if args.p == "inf":
        _check_enumerable(groups, range(1, args.r + 1), InvalidSpec)
    report = Report(f"{args.command} p={args.p} r={args.r}", spec.digest)
    if args.p == "2":
        result = mse(primal, tol=args.tol)
    else:
        solver = SolverConfig(max_iters=args.max_iters, step_scale=args.step_scale,
                              tol=args.solver_tol, patience=args.patience,
                              polish=not args.no_polish)
        result = worst(primal, solver=solver, tol=args.tol)
    if args.r > 1:
        result = hierarchical_optimal(result, args.r, samples=args.samples)
    report.payload["p"] = "inf" if result.p == math.inf else result.p
    report.payload["aggregate_r1"] = result.aggregate
    report.payload["aggregate_by_r"] = {str(k): v
                                        for k, v in result.aggregate_by_r.items()}
    report.payload["error_table_r1"] = [[pattern.as_key(), err]
                                        for pattern, err in result.per_pattern_errors]
    report.payload["certificate"] = result.certificate.splitlines()
    if result.solver is not None:
        report.payload["solver"] = {
            "iterations": result.solver.iterations,
            "objective": result.solver.phi,
            "start_objective": result.solver.phi_start,
            "polished": result.solver.polished,
            "gap": result.solver.gap,
        }
    report.add(Check.leq("optimal dual residual",
                         result.optimal_dual.residual, args.tol))
    return _emit(report, args.json)


def cmd_reproduce(args) -> int:
    report = reproduce(args.example_id, tol=args.tol)
    return _emit(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ff",
        description="Fusion frame analysis, duality certification, and "
                    "erasure-optimal dual solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="JSON problem description")
        p.add_argument("--tol", default=None,
                       help="certification tolerance (default FF_TOL or 1e-9)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write a machine-readable report")

    def solver_flags(p):
        p.add_argument("--max-iters", type=int, default=50000,
                       help="reweighting iteration budget; exit 4 if the gap is still open")
        p.add_argument("--step-scale", type=float, default=0.1,
                       help="accepted and checked (> 0) but without effect")
        p.add_argument("--solver-tol", default="1e-10",
                       help="largest certified relative gap of the worst-case optimum")
        p.add_argument("--patience", type=int, default=500,
                       help="accepted and checked (>= 1) but without effect")
        p.add_argument("--no-polish", action="store_true",
                       help="skip the SLSQP polish and its KKT lower bound: the "
                            "reweighting alone must close the gap")
        p.add_argument("--samples", type=int, default=10,
                       help="accepted and checked (>= 1) but without effect: the "
                            "hierarchy check compares with the mean-square "
                            "optimum at every --p")

    p = sub.add_parser("analyze", help="classification and bounds")
    common(p)
    p.set_defaults(handler="cmd_analyze")

    p = sub.add_parser("canonical-dual", help="canonical dual and residual")
    common(p)
    p.add_argument("--weights", type=float, nargs="+", default=None,
                   help="dual weights (default: primal weights)")
    p.set_defaults(handler="cmd_canonical_dual")

    p = sub.add_parser("verify-dual", help="certify the dual section")
    common(p)
    p.set_defaults(handler="cmd_verify_dual")

    for name, text in (("optimal", "loss-optimal dual for subspace erasures"),
                       ("local-optimal",
                        "loss-optimal dual system for local-vector erasures")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--p", choices=["2", "inf"], required=True)
        p.add_argument("--r", type=int, default=1)
        solver_flags(p)
        p.set_defaults(handler="cmd_optimal")

    p = sub.add_parser("reproduce", help="rerun a bundled worked example")
    p.add_argument("example_id", choices=list(EXAMPLE_IDS) + ["6.2", "6.3"])
    common(p, needs_file=False)
    p.set_defaults(handler="cmd_reproduce")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built at the first.  Parsing
    reads no state from earlier calls: each call fills a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _tolerance(os.environ.get("FF_TOL", "1e-9"), "FF_TOL")
        else:
            args.tol = _tolerance(args.tol, "--tol")
        if "solver_tol" in args:
            args.solver_tol = _tolerance(args.solver_tol, "--solver-tol")
            for flag in ("--max-iters", "--step-scale", "--patience", "--samples"):
                _positive(getattr(args, flag[2:].replace("-", "_")), flag)
        # The handler is looked up by name at each call, so a wrapper put on
        # it after the parser was built still runs.
        return globals()[args.handler](args)
    except (ParseError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except NotADual as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except FusionFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
