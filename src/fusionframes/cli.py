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
2, and so does a ``--json`` path that cannot be written.  FF_TOL
overrides the default tolerance 1e-9; a ``--tol``, ``--solver-tol`` or
FF_TOL that is not a finite number >= 0 exits 2, and so does a
``--max-iters`` below 1 and, at ``--p inf``, an ``--r`` with a level of
more than MAX_PATTERNS erasure patterns.
Reports go to stdout; ``--json PATH`` additionally writes the
machine-readable report, byte-identical for identical inputs and flags.

What loads when: importing this module loads numpy and the modules that
``analyze``, ``canonical-dual`` and ``verify-dual`` all run (``specio``,
``duality``, ``systems``, ``frames``, ``errors``).  ``cmd_optimal``
imports ``erasures`` and ``minimax`` when it starts, and ``cmd_reproduce``
imports ``reproduce``; both call through the module, so a patch of a
module attribute reaches them.  The parser loads neither: the example
ids come from ``specio.EXAMPLES``, and ``--max-iters`` and
``--solver-tol`` parse to None, which ``cmd_optimal`` leaves at
``SolverConfig``'s defaults.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .duality import DEFAULT_TOL, canonical_dual, classify_q, is_q_dual
from .errors import (
    FusionFrameError,
    InvalidSpec,
    NonConvergence,
    NotADual,
    ParseError,
)
from .frames import Frame
from .specio import EXAMPLE_ALIASES, EXAMPLES, Check, Report, load_spec
from .systems import FusionFrameSystem, is_dual_system

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


def _emit(report: Report, json_path: str | None) -> int:
    """Print the report, write it to ``json_path`` if given, and return the
    exit code of its checks."""
    print(report.human())
    if json_path:
        text = report.to_json()
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
        except OSError as exc:
            raise InvalidSpec(f"cannot write {json_path}: {exc}") from exc
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
    return _emit(report, args.json)


def cmd_verify_dual(args) -> int:
    tol = args.tol
    spec = load_spec(args.file)
    ff = spec.fusion_frame()
    report = Report("verify-dual", spec.digest)
    if spec.dual is None:
        raise InvalidSpec("verify-dual requires a dual section")
    if spec.dual.local_frames is not None and spec.local_frames is not None:
        ws = FusionFrameSystem(ff, tuple(map(Frame, spec.local_frames)))
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
    return _emit(report, args.json)


def cmd_optimal(args) -> int:
    """``ff optimal`` on a fusion frame and ``ff local-optimal`` on a
    system: they differ only in the loader and the two optimizers."""
    from . import erasures, minimax

    spec = load_spec(args.file)
    if args.command == "optimal":
        primal, mse, worst = (spec.fusion_frame(), erasures.mse_optimal_dual,
                              erasures.worst_case_optimal_dual)
    else:
        primal, mse, worst = (spec.system(), erasures.local_mse_optimal_system,
                              erasures.local_worst_case_optimal_system)
    groups = primal.size if args.command == "optimal" else primal.total_local
    if not 1 <= args.r <= groups:
        raise InvalidSpec(f"--r must lie in 1..{groups}")
    if args.p == "inf":
        erasures._check_enumerable(groups, range(1, args.r + 1), InvalidSpec)
    report = Report(f"{args.command} p={args.p} r={args.r}", spec.digest)
    if args.p == "2":
        result = mse(primal, tol=args.tol)
    else:
        flags = {"max_iters": args.max_iters, "tol": args.solver_tol}
        solver = minimax.SolverConfig(**{k: v for k, v in flags.items() if v is not None})
        result = worst(primal, solver=solver, tol=args.tol)
    if args.r > 1:
        result = erasures.hierarchical_optimal(result, args.r)
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
    report.payload["residual"] = {"value": result.optimal_dual.residual, "tol": args.tol}
    return _emit(report, args.json)


def cmd_reproduce(args) -> int:
    from . import reproduce

    return _emit(reproduce.reproduce(args.example_id, tol=args.tol), args.json)


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
        p.add_argument("--max-iters", type=int,
                       help="reweighting iteration budget; exit 4 if the gap is still open")
        p.add_argument("--solver-tol",
                       help="largest certified relative gap of the worst-case optimum")
        p.set_defaults(handler="cmd_optimal")

    p = sub.add_parser("reproduce", help="rerun a bundled worked example")
    p.add_argument("example_id", choices=[*EXAMPLES, *EXAMPLE_ALIASES])
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
            args.tol = _tolerance(os.environ.get("FF_TOL", str(DEFAULT_TOL)), "FF_TOL")
        else:
            args.tol = _tolerance(args.tol, "--tol")
        # An unset solver flag is None: cmd_optimal takes SolverConfig's default.
        if getattr(args, "solver_tol", None) is not None:
            args.solver_tol = _tolerance(args.solver_tol, "--solver-tol")
        if getattr(args, "max_iters", None) is not None and args.max_iters < 1:
            raise InvalidSpec(f"--max-iters must be an integer >= 1, got {args.max_iters}")
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
