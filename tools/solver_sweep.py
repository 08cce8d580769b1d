"""Sweep the worst-case solver of a checkout over seeded random problems.

Usage:
    python tools/solver_sweep.py ROOT [--seeds N] [--first S]

Imports ``fusionframes`` from ``ROOT/src``, the random problems of
``ROOT/tests/conftest.py`` and the reference bound of
``ROOT/bench/checks.py``.  For each seed s in S .. S+N-1 it draws, from
``numpy.random.default_rng(s)``, d and m in 2..5 and a field (complex on
odd seeds), then runs ``worst_case_optimal_dual`` on
``random_overcomplete_fusion_frame(rng, d, m, field)`` and
``local_worst_case_optimal_system`` on ``random_system(rng, d, m,
field)``, both at the default solver settings.

Each result is counted as certified, ``NotADual``, ``NotLeftInverse`` or
``NonConvergence``.  A certified or non-converged result whose reported
lower bound, phi sqrt(1 - gap), lies above a feasible upper bound on the
same problem is also counted as a wrong certificate: no left inverse lies
below the true optimum, so such a bound certifies a wrong optimum.  The
feasible upper bound is the objective that ``checks.reweighting_bound``
reaches, plus what it costs to move its point onto the exact left
inverses (see ``feasible_upper``).  The counts go to stdout as one line
per kind; everything is deterministic, so two checkouts compare with

    diff <(python tools/solver_sweep.py A) <(python tools/solver_sweep.py B)
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

KINDS = ("certified", "NotADual", "NotLeftInverse", "NonConvergence", "wrong certificate")


def feasible_upper(synth, coeffs, phi) -> float:
    """An upper bound on the optimum from ``reweighting_bound``'s objective
    ``phi``.  Its point A = A0 + (N W)* is a left inverse of T* only to
    rounding: the exact left inverse A - R (T T*)^-1 T, R = A T* - I, costs
    at most max c ||R||_F / sigma_min(T) more.  R is bounded through the
    reference's own A0 and N (rebuilt here bit for bit) and ||A||_F <=
    sqrt(sum_i (phi / c_i)^2)."""
    d = synth.shape[0]
    a0 = np.linalg.solve(synth @ synth.conj().T, synth)
    _, sing, vh = np.linalg.svd(synth)
    size = math.sqrt(float(np.sum((phi / coeffs) ** 2))) + np.linalg.norm(a0)
    residual = (np.linalg.norm(a0 @ synth.conj().T - np.eye(d))
                + size * np.linalg.norm(vh[d:] @ synth.conj().T))
    return phi + float(np.max(coeffs)) * residual / sing[d - 1]


def sweep(seeds) -> Counter:
    from conftest import random_overcomplete_fusion_frame, random_system
    from checks import reweighting_bound
    from fusionframes import erasures
    from fusionframes.errors import NonConvergence, NotADual, NotLeftInverse

    counts = Counter()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d, m, complex_field = int(rng.integers(2, 6)), int(rng.integers(2, 6)), bool(seed % 2)
        ff = random_overcomplete_fusion_frame(rng, d, m, complex_field)
        ws = random_system(rng, d, m, complex_field)
        runs = [(erasures._GroupProblem.of_blocks(ff),
                 lambda: erasures.worst_case_optimal_dual(ff).solver),
                (erasures._GroupProblem.of_local_vectors(ws),
                 lambda: erasures.local_worst_case_optimal_system(ws).solver)]
        for problem, call in runs:
            try:
                result = call()
                counts["certified"] += 1
            except NonConvergence as exc:
                result = exc.result
                counts["NonConvergence"] += 1
            except (NotADual, NotLeftInverse) as exc:
                counts[type(exc).__name__] += 1
                continue
            phi = reweighting_bound(problem.synth, problem.groups, problem.coeffs)[1]
            feasible = feasible_upper(problem.synth, problem.coeffs, phi)
            counts["wrong certificate"] += result.phi * math.sqrt(1.0 - result.gap) > feasible
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--first", type=int, default=0)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "bench")]
    counts = sweep(range(args.first, args.first + args.seeds))
    for kind in KINDS:
        print(f"{kind}: {counts[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
