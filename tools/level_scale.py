"""Time the p=inf level tables of a checkout on two large erasure problems.

Usage:
    python tools/level_scale.py ROOT [--repeats N]

Imports ``fusionframes`` from ``ROOT/src`` and the random frames of
``ROOT/tests/conftest.py``, builds one erasure engine per case and runs
``levels(math.inf)`` on fresh copies of it:

- ``m24``: ``rng = numpy.random.default_rng(5)`` draws
  ``random_fusion_frame(rng, 20, 12, max_dim=20)`` and
  ``random_fusion_frame(rng, 30, 16, max_dim=20)``, then the frame
  ``random_fusion_frame(rng, 40, 24, max_dim=20)``; the engine is that of
  its mean-square optimal left inverse.
- ``lines24``: 24 unit vectors in R^3 drawn by
  ``numpy.random.default_rng(5).normal(size=(24, 3))``, one line each,
  weights 1; the engine is that of ``worst_case_optimal_dual``.

Both stop at r = 8 (C(24, 9) exceeds ``MAX_PATTERNS``), after 1271625
patterns.  For each case one line gives the levels, the median wall time
of ``--repeats`` untraced runs, and the ``tracemalloc`` peak of one more
run.  Two checkouts compare on the same host with

    python tools/level_scale.py A; python tools/level_scale.py B
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


def cases():
    """(name, problem, left inverse) of each case."""
    from conftest import random_fusion_frame
    from fusionframes import erasures
    from fusionframes.fusion import FusionFrame

    rng = np.random.default_rng(5)
    random_fusion_frame(rng, 20, 12, max_dim=20)
    random_fusion_frame(rng, 30, 16, max_dim=20)
    problem = erasures._GroupProblem.of_blocks(random_fusion_frame(rng, 40, 24, max_dim=20))
    yield "m24", problem, problem.mse_left_inverse

    vectors = np.random.default_rng(5).normal(size=(24, 3))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    lines = FusionFrame.from_spanning_sets([v[:, None] for v in vectors], np.ones(24))
    report = erasures.worst_case_optimal_dual(lines)
    pair = report.optimal_dual
    yield "lines24", report._problem, pair.dual.synthesis_matrix() @ pair.q.as_matrix()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from fusionframes.erasures import _GroupErasures

    for name, problem, left in cases():
        seconds = []
        for _ in range(args.repeats):
            engine = _GroupErasures(problem, left)
            start = time.perf_counter()
            levels = engine.levels(math.inf)
            seconds.append(time.perf_counter() - start)
        engine = _GroupErasures(problem, left)
        tracemalloc.start()
        try:
            engine.levels(math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"{name}: levels {min(levels)}..{max(levels)}, "
              f"{statistics.median(seconds):.3f} s (median of {args.repeats}), "
              f"tracemalloc peak {peak / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
