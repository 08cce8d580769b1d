"""Fingerprint, bit for bit, what the library computes on fixed seeded problems.

Usage:
    python tools/result_digest.py ROOT

Imports ``fusionframes`` from ``ROOT/src`` and the random problems of
``ROOT/tests/conftest.py``, and runs, from ``numpy.random.default_rng(7)``:

- ``mse_optimal_dual`` and ``worst_case_optimal_dual`` on a real and a
  complex fusion frame, each followed by ``hierarchical_optimal`` up to
  r = 2 (the mean-square report at p = 2, the worst-case one at p = inf);
- ``local_mse_optimal_system`` (unit-norm local frames) and
  ``local_worst_case_optimal_system`` on a real and a complex system,
  with the same hierarchy checks;
- ``canonical_dual`` and ``noncanonical_dual`` of a real and a complex
  overcomplete fusion frame;
- ``orthonormalize_many`` on lists that mix ambient dimensions, block
  widths and fields, with rank-deficient and zero members.

Everything a result holds goes into one sha256: every float as
``float.hex``, every string (certificates included) as text, every
array (bases, weights, coupling matrices, solver iterates) as its dtype,
shape and bytes.  One line is printed: the number of results and the
digest.  Two checkouts compute the same bits on these problems when

    diff <(python tools/result_digest.py A) <(python tools/result_digest.py B)

prints nothing.  Only numpy, the checkout and its test helpers are needed.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import math
import sys
from pathlib import Path

import numpy as np


def feed(sha, obj) -> None:
    """Add ``obj`` to ``sha``, tagged by kind so that no two values collide."""
    if isinstance(obj, (bool, np.bool_, int, np.integer, str, enum.Enum)) or obj is None:
        sha.update(f"{type(obj).__name__}:{obj!s};".encode())
    elif isinstance(obj, (float, np.floating)):
        sha.update(f"f:{float(obj).hex()};".encode())
    elif isinstance(obj, (complex, np.complexfloating)):
        sha.update(f"c:{obj.real.hex()},{obj.imag.hex()};".encode())
    elif isinstance(obj, np.ndarray):
        sha.update(f"a:{obj.dtype.str}{obj.shape};".encode())
        sha.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        sha.update(f"d:{len(obj)};".encode())
        for key, value in obj.items():
            feed(sha, key)
            feed(sha, value)
    elif isinstance(obj, (list, tuple)):
        sha.update(f"l:{len(obj)};".encode())
        for item in obj:
            feed(sha, item)
    elif hasattr(obj, "as_matrix"):             # a BlockOp
        feed(sha, (obj.row_dims, obj.col_dims, obj.as_matrix()))
    elif dataclasses.is_dataclass(obj):
        sha.update(f"o:{type(obj).__name__};".encode())
        for f in dataclasses.fields(obj):
            feed(sha, f.name)
            feed(sha, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def results():
    """Each problem's results, in a fixed order."""
    from conftest import (random_fusion_frame, random_matrix,
                          random_overcomplete_fusion_frame, random_system)
    from fusionframes import (canonical_dual, hierarchical_optimal,
                              local_mse_optimal_system, local_worst_case_optimal_system,
                              mse_optimal_dual, noncanonical_dual, worst_case_optimal_dual)
    from fusionframes.linalg import orthonormalize_many

    rng = np.random.default_rng(7)
    for complex_field in (False, True):
        ff = random_fusion_frame(rng, 5, 5, complex_field)
        mse, worst = mse_optimal_dual(ff), worst_case_optimal_dual(ff)
        yield mse, hierarchical_optimal(mse, 2), worst, hierarchical_optimal(worst, 2)
        ws = random_system(rng, 4, 4, complex_field, unit_norm=True)
        mse, worst = local_mse_optimal_system(ws), local_worst_case_optimal_system(ws)
        yield mse, hierarchical_optimal(mse, 2), worst, hierarchical_optimal(worst, 2)
        ff = random_overcomplete_fusion_frame(rng, 4, 4, complex_field)
        yield canonical_dual(ff), noncanonical_dual(ff)
    for count in (1, 2, 7, 30):
        mats = []
        for _ in range(count):
            d, k = int(rng.choice([3, 8, 24])), int(rng.integers(1, 13))
            mat = random_matrix(rng, d, k, bool(rng.integers(2)))
            kind = rng.integers(4)
            if kind == 0:       # rank deficient
                mat = mat[:, :1] @ random_matrix(rng, 1, k)
            elif kind == 1:
                mat = np.zeros_like(mat)
            mats.append(mat)
        yield orthonormalize_many(mats, allow_zero=True)


def digest() -> str:
    """``"<count> results sha256=<hex>"`` of ``results()``."""
    sha, count = hashlib.sha256(), 0
    for result in results():
        feed(sha, result)
        count += 1
    return f"{count} results sha256={sha.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
