"""Machine-speed probe for calibrated timings.

On a shared machine the same code runs up to about 1.6 times slower for
seconds to minutes at a time, and whole runs can land in a slow stretch.
The probe is a fixed piece of work that never calls the library, close
to what the ops spend their time on: small matrix products with a
Frobenius norm per product, driven from a Python loop, and small SVDs.
Timed right before and after each op, it gives the machine's speed at
that moment, and an op's seconds are rescaled to the speed at which the
probe takes ``REFERENCE_S``.

The probe runs in a child process of its own, which never imports the
library and shares no memory with the ops, so nothing an op leaves
behind (heap, allocator state, garbage) can change the probe's time.
``run.py`` pins itself to one CPU before it starts the probe, so the
child, like every process it spawns, runs on the CPU whose speed the
ops see: on a shared host the two vCPUs differ from moment to moment.

    python3 bench/speed.py   # the child: one probe per line read
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

import numpy as np

#: Probe seconds at the reference speed (about the probe's time on the
#: two-CPU machine the baseline was recorded on).
REFERENCE_S = 0.005
#: Timed rounds per probe; the probe reports their median, so one round
#: stretched by an interrupt or by caches the ops left cold does not set
#: an op's speed.
ROUNDS = 3


class _Work:
    """The fixed unit of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._left = rng.normal(size=(8, 24))
        self._right = self._left.T.copy()
        self._cols = [np.arange(k, k + 3) for k in range(20)]
        self._square = rng.normal(size=(24, 24))

    def seconds(self):
        start = time.perf_counter()
        for _ in range(15):
            for cols in self._cols:
                float(np.linalg.norm(self._left[:, cols] @ self._right[cols, :], "fro"))
        for _ in range(20):
            np.linalg.svd(self._square)
        return time.perf_counter() - start


class SpeedProbe:
    """Context manager around the probe's child process; calling it
    returns the median wall seconds of ROUNDS rounds of the work."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()


def calibrated(seconds, probe_seconds):
    """``seconds`` measured while the probe took ``probe_seconds``,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / probe_seconds


if __name__ == "__main__":
    work = _Work()
    gc.disable()
    for _ in sys.stdin:
        print(statistics.median(work.seconds() for _ in range(ROUNDS)), flush=True)
