"""Time fresh interpreters of two checkouts running the ``ff`` commands.

Usage:
    python tools/cold_start.py ROOT_A ROOT_B [--pairs N]

Each row is one fresh ``python`` process with ``PYTHONPATH=ROOT/src``,
started the way the installed ``ff`` entry point starts, on the bundled
fixtures of that checkout:

- ``import fusionframes.cli`` (what the benchmark's ``setup_s`` spawns);
- ``analyze`` and ``canonical-dual`` of ``example_6_3.json``;
- ``verify-dual`` of ``example_6_2.json``;
- ``optimal example_6_3.json --p 2`` and ``--p inf``;
- ``reproduce 6.4``.

Every row runs once per checkout untimed, then ``--pairs`` times per
checkout, A first in even pairs and B first in odd ones.  A run that exits
other than 0 stops the tool.  This process and its children are pinned to
the last CPU it may use; the environment is inherited, so a
``PYTHONDONTWRITEBYTECODE`` set by the caller applies to every run.  Each
row prints the median and quartiles of both checkouts in ms and the pairs
in which B was faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The entry point that ``pyproject.toml`` installs as ``ff``.
ENTRY = "import sys; from fusionframes.cli import main; sys.exit(main())"


def rows():
    """(label, argv after ``python``) of each row; a ``.json`` argument is
    a bundled fixture."""
    yield "import fusionframes.cli", ["-c", "import fusionframes.cli"]
    for command in ("analyze", "canonical-dual"):
        yield command, [command, "example_6_3.json"]
    yield "verify-dual", ["verify-dual", "example_6_2.json"]
    for p in ("2", "inf"):
        yield f"optimal --p {p}", ["optimal", "example_6_3.json", "--p", p]
    yield "reproduce 6.4", ["reproduce", "6.4"]


def command(root: Path, argv):
    fixtures = root / "src" / "fusionframes" / "fixtures"
    argv = [str(fixtures / arg) if arg.endswith(".json") else arg for arg in argv]
    return argv if argv[0] == "-c" else ["-c", ENTRY, *argv]


def run(root: Path, argv) -> float:
    """Wall seconds of one fresh interpreter.  No timeout: with one, ``wait``
    polls in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"{root}: {' '.join(argv[2:] or argv)} exited {proc.returncode}\n{proc.stderr}")
    return seconds


def summary(seconds) -> str:
    q1, median, q3 = statistics.quantiles([1e3 * s for s in seconds], n=4, method="inclusive")
    return f"{median:6.1f} ({q1:.1f}-{q3:.1f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    roots = (args.root_a.resolve(), args.root_b.resolve())
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    table = [(label, [command(root, argv) for root in roots]) for label, argv in rows()]
    times = {label: ([], []) for label, _ in table}
    for label, argvs in table:
        for root, argv in zip(roots, argvs):
            run(root, argv)
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for label, argvs in table:
            for side in order:
                times[label][side].append(run(roots[side], argvs[side]))
    print(f"{args.pairs} pairs on CPU {cpu}, PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; ms, median (quartiles)")
    print(f"A = {roots[0]}\nB = {roots[1]}")
    for label, (a, b) in times.items():
        wins = sum(tb < ta for ta, tb in zip(a, b))
        print(f"{label:24s} A {summary(a)}  B {summary(b)}  B faster {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
