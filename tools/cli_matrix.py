"""Fingerprint the ``ff`` command line of a checkout on a fixed run matrix.

Usage:
    python tools/cli_matrix.py ROOT

Imports ``fusionframes`` from ``ROOT/src`` and calls ``cli.main`` in
process on 53 runs:

- ``optimal`` and ``local-optimal`` x the four bundled fixtures x
  ``--p {2,inf}`` x ``--r {1,2}`` (32 runs)
- ``reproduce`` of the seven example IDs and the aliases 6.2 and 6.3
  (9 runs)
- ``analyze``, ``canonical-dual`` and ``verify-dual`` x the four
  fixtures (12 runs)

Every run also writes ``--json`` into a temporary directory.  One line
is printed per run: the argv (fixtures by file name), the exit code and
the sha256 of the ``--json`` bytes (``-`` when none was written), of
stdout and of stderr.  An exception that escapes ``main`` is recorded as
exit code 1 with its type and message as stderr, since a traceback
names paths.  Two checkouts behave the same on the matrix when their
outputs are equal:

    diff <(python tools/cli_matrix.py A) <(python tools/cli_matrix.py B)

FF_TOL is removed from the environment so every run uses the default
tolerance.  Only the standard library and the checkout are needed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

FIXTURES = ("example_6_2.json", "example_6_3.json", "example_6_4.json",
            "orthonormal_basis.json")
REPRODUCE_IDS = ("6.2a", "6.2b", "6.3a", "6.3b", "6.3c", "6.3d", "6.4", "6.2", "6.3")


def matrix() -> list[list[str]]:
    """The argv of every run, with fixtures named by file name."""
    runs = [[command, name, "--p", p, "--r", r]
            for command in ("optimal", "local-optimal") for name in FIXTURES
            for p in ("2", "inf") for r in ("1", "2")]
    runs += [["reproduce", example_id] for example_id in REPRODUCE_IDS]
    runs += [[command, name] for command in ("analyze", "canonical-dual", "verify-dual")
             for name in FIXTURES]
    return runs


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def run(main, fixtures: Path, argv: list[str], json_path: Path) -> str:
    """Call ``main`` on ``argv`` and return the run's fingerprint line."""
    full = [str(fixtures / arg) if arg in FIXTURES else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(full + ["--json", str(json_path)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is the run's outcome
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    json_bytes = json_path.read_bytes() if json_path.exists() else None
    return (f"{' '.join(argv)}  exit={code}  json={_sha(json_bytes)}  "
            f"stdout={_sha(out.getvalue().encode())}  stderr={_sha(err.getvalue().encode())}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/cli_matrix.py ROOT", file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("FF_TOL", None)
    from fusionframes import cli

    fixtures = root / "src" / "fusionframes" / "fixtures"
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv_i in enumerate(matrix()):
            print(run(cli.main, fixtures, argv_i, Path(tmp) / f"run{i}.json"),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
