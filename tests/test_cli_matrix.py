"""``tools/cli_matrix.py``: the fixed 53-run fingerprint of the ``ff`` CLI."""

import hashlib
import importlib.util
from pathlib import Path

from fusionframes.cli import main
from fusionframes.reproduce import fixture_path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
_SPEC = importlib.util.spec_from_file_location("cli_matrix", _PATH)
cli_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_matrix)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_matrix_is_the_53_distinct_runs():
    runs = cli_matrix.matrix()
    assert len({tuple(argv) for argv in runs}) == len(runs) == 53
    commands = [argv[0] for argv in runs]
    assert commands.count("optimal") == commands.count("local-optimal") == 16
    assert commands.count("reproduce") == 9
    for command in ("analyze", "canonical-dual", "verify-dual"):
        assert commands.count(command) == 4


def test_a_run_fingerprints_its_exit_code_json_and_streams(tmp_path, capsys):
    fixtures = Path(str(fixture_path("example_6_3.json"))).parent
    json_path = tmp_path / "run.json"
    line = cli_matrix.run(main, fixtures, ["analyze", "example_6_3.json"], json_path)
    assert main(["analyze", str(fixtures / "example_6_3.json")]) == 0
    stdout = capsys.readouterr().out
    json_sha = hashlib.sha256(json_path.read_bytes()).hexdigest()
    assert line == (f"analyze example_6_3.json  exit=0  json={json_sha}  "
                    f"stdout={sha(stdout)}  stderr={sha('')}")


def test_an_escaped_exception_is_exit_1_without_a_traceback(tmp_path):
    def broken_main(argv):
        print("partial")
        raise RuntimeError("boom")

    line = cli_matrix.run(broken_main, tmp_path, ["reproduce", "6.4"], tmp_path / "run.json")
    stdout, stderr = sha("partial\n"), sha("RuntimeError: boom\n")
    assert line == f"reproduce 6.4  exit=1  json=-  stdout={stdout}  stderr={stderr}"


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_names_are_distinct():
    names = [cli_matrix.golden_name(argv) for argv in cli_matrix.matrix()]
    assert len(set(names)) == len(names)


def test_the_matrix_reproduces_the_golden_outputs(tmp_path, monkeypatch):
    # Every row of the matrix against tests/golden/: exit code, stdout and
    # stderr hashes, and the --json bytes, all exactly.  A row that moves is
    # rewritten with ``tools/cli_matrix.py . --write tests/golden`` and
    # listed in CHANGES.md.  The digits depend on numpy, so another numpy
    # version fails here with its name rather than with a diff of hashes.
    import numpy

    first, *golden = (GOLDEN / "matrix.txt").read_text().splitlines()
    assert first == cli_matrix.header(numpy.__version__), (
        f"tests/golden/ was written with {first[2:]}, this is numpy {numpy.__version__}")
    monkeypatch.delenv("FF_TOL", raising=False)
    fixtures = Path(str(fixture_path("example_6_3.json"))).parent
    assert cli_matrix.fingerprints(main, fixtures, tmp_path) == golden
    written = sorted(path.name for path in tmp_path.glob("*.json"))
    assert written == sorted(path.name for path in GOLDEN.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
