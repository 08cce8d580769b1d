"""Input parsing, report serialization, and the command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fusionframes
from fusionframes.cli import main
from fusionframes.errors import InvalidSpec, ParseError
from fusionframes.reproduce import fixture_path
from fusionframes.specio import dumps_spec, load_spec, parse_spec


FIXTURES = ["example_6_2.json", "example_6_3.json", "example_6_4.json",
            "orthonormal_basis.json"]


def fixture(name) -> str:
    return str(fixture_path(name))


class TestParsing:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_parse(self, name):
        spec = load_spec(fixture(name))
        ff = spec.fusion_frame()
        assert ff.ambient_dim == spec.dimension

    def test_roundtrip_is_identity_on_canonical_files(self):
        for name in FIXTURES:
            with open(fixture(name), "r", encoding="utf-8") as fh:
                original = fh.read()
            spec = load_spec(fixture(name))
            assert dumps_spec(spec) + "\n" == original

    def test_complex_entries_roundtrip(self):
        spec = load_spec(fixture("example_6_2.json"))
        again = parse_spec(json.loads(dumps_spec(spec)))
        assert dumps_spec(again) == dumps_spec(spec)
        assert spec.fusion_frame().dtype == np.complex128

    def test_rejects_bad_field(self):
        with pytest.raises(ParseError):
            parse_spec({"field": "quaternion", "dimension": 2,
                        "subspaces": [], "weights": []})

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ParseError):
            parse_spec({"field": "real", "dimension": 3,
                        "subspaces": [{"spanning_vectors": [[1.0, 0.0]]}],
                        "weights": [1.0]})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidSpec):
            parse_spec({"field": "real", "dimension": 2,
                        "subspaces": [{"spanning_vectors": [[1.0, 0.0]]}],
                        "weights": [-1.0]})

    def test_rejects_boolean_dimension(self):
        with pytest.raises(ParseError):
            parse_spec({"field": "real", "dimension": True,
                        "subspaces": [{"spanning_vectors": [[1.0]]}],
                        "weights": [1.0]})

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_spec(str(path))


class TestCli:
    def test_analyze_two_plane(self, capsys):
        code = main(["analyze", fixture("example_6_3.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "is_overcomplete=True" in out
        assert "lower=1" in out and "upper=5" in out

    def test_analyze_riesz(self, capsys):
        code = main(["analyze", fixture("example_6_2.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "is_riesz=True" in out

    def test_analyze_orthonormal_basis_parseval(self, capsys):
        code = main(["analyze", fixture("orthonormal_basis.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "is_parseval=True" in out
        assert "is_orthonormal_basis=True" in out

    def test_canonical_dual(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["canonical-dual", fixture("example_6_3.json"),
                     "--json", str(out_path)])
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["ok"] is True
        assert body["payload"]["q_classification"] == "component_preserving"

    def test_verify_dual_system(self, capsys):
        code = main(["verify-dual", fixture("example_6_2.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "block_diagonal" in out

    def test_verify_dual_missing_section(self, capsys):
        code = main(["verify-dual", fixture("example_6_3.json")])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["analyze", str(bad)]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["subspaces"][0]["spanning_vectors"][0].__setitem__(0, math.nan),
        lambda d: d["subspaces"][1]["spanning_vectors"][0].__setitem__(2, math.inf),
        lambda d: d["local_frames"][0][1].__setitem__(1, math.nan),
        lambda d: d["local_frames"][1][0].__setitem__(2, 10 ** 400),
        lambda d: d.__setitem__("dual", {"subspaces": d["subspaces"],
                                         "q_blocks": [[[[1.0, math.nan]]]]}),
        lambda d: d.__setitem__("dual", {"subspaces": d["subspaces"],
                                         "q_blocks": [[[1.0]]]}),
        lambda d: d["weights"].__setitem__(0, True),
        lambda d: d["weights"].__setitem__(1, 10 ** 400),
    ], ids=["nan-vector", "inf-vector", "nan-local-frame", "huge-integer-entry",
            "nan-q-block", "vector-q-block", "boolean-weight", "huge-integer-weight"])
    def test_bad_numbers_exit_2(self, capsys, tmp_path, corrupt):
        with open(fixture("example_6_3.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 2

    def test_optimal_mse(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code = main(["optimal", fixture("example_6_3.json"), "--p", "2",
                     "--r", "2", "--json", str(out_path)])
        assert code == 0
        body = json.loads(out_path.read_text())
        assert set(body["payload"]["aggregate_by_r"]) == {"1", "2"}

    def test_optimal_worst_case(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code = main(["optimal", fixture("example_6_3.json"), "--p", "inf",
                     "--r", "1", "--max-iters", "2000",
                     "--json", str(out_path)])
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["payload"]["solver"]["iterations"] <= 2000

    def test_local_optimal_mse(self, capsys):
        code = main(["local-optimal", fixture("example_6_3.json"), "--p", "2",
                     "--r", "1"])
        assert code == 0

    def test_local_optimal_worst_case(self, capsys):
        code = main(["local-optimal", fixture("example_6_4.json"), "--p", "inf",
                     "--r", "1", "--max-iters", "2000"])
        assert code == 0

    def test_reproduce_all_ids(self, capsys):
        for example_id in ["6.2a", "6.2b", "6.3a", "6.3c", "6.3d", "6.4"]:
            assert main(["reproduce", example_id]) == 0

    def test_nonconvergence_exit_code(self, capsys):
        code = main(["optimal", fixture("example_6_3.json"), "--p", "inf",
                     "--r", "1", "--max-iters", "5", "--patience", "100000",
                     "--no-polish"])
        assert code == 4

    def test_json_reports_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["optimal", fixture("example_6_3.json"), "--p", "inf",
              "--r", "2", "--max-iters", "1500", "--json", str(first)])
        main(["optimal", fixture("example_6_3.json"), "--p", "inf",
              "--r", "2", "--max-iters", "1500", "--json", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_console_entry_point(self):
        # The child imports the same package as this process, installed or not.
        src = os.path.dirname(os.path.dirname(fusionframes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fusionframes.cli", "analyze",
             fixture("orthonormal_basis.json")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "result: ok" in proc.stdout

    def test_ff_tol_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FF_TOL", "1e-3")
        code = main(["verify-dual", fixture("example_6_2.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.000e-03" in out
