"""Input parsing, report serialization, and the command-line front end."""

import builtins
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fusionframes
from fusionframes import cli, erasures, specio
from fusionframes.cli import main
from fusionframes.errors import InvalidSpec, ParseError
from fusionframes.reproduce import fixture_path
from fusionframes.specio import dumps_spec, load_spec, parse_spec

from conftest import random_system


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

    def test_complex_entries_mix_numbers_and_pairs(self):
        spec = parse_spec({"field": "complex", "dimension": 2,
                           "subspaces": [{"spanning_vectors": [[[-0.0, 1], 2]]}],
                           "weights": [1]})
        rows = spec.subspaces[0]
        np.testing.assert_array_equal(rows, [[1j, 2]])
        assert np.signbit(rows[0, 0].real)

    @pytest.mark.parametrize("entry, error", [
        ([1, 10 ** 400], InvalidSpec), ([0.0, math.nan], InvalidSpec),
        ([True, 0.0], ParseError), ([1.0, 2.0, 3.0], ParseError), ("1", ParseError)])
    def test_rejects_bad_complex_entry(self, entry, error):
        with pytest.raises(error):
            parse_spec({"field": "complex", "dimension": 2,
                        "subspaces": [{"spanning_vectors": [[entry, 0.0]]}],
                        "weights": [1.0]})

    @given(st.data(), st.booleans(), st.booleans(), st.booleans())
    def test_bulk_reader_matches_the_matrix_reader(self, data, complex_field, pairs,
                                                   fixed_width):
        # One pass over a list of matrices returns, bit for bit, what reading
        # them one at a time returns.  Without pairs a complex matrix holds
        # plain numbers; with a fixed width every matrix has the same one.
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**60, 2**60))
        entry = st.lists(number, min_size=2, max_size=2) if complex_field and pairs else number
        width = data.draw(st.integers(0, 3))
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                                    min_size=1, max_size=4))
        raws = [data.draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=n,
                                   max_size=n))
                for n, w in ((n, width if fixed_width else w) for n, w in shapes)]
        bulk = specio._read_matrices(raws, width if fixed_width else None, complex_field)
        one_by_one = [specio._read_matrix(raw, len(raw[0]), complex_field, "m") for raw in raws]
        assert len(bulk) == len(one_by_one)
        for got, want in zip(bulk, one_by_one):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("command", ["analyze", "canonical-dual", "verify-dual"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"field": "real", "dimension": 1, "label": "caf\xe9"}')
        with pytest.raises(ParseError, match="is not UTF-8 text"):
            load_spec(str(path))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text: ")

    def test_reads_the_file_once_and_hashes_its_bytes(self, capsys, monkeypatch):
        path = fixture("example_6_3.json")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counting_open)
        spec = load_spec(path)
        assert opened.count(path) == 1
        with real_open(path, "rb") as handle:
            assert spec.digest == hashlib.sha256(handle.read()).hexdigest()
        opened.clear()
        assert main(["analyze", path]) == 0
        assert opened.count(path) == 1
        assert f"input: {spec.digest[:16]}" in capsys.readouterr().out

    def test_crlf_file_reads_like_lf(self, tmp_path):
        with open(fixture("example_6_2.json"), "rb") as handle:
            text = handle.read()
        path = tmp_path / "crlf.json"
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        assert dumps_spec(load_spec(str(path))) == dumps_spec(load_spec(fixture("example_6_2.json")))
        path.write_bytes(b"{\r\n  \"field\": \r\n}")
        with pytest.raises(json.JSONDecodeError) as text_mode:
            with open(path, encoding="utf-8") as handle:
                json.load(handle)
        with pytest.raises(ParseError) as caught:
            load_spec(str(path))
        assert str(caught.value) == f"{path} is not valid JSON: {text_mode.value}"


def _jsonable(value):
    """The reference JSON form of a report value, converted one Python
    object at a time; ``json.dumps(_jsonable(v), indent=2, sort_keys=True)``
    is the text ``specio._dumps(v)`` must write."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), -1)
        return _jsonable(value.tolist())
    if isinstance(value, str) or value is None:
        return value
    return str(value)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANY_FLOAT = st.floats()


def _arrays(dtype, elements):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=elements)


_ARRAYS = st.one_of(
    _arrays(np.float64, _FINITE), _arrays(np.float64, _ANY_FLOAT),
    _arrays(np.complex128, st.complex_numbers(allow_nan=False, allow_infinity=False)),
    _arrays(np.complex128, st.complex_numbers(allow_nan=True, allow_infinity=True)),
    _arrays(np.float32, st.floats(width=32)), _arrays(np.int64, st.integers(-2**63, 2**63 - 1)),
    _arrays(np.bool_, st.booleans()))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _ANY_FLOAT, st.complex_numbers(),
    st.text(), st.builds(np.float64, _ANY_FLOAT), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    st.builds(np.complex128, st.complex_numbers()), st.just(frozenset({1})))
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), _ANY_FLOAT, st.none())
_VALUES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12)


class TestJsonWriter:
    @settings(max_examples=400)
    @given(_VALUES)
    def test_writes_the_reference_text(self, value):
        assert specio._dumps(value) == json.dumps(_jsonable(value), indent=2, sort_keys=True)

    def test_report_and_spec_text(self):
        spec = load_spec(fixture("example_6_2.json"))
        payload = {"bases": [s.basis for s in spec.fusion_frame().subspaces],
                   "residual": {"value": np.float64(2e-16), "tol": 1e-9}, "dims": (1, 1)}
        report = specio.Report("canonical-dual", "0" * 64, payload,
                               [specio.Check.leq("duality residual", 2e-16, 1e-9)])
        body = {"command": "canonical-dual", "input_digest": "0" * 64, "payload": payload,
                "checks": [report.checks[0].as_dict()], "ok": True}
        assert report.to_json() == json.dumps(_jsonable(body), indent=2, sort_keys=True)
        assert dumps_spec(spec) == json.dumps(_jsonable(spec.to_json_dict()), indent=2,
                                              sort_keys=True)


def _human_reference(value) -> str:
    """The human text of a report value, written one Python object at a time."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (float, complex)):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_human_reference(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_human_reference(v) for v in value) + "]"
    return str(value)


class TestHumanReport:
    @settings(max_examples=400)
    @given(_VALUES)
    def test_writes_the_reference_text(self, value):
        assert specio._human_value(value) == _human_reference(value)

    def test_dual_bases(self):
        bases = [s.basis for s in load_spec(fixture("example_6_3.json")).fusion_frame().subspaces]
        bases.append(np.zeros((3, 0)))
        assert specio._human_value(bases) == _human_reference(bases)


def _problem(complex_field: bool) -> dict:
    """A small valid file with every list the reader checks: subspaces of
    dimensions 1 and 2 in R^2 or C^2, local frames, and a dual section
    with a Q grid.  Complex entries are [re, im] pairs."""
    def entries(rows):
        return [[[x, 0.0] for x in row] for row in rows] if complex_field else rows

    spans = [[[1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]
    data = {"field": "complex" if complex_field else "real", "dimension": 2,
            "subspaces": [{"spanning_vectors": entries(rows)} for rows in spans],
            "weights": [1.0, 2.0],
            "local_frames": [entries(rows) for rows in spans],
            "dual": {"subspaces": [{"spanning_vectors": entries(rows)} for rows in spans],
                     "q_blocks": [[entries([[1.0]]), entries([[0.0, 0.0]])],
                                  [entries([[0.0], [0.0]]),
                                   entries([[1.0, 0.0], [0.0, 1.0]])]]}}
    # The round trip gives every list its own copy, as a decoded file has.
    return json.loads(json.dumps(data))


def _setter(*path):
    """A corruption that stores ``value`` at ``path`` in a decoded file."""
    def corrupt(value):
        def apply(data):
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        return apply
    return corrupt


_SPAN = _setter("subspaces", 1, "spanning_vectors", 1, 0)
_LOCAL = _setter("local_frames", 1, 0, 1)
_DUAL_SPAN = _setter("dual", "subspaces", 0, "spanning_vectors", 0, 0)
_Q = _setter("dual", "q_blocks", 1, 1, 0, 1)
_BIG = 10 ** 400

# (id, field, corruption, exception class, message).  Each input has one
# error, except the "first-of-two" cases, which pin which error is found
# first.
PARSE_ERRORS = [
    ("real-bool", "real", _SPAN(True), ParseError,
     "subspaces[1][1]: real entries must be plain numbers"),
    ("real-string", "real", _SPAN("1"), ParseError,
     "subspaces[1][1]: real entries must be plain numbers"),
    ("real-pair", "real", _SPAN([1.0, 0.0]), ParseError,
     "subspaces[1][1]: real entries must be plain numbers"),
    ("real-nan", "real", _SPAN(math.nan), InvalidSpec, "subspaces[1]: entries must be finite"),
    ("real-inf", "real", _SPAN(-math.inf), InvalidSpec, "subspaces[1]: entries must be finite"),
    ("real-huge", "real", _SPAN(_BIG), InvalidSpec, "subspaces[1][1]: entries must be finite"),
    ("real-local-bool", "real", _LOCAL(False), ParseError,
     "local_frames[1][0]: real entries must be plain numbers"),
    ("real-local-nan", "real", _LOCAL(math.nan), InvalidSpec,
     "local_frames[1]: entries must be finite"),
    ("real-local-huge", "real", _LOCAL(-_BIG), InvalidSpec,
     "local_frames[1][0]: entries must be finite"),
    ("real-dual-string", "real", _DUAL_SPAN("x"), ParseError,
     "dual.subspaces[0][0]: real entries must be plain numbers"),
    ("real-dual-inf", "real", _DUAL_SPAN(math.inf), InvalidSpec,
     "dual.subspaces[0]: entries must be finite"),
    ("real-q-bool", "real", _Q(True), ParseError,
     "dual.q_blocks[1][1][0]: real entries must be plain numbers"),
    ("real-q-nan", "real", _Q(math.nan), InvalidSpec,
     "dual.q_blocks[1][1]: entries must be finite"),
    ("real-q-huge", "real", _Q(_BIG), InvalidSpec,
     "dual.q_blocks[1][1][0]: entries must be finite"),
    ("complex-bool", "complex", _SPAN(True), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-string", "complex", _SPAN("1"), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-bool-in-pair", "complex", _SPAN([0.0, True]), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-string-in-pair", "complex", _SPAN(["1", 0.0]), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-nan", "complex", _SPAN(math.nan), InvalidSpec,
     "subspaces[1]: entries must be finite"),
    ("complex-nan-in-pair", "complex", _SPAN([0.0, math.nan]), InvalidSpec,
     "subspaces[1]: entries must be finite"),
    ("complex-inf-in-pair", "complex", _SPAN([math.inf, 0.0]), InvalidSpec,
     "subspaces[1]: entries must be finite"),
    ("complex-huge", "complex", _SPAN(_BIG), InvalidSpec,
     "subspaces[1][1]: entries must be finite"),
    ("complex-huge-in-pair", "complex", _SPAN([0.0, _BIG]), InvalidSpec,
     "subspaces[1][1]: entries must be finite"),
    ("complex-short-pair", "complex", _SPAN([1.0]), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-long-pair", "complex", _SPAN([1.0, 2.0, 3.0]), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-nested-pair", "complex", _SPAN([[1.0], 0.0]), ParseError,
     "subspaces[1][1]: complex entries must be numbers or [re, im] pairs"),
    ("complex-local-nan", "complex", _LOCAL([math.nan, 0.0]), InvalidSpec,
     "local_frames[1]: entries must be finite"),
    ("complex-q-pair", "complex", _Q([1.0]), ParseError,
     "dual.q_blocks[1][1][0]: complex entries must be numbers or [re, im] pairs"),
    ("complex-q-huge", "complex", _Q([_BIG, 0.0]), InvalidSpec,
     "dual.q_blocks[1][1][0]: entries must be finite"),
    ("short-row", "real", _setter("subspaces", 1, "spanning_vectors", 1)([1.0]),
     ParseError, "subspaces[1][1]: expected a vector of length 2"),
    ("long-row", "real", _setter("subspaces", 0, "spanning_vectors", 0)([1.0, 0.0, 0.0]),
     ParseError, "subspaces[0][0]: expected a vector of length 2"),
    ("number-row", "real", _setter("subspaces", 1, "spanning_vectors", 0)(1.0),
     ParseError, "subspaces[1][0]: expected a vector of length 2"),
    ("empty-rows", "real", _setter("subspaces", 1, "spanning_vectors")([]),
     ParseError, "subspaces[1]: expected a non-empty list of vectors"),
    ("number-rows", "complex", _setter("subspaces", 0, "spanning_vectors")(1.0),
     ParseError, "subspaces[0]: expected a non-empty list of vectors"),
    ("no-spanning-vectors", "real", _setter("subspaces", 1)({"vectors": [[1.0, 0.0]]}),
     ParseError, "subspaces[1] must be an object with spanning_vectors"),
    ("local-short-row", "complex", _setter("local_frames", 1, 1)([[1.0, 0.0]]),
     ParseError, "local_frames[1][1]: expected a vector of length 2"),
    ("local-empty", "real", _setter("local_frames", 0)([]),
     ParseError, "local_frames[0]: expected a non-empty list of vectors"),
    ("weight-bool", "real", _setter("weights", 0)(True), ParseError, "weights must be numbers"),
    ("weight-string", "real", _setter("weights", 1)("2"), ParseError,
     "weights must be numbers"),
    ("weight-negative", "real", _setter("weights", 1)(-2.0), InvalidSpec,
     "weights must be positive and finite"),
    ("weight-zero", "complex", _setter("weights", 0)(0), InvalidSpec,
     "weights must be positive and finite"),
    ("weight-nan", "real", _setter("weights", 0)(math.nan), InvalidSpec,
     "weights must be positive and finite"),
    ("weight-huge", "real", _setter("weights", 0)(_BIG), InvalidSpec,
     "weights must be positive and finite"),
    ("dual-weight-inf", "real", _setter("dual", "weights")([1.0, math.inf]), InvalidSpec,
     "dual.weights must be positive and finite"),
    ("q-grid-number", "real", _setter("dual", "q_blocks")(5), ParseError,
     "dual.q_blocks must be a grid of matrices"),
    ("q-grid-row", "real", _setter("dual", "q_blocks", 1)(5), ParseError,
     "dual.q_blocks must be a grid of matrices"),
    ("q-block-number", "real", _setter("dual", "q_blocks", 0, 1)(5), ParseError,
     "dual.q_blocks[0][1] must be a matrix"),
    ("q-block-vector", "complex", _setter("dual", "q_blocks", 1, 0)([[0.0, 0.0], 0.0]),
     ParseError, "dual.q_blocks[1][0] must be a matrix"),
    ("q-block-ragged", "real", _setter("dual", "q_blocks", 1, 1, 1)([0.0]), ParseError,
     "dual.q_blocks[1][1][1]: expected a vector of length 2"),
    ("q-block-wrong-width", "real", _setter("dual", "q_blocks", 0, 1)([[0.0]]), InvalidSpec,
     "dual.q_blocks do not match the frames: block (0,1) has shape (1, 1), expected (1, 2)"),
    ("q-block-wrong-height", "complex",
     _setter("dual", "q_blocks", 1, 0)([[[0.0, 0.0]]]), InvalidSpec,
     "dual.q_blocks do not match the frames: block (1,0) has shape (1, 1), expected (2, 1)"),
    ("q-block-empty", "real", _setter("dual", "q_blocks", 0, 0)([]), InvalidSpec,
     "dual.q_blocks do not match the frames: block (0,0) has shape (0, 0), expected (1, 1)"),
    ("q-grid-short", "real", _setter("dual", "q_blocks")([[[[1.0]], [[0.0, 0.0]]]]),
     InvalidSpec, "dual.q_blocks do not match the frames: block grid has wrong number of rows"),
    ("first-of-two-rows", "real",
     lambda d: (_setter("subspaces", 1, "spanning_vectors", 0, 0)(math.nan)(d),
                _setter("subspaces", 1, "spanning_vectors", 1, 1)("1")(d)),
     ParseError, "subspaces[1][1]: real entries must be plain numbers"),
    ("first-of-two-matrices", "real",
     lambda d: (_SPAN(math.nan)(d), _setter("subspaces", 0, "spanning_vectors")(5)(d)),
     ParseError, "subspaces[0]: expected a non-empty list of vectors"),
    ("first-of-two-entries", "real",
     lambda d: (_SPAN(True)(d), _setter("subspaces", 0)(7)(d)),
     ParseError, "subspaces[0] must be an object with spanning_vectors"),
    ("first-of-two-lists", "complex",
     lambda d: (_Q(math.nan)(d), _LOCAL(True)(d)),
     ParseError, "local_frames[1][0]: complex entries must be numbers or [re, im] pairs"),
]


def _read(data) -> None:
    """Parse ``data`` and build every operator the file defines, as
    ``verify-dual`` does."""
    spec = parse_spec(data)
    if spec.dual is not None and spec.dual.q_blocks is not None:
        spec.dual_q(spec.fusion_frame(), spec.dual_fusion_frame())


class TestParseErrors:
    """The exact first error the reader reports for a malformed file."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_valid_problem_reads(self, complex_field):
        _read(_problem(complex_field))

    @pytest.mark.parametrize("field, corrupt, error, message",
                             [case[1:] for case in PARSE_ERRORS],
                             ids=[case[0] for case in PARSE_ERRORS])
    def test_error_class_and_message(self, field, corrupt, error, message):
        data = _problem(field == "complex")
        corrupt(data)
        with pytest.raises((ParseError, InvalidSpec)) as caught:
            _read(data)
        assert (type(caught.value), str(caught.value)) == (error, message)

    @pytest.mark.parametrize("case", PARSE_ERRORS[::9], ids=[c[0] for c in PARSE_ERRORS[::9]])
    def test_cli_exit_2_with_the_message(self, capsys, tmp_path, case):
        _, field, corrupt, _, message = case
        data = _problem(field == "complex")
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["verify-dual", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_verify_dual_q_block_shapes(self, capsys, tmp_path):
        # Both subspaces of example 6.3 are planes, so every block is 2 x 2.
        with open(fixture("example_6_3.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        path = tmp_path / "dual.json"
        zero = [[0.0, 0.0], [0.0, 0.0]]
        data["dual"] = {"subspaces": data["subspaces"],
                        "q_blocks": [[[[1.0]], zero], [zero, zero]]}
        path.write_text(json.dumps(data))
        assert main(["verify-dual", str(path)]) == 2
        assert "block (0,0) has shape (1, 1), expected (2, 2)" in capsys.readouterr().err
        # The same grid with the right shapes is read, and fails certification.
        data["dual"]["q_blocks"][0][0] = zero
        path.write_text(json.dumps(data))
        assert main(["verify-dual", str(path)]) == 3

    @pytest.mark.parametrize("weights", [["1"], ["1", "-1"], ["1", "nan"], ["1", "inf"]])
    def test_canonical_dual_bad_weights_exit_2(self, capsys, weights):
        code = main(["canonical-dual", fixture("example_6_3.json"), "--weights", *weights])
        assert code == 2
        assert "--weights must be 2 positive finite numbers, one each" in capsys.readouterr().err

    def test_human_report_ignores_numpy_print_options(self, capsys):
        assert main(["canonical-dual", fixture("example_6_2.json")]) == 0
        plain = capsys.readouterr().out
        with np.printoptions(precision=2):
            assert main(["canonical-dual", fixture("example_6_2.json")]) == 0
        assert capsys.readouterr().out == plain
        assert "0.707107+0j" in plain

    def test_canonical_dual_custom_weights(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["canonical-dual", fixture("example_6_3.json"), "--weights", "1", "2",
                     "--json", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["payload"]["dual_weights"] == [1.0, 2.0]

    def test_json_booleans(self, capsys, tmp_path):
        out_path = tmp_path / "analyze.json"
        assert main(["analyze", fixture("orthonormal_basis.json"), "--json", str(out_path)]) == 0
        flags = json.loads(out_path.read_text())["payload"]["classification"]
        assert flags["is_orthonormal_basis"] is True
        assert flags["is_overcomplete"] is False
        out_path = tmp_path / "optimal.json"
        assert main(["optimal", fixture("example_6_2.json"), "--p", "inf",
                     "--json", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["payload"]["solver"]["polished"] is True

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_verify_dual_fusion_frame_mode(self, capsys, tmp_path, complex_field):
        # The dual takes the primal's weights (1, 2) and subspaces, and
        # Q = diag(0, I/4): block 2 spans the plane, so 2 * 2 * B_2 Q_22 B_2* = I.
        data = _problem(complex_field)
        _setter("dual", "q_blocks", 0, 0, 0, 0)(0.0)(data)
        for k in (0, 1):
            _setter("dual", "q_blocks", 1, 1, k, k)(0.25)(data)
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(data))
        out_path = tmp_path / "report.json"
        assert main(["verify-dual", str(path), "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())["payload"]
        assert payload["mode"] == "fusion-frame"
        assert payload["residual"]["value"] <= 1e-15
        assert payload["q_classification"] == "block_diagonal"
        capsys.readouterr()
        _Q(0.01)(data)
        path.write_text(json.dumps(data))
        assert main(["verify-dual", str(path)]) == 3
        assert "error: certification failed" in capsys.readouterr().err

    def test_canonical_dual_below_the_achievable_residual_exits_3(self, capsys):
        assert main(["canonical-dual", fixture("example_6_4.json"), "--tol", "1e-15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: certification failed: reconstruction residual ")
        assert captured.err.endswith(" exceeds tol 1.0e-15\n")

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

    @pytest.mark.parametrize("corrupt, where", [
        (lambda dual: dual.__setitem__("subspaces", 5), "dual.subspaces"),
        (lambda dual: dual.__setitem__("subspaces", []), "dual.subspaces"),
        (lambda dual: dual["subspaces"].pop(), "dual.subspaces"),
        (lambda dual: dual["weights"].pop(), "dual.weights"),
        (lambda dual: dual["local_frames"].append(dual["local_frames"][0]),
         "dual.local_frames"),
    ], ids=["subspaces-number", "subspaces-empty", "subspaces-short", "weights-short",
            "local-frames-long"])
    def test_malformed_dual_section_exit_2(self, capsys, tmp_path, corrupt, where):
        with open(fixture("example_6_2.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        corrupt(data["dual"])
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(data))
        assert main(["verify-dual", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where} must list one ")

    @pytest.mark.parametrize("command, where", [("analyze", "subspaces[1]"),
                                                ("verify-dual", "dual.subspaces[0]")])
    def test_zero_spanning_set_exit_2(self, capsys, tmp_path, command, where):
        with open(fixture("example_6_3.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        zero = {"spanning_vectors": [[0.0, 0.0, 0.0]]}
        if command == "analyze":
            data["subspaces"][1] = zero
        else:
            data["dual"] = {"subspaces": [zero, data["subspaces"][1]]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 2
        assert f"error: {where}: spanning set is numerically zero" in capsys.readouterr().err

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

    def test_local_optimal_worst_case_trajectory(self, capsys, tmp_path):
        # Pins the solver's path: a change that moves the reweighting
        # iterates on Example 6.4 changes the iteration count.  The polished
        # point's KKT weights close the gap to rounding.
        out_path = tmp_path / "r.json"
        assert main(["local-optimal", fixture("example_6_4.json"), "--p", "inf",
                     "--r", "1", "--json", str(out_path)]) == 0
        solver = json.loads(out_path.read_text())["payload"]["solver"]
        assert solver["iterations"] == 48
        assert abs(solver["gap"]) <= 1e-15
        expected = 1.6756255452680608
        assert abs(solver["objective"] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("p", ["2", "inf"])
    @pytest.mark.parametrize("command", ["optimal", "local-optimal"])
    def test_optimal_exit_codes(self, capsys, command, p, name):
        # Every fixture is a fusion frame.  orthonormal_basis.json has no
        # local frames, and the local vectors of examples 6.2 and 6.4 are
        # not unit vectors, which the local mean-square optimum requires.
        expected = 0
        if command == "local-optimal" and name == "orthonormal_basis.json":
            expected = 2
        elif command == "local-optimal" and p == "2" and name in ("example_6_2.json",
                                                                  "example_6_4.json"):
            expected = 3
        assert main([command, fixture(name), "--p", p]) == expected
        if expected == 3:
            assert "non-unit vectors" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_local_optimal_non_spanning_exit_3(self, capsys, tmp_path, p):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({
            "dimension": 3, "field": "real", "weights": [1.0, 1.0],
            "subspaces": [{"spanning_vectors": [[1.0, 0.0, 0.0]]},
                          {"spanning_vectors": [[0.0, 1.0, 0.0]]}],
            "local_frames": [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]}))
        assert main(["local-optimal", str(path), "--p", p]) == 3
        assert capsys.readouterr().err == "error: subspaces do not span the ambient space\n"

    @pytest.mark.parametrize("p", ["2", "inf"])
    @pytest.mark.parametrize("command, groups", [("optimal", 2), ("local-optimal", 6)])
    def test_r_out_of_range_exit_2_before_the_solve(self, capsys, monkeypatch,
                                                    command, groups, p):
        # example_6_3 has 2 blocks and 6 local vectors.
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran before --r was checked")

        monkeypatch.setattr(erasures, "minimize_max_group_norms", solver_must_not_run)
        for r in (0, -1, groups + 1):
            assert main([command, fixture("example_6_3.json"), "--p", p,
                         "--r", str(r)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --r must lie in 1..{groups}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--p", "2", "--r", "2", "--samples", "-4"], "--samples must be an integer >= 1, got -4"),
        (["--p", "2", "--samples", "0"], "--samples must be an integer >= 1, got 0"),
        (["--p", "inf", "--max-iters", "-3", "--no-polish"],
         "--max-iters must be an integer >= 1, got -3"),
        (["--p", "inf", "--max-iters", "0"], "--max-iters must be an integer >= 1, got 0"),
        (["--p", "inf", "--patience", "0"], "--patience must be an integer >= 1, got 0"),
        (["--p", "inf", "--patience", "-1"], "--patience must be an integer >= 1, got -1"),
        (["--p", "inf", "--step-scale", "nan"], "--step-scale must be a finite number > 0, got nan"),
        (["--p", "inf", "--step-scale", "inf"], "--step-scale must be a finite number > 0, got inf"),
        (["--p", "inf", "--step-scale", "0"], "--step-scale must be a finite number > 0, got 0.0"),
        (["--p", "inf", "--step-scale", "-0.1"],
         "--step-scale must be a finite number > 0, got -0.1"),
        (["--p", "inf", "--r", "2", "--samples", "0"], "--samples must be an integer >= 1, got 0"),
    ])
    @pytest.mark.parametrize("command", ["optimal", "local-optimal"])
    def test_bad_solver_flag_exit_2_before_the_solve(self, capsys, monkeypatch, command,
                                                    flags, message):
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran before its flags were checked")

        monkeypatch.setattr(erasures, "minimize_max_group_norms", solver_must_not_run)
        assert main([command, fixture("example_6_3.json"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @staticmethod
    def _lines_file(tmp_path, m=24):
        """m random lines in R^3, each with its unit vector as local frame."""
        vectors = np.random.default_rng(5).normal(size=(m, 3))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        data = {"field": "real", "dimension": 3,
                "subspaces": [{"spanning_vectors": [v]} for v in vectors.tolist()],
                "weights": [1.0] * m, "local_frames": [[v] for v in vectors.tolist()]}
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", ["optimal", "local-optimal"])
    def test_inf_levels_beyond_the_enumeration_cap_exit_2_before_the_solve(
            self, capsys, monkeypatch, tmp_path, command):
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran before the levels were checked")

        monkeypatch.setattr(erasures, "minimize_max_group_norms", solver_must_not_run)
        assert main([command, self._lines_file(tmp_path), "--p", "inf", "--r", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 1307504 patterns of size 9 exceed the exact "
                                "enumeration cap (1000000); lower r or the number of blocks\n")

    def test_p2_lists_every_level_beyond_the_enumeration_cap(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["optimal", self._lines_file(tmp_path), "--p", "2", "--r", "12",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert sorted(map(int, payload["aggregate_by_r"])) == list(range(1, 13))

    @staticmethod
    def _hierarchy_json_for_samples(tmp_path, command, name, p):
        """The ``--json`` of ``--r 2`` at ``--samples`` 1 and 50, which must agree."""
        reports = []
        for samples in ("1", "50"):
            out = tmp_path / f"samples-{samples}.json"
            assert main([command, fixture(name), "--p", p, "--r", "2",
                         "--samples", samples, "--json", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        return reports[0]

    @pytest.mark.parametrize("command, name", [("optimal", name) for name in FIXTURES]
                             + [("local-optimal", "example_6_3.json")])
    def test_p2_hierarchy_does_not_depend_on_samples(self, capsys, tmp_path, command, name):
        report = self._hierarchy_json_for_samples(tmp_path, command, name, "2")
        assert b"theorem-backed" in report

    @pytest.mark.parametrize("command, name", [("optimal", name) for name in FIXTURES]
                             + [("local-optimal", "example_6_3.json")])
    def test_p_inf_hierarchy_does_not_depend_on_samples(self, capsys, tmp_path, command,
                                                        name):
        report = self._hierarchy_json_for_samples(tmp_path, command, name, "inf")
        assert b"against the mean-square optimum" in report

    def test_p_inf_hierarchy_exits_3_when_the_optimum_wins_in_hierarchy_order(
            self, capsys, tmp_path):
        # The mean-square optimum ties the worst-case dual system at levels 1
        # and 2 and beats it at level 3.
        ws = random_system(np.random.default_rng(36), 3, 3)
        data = {"field": "real", "dimension": 3,
                "subspaces": [{"spanning_vectors": s.basis.T.tolist()}
                              for s in ws.ff.subspaces],
                "weights": ws.ff.weights.tolist(),
                "local_frames": [f.vectors.tolist() for f in ws.local_frames]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        assert main(["local-optimal", str(path), "--p", "inf", "--r", "2"]) == 0
        capsys.readouterr()
        assert main(["local-optimal", str(path), "--p", "inf", "--r", "3"]) == 3
        assert capsys.readouterr().err == (
            "error: the mean-square optimum beat the optimizer at level 3; "
            "hierarchy verification failed\n")

    def test_smallest_solver_flags_are_accepted(self, capsys):
        assert main(["optimal", fixture("example_6_3.json"), "--p", "2", "--r", "2",
                     "--samples", "1"]) == 0
        assert main(["optimal", fixture("example_6_2.json"), "--p", "inf", "--max-iters", "1",
                     "--patience", "1", "--step-scale", "1e-300"]) == 0

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, monkeypatch, tmp_path):
        builds = []

        def counted_build():
            builds.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._parser.cache_clear()
        try:
            # example_6_3 has weights 1 and 2; --weights and --json of the
            # first call must not carry over to the second.
            report = tmp_path / "report.json"
            assert main(["canonical-dual", fixture("example_6_3.json"), "--weights", "3", "4",
                         "--json", str(report)]) == 0
            assert json.loads(report.read_text())["payload"]["dual_weights"] == [3.0, 4.0]
            report.unlink()
            assert main(["canonical-dual", fixture("example_6_3.json")]) == 0
            assert not report.exists()
            out = capsys.readouterr().out.split("command: ")
            assert "dual_weights: [3, 4]" in out[1]
            assert "dual_weights: [1, 2]" in out[2]

            assert main(["verify-dual", fixture("example_6_2.json"), "--tol", "1e-3"]) == 0
            assert "<= 1.000e-03" in capsys.readouterr().out
            monkeypatch.setenv("FF_TOL", "1e-5")
            assert main(["verify-dual", fixture("example_6_2.json")]) == 0
            out = capsys.readouterr().out
            assert "<= 1.000e-05" in out and "1.000e-03" not in out
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()

    def test_reproduce_all_ids(self, capsys):
        for example_id in ["6.2a", "6.2b", "6.3a", "6.3c", "6.3d", "6.4"]:
            assert main(["reproduce", example_id]) == 0

    def test_nonconvergence_exit_code(self, capsys):
        # Example 6.4 takes 62 reweighting iterations to close the gap
        # without the polish.
        code = main(["optimal", fixture("example_6_4.json"), "--p", "inf",
                     "--r", "1", "--max-iters", "5", "--no-polish"])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: solver did not converge: certified gap ")

    def test_no_polish_certifies_example_6_3(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        assert main(["optimal", fixture("example_6_3.json"), "--p", "inf", "--r", "1",
                     "--no-polish", "--json", str(out_path)]) == 0
        solver = json.loads(out_path.read_text())["payload"]["solver"]
        assert solver["polished"] is False
        assert abs(solver["gap"]) <= 1e-10
        assert abs(solver["objective"] - math.sqrt(1.25)) <= 1e-12

    @pytest.mark.parametrize("command, name, iterations", [
        ("optimal", "example_6_2.json", 1),
        ("optimal", "example_6_4.json", 28),
        ("optimal", "example_6_3.json", 1),
        ("local-optimal", "example_6_2.json", 13),
        ("local-optimal", "example_6_4.json", 48),
        ("local-optimal", "example_6_3.json", 56),
    ])
    def test_worst_case_subgradient_path_is_pinned(self, capsys, command, name, iterations):
        # Reweighting iterations and certified gap at the default solver
        # settings: a change to the iteration or the hand-over to the polish
        # shows here.
        assert main([command, fixture(name), "--p", "inf", "--r", "1"]) == 0
        found = re.findall(r"certified gap (\S+) after (\d+) reweighting iterations",
                           capsys.readouterr().out)
        assert [count for _, count in found] == [str(iterations)]
        assert abs(float(found[0][0])) <= 1e-15

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

    def test_no_scipy_until_a_polish(self):
        # Importing the package and every run that never polishes load
        # numpy only; scipy is imported by the worst-case polish alone.
        src = os.path.dirname(os.path.dirname(fusionframes.__file__))
        script = f"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

import fusionframes
import fusionframes.cli
from fusionframes.reproduce import fixture_path
runs = [[command, name] + flags
        for name in {FIXTURES!r}
        for command, flags in [("analyze", []), ("canonical-dual", []),
                               ("optimal", ["--p", "2", "--r", "1"]),
                               ("optimal", ["--p", "inf", "--r", "1", "--no-polish"])]]
runs.append(["verify-dual", "example_6_2.json"])
rows = [["import", 0, scipy_modules()]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = fusionframes.cli.main([argv[0], str(fixture_path(argv[1]))] + argv[2:])
    rows.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(rows))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert len(rows) == 2 + 4 * len(FIXTURES)
        # Rows are [run, exit code, scipy modules]: every run succeeds, the
        # worst-case runs without the polish included.
        assert [row for row in rows if row[1] or row[2]] == []

    @pytest.fixture
    def bad_dual(self, tmp_path) -> str:
        # Example 6.3 with Q = [[I, 0], [0, 0]]: it parses, and its
        # reconstruction residual is 1, so only a tolerance >= 1 passes it.
        with open(fixture("example_6_3.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
        data["dual"] = {"subspaces": data["subspaces"], "q_blocks": [[eye, zero], [zero, zero]]}
        path = tmp_path / "bad_dual.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "1e400"])
    @pytest.mark.parametrize("source", ["--tol", "FF_TOL"])
    def test_bad_tolerance_exit_2(self, capsys, monkeypatch, bad_dual, source, value):
        argv = ["verify-dual", bad_dual]
        if source == "FF_TOL":
            monkeypatch.setenv("FF_TOL", value)
        else:
            argv += ["--tol", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source} must be a finite number >= 0, got {value!r}\n"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1"])
    def test_bad_solver_tolerance_exit_2(self, capsys, value):
        code = main(["optimal", fixture("example_6_3.json"), "--p", "inf",
                     "--solver-tol", value])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --solver-tol must be a finite number >= 0, got {value!r}\n")

    @pytest.mark.parametrize("argv", [["reproduce", "6.2a"],
                                      ["analyze", fixture("example_6_3.json")]])
    def test_bad_ff_tol_exits_2_for_every_command(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("FF_TOL", "abc")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: FF_TOL must be a finite number >= 0, got 'abc'\n"

    def test_tol_flag_overrides_a_bad_ff_tol(self, monkeypatch, capsys):
        # FF_TOL is only the default of --tol, so an explicit flag wins.
        monkeypatch.setenv("FF_TOL", "abc")
        assert main(["verify-dual", fixture("example_6_2.json"), "--tol", "1e-9"]) == 0

    @pytest.mark.parametrize("value", ["1e-9", "0"])
    def test_valid_tolerance_still_fails_a_bad_dual(self, capsys, bad_dual, value):
        # 0 is a valid tolerance: it passes only an exactly zero residual.
        assert main(["verify-dual", bad_dual, "--tol", value]) == 3
        assert "error: certification failed" in capsys.readouterr().err

    def test_ff_tol_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FF_TOL", "1e-3")
        code = main(["verify-dual", fixture("example_6_2.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.000e-03" in out
