"""JSON input files and structured reports for the CLI.

Input schema (all vectors are rows; complex entries are [re, im] pairs):

    {
      "field": "real" | "complex",
      "dimension": d,
      "subspaces": [ {"spanning_vectors": [[...], ...]}, ... ],
      "weights": [w_1, ..., w_m],
      "local_frames": [[[...], ...], ...],          // optional, one per subspace
      "dual": {                                      // optional
        "subspaces": [...], "weights": [...],
        "q_blocks": [[block, ...], ...],             // row-major grid, optional
        "local_frames": [...]                        // optional
      }
    }

Reports serialize deterministically (sorted keys, repr floats), so
identical inputs and flags produce byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blockop import BlockOp
from .errors import InvalidSpec, ParseError
from .frames import Frame
from .fusion import FusionFrame
from .linalg import RANK_TOL
from .systems import FusionFrameSystem


#: JSON numbers decode to exactly these types; ``type(x) in`` this set
#: also refuses booleans, which are a subclass of int.
_NUMBER_TYPES = frozenset((int, float))


def _parse_number(entry, complex_field: bool, where: str):
    if complex_field:
        if (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) in _NUMBER_TYPES and type(entry[1]) in _NUMBER_TYPES):
            return complex(entry[0], entry[1])
        if type(entry) in _NUMBER_TYPES:
            return complex(entry)
        raise ParseError(f"{where}: complex entries must be numbers or [re, im] pairs")
    if type(entry) in _NUMBER_TYPES:
        return float(entry)
    raise ParseError(f"{where}: real entries must be plain numbers")


def _parse_weights(raw, where: str) -> list:
    if not isinstance(raw, list) or any(type(w) not in _NUMBER_TYPES for w in raw):
        raise ParseError(f"{where} must be numbers")
    try:
        weights = [float(w) for w in raw]
    except OverflowError as exc:
        raise InvalidSpec(f"{where} must be positive and finite") from exc
    if any(not math.isfinite(w) or w <= 0 for w in weights):
        raise InvalidSpec(f"{where} must be positive and finite")
    return weights


def _parse_vector(entry, dim: int, complex_field: bool, where: str):
    if not isinstance(entry, list) or len(entry) != dim:
        raise ParseError(f"{where}: expected a vector of length {dim}")
    try:
        return [_parse_number(x, complex_field, where) for x in entry]
    except OverflowError as exc:
        raise InvalidSpec(f"{where}: entries must be finite") from exc


def _parse_matrix_rows(entry, dim: int, complex_field: bool, where: str):
    if not isinstance(entry, list) or not entry:
        raise ParseError(f"{where}: expected a non-empty list of vectors")
    rows = [_parse_vector(v, dim, complex_field, f"{where}[{i}]")
            for i, v in enumerate(entry)]
    mat = np.array(rows, dtype=complex if complex_field else float)
    if not np.all(np.isfinite(mat)):
        raise InvalidSpec(f"{where}: entries must be finite")
    return mat


def _emit_number(x, complex_field: bool):
    if complex_field:
        return [float(np.real(x)), float(np.imag(x))]
    return float(np.real(x))


def _emit_matrix_rows(mat, complex_field: bool):
    return [[_emit_number(x, complex_field) for x in row] for row in np.asarray(mat)]


@dataclass(frozen=True)
class DualSection:
    subspaces: Optional[list] = None           # list of row matrices
    weights: Optional[list] = None
    q_blocks: Optional[list] = None            # grid of matrices
    local_frames: Optional[list] = None        # list of row matrices


@dataclass(frozen=True)
class InputSpec:
    """Parsed problem description; arrays already in numpy form."""

    field_name: str
    dimension: int
    subspaces: list = field(repr=False)        # row matrices (spanning vectors)
    weights: list = field(default_factory=list)
    local_frames: Optional[list] = None
    dual: Optional[DualSection] = None

    # -- construction of domain objects ----------------------------------------

    def fusion_frame(self, tol: float = RANK_TOL) -> FusionFrame:
        spans = [np.asarray(rows).T for rows in self.subspaces]
        return FusionFrame.from_spanning_sets(spans, self.weights, tol)

    def system(self, tol: float = RANK_TOL) -> FusionFrameSystem:
        if self.local_frames is None:
            raise InvalidSpec("input has no local_frames section")
        ff = self.fusion_frame(tol)
        return FusionFrameSystem(ff, tuple(Frame(rows) for rows in self.local_frames))

    def dual_fusion_frame(self, tol: float = RANK_TOL) -> FusionFrame:
        if self.dual is None or self.dual.subspaces is None:
            raise InvalidSpec("input has no dual subspaces")
        weights = self.dual.weights
        if weights is None:
            weights = list(self.weights)
        spans = [np.asarray(rows).T for rows in self.dual.subspaces]
        return FusionFrame.from_spanning_sets(spans, weights, tol)

    def dual_system(self, tol: float = RANK_TOL) -> FusionFrameSystem:
        if self.dual is None or self.dual.local_frames is None:
            raise InvalidSpec("input has no dual local_frames")
        ff = self.dual_fusion_frame(tol)
        return FusionFrameSystem(ff, tuple(Frame(rows) for rows in self.dual.local_frames))

    def dual_q(self, primal: FusionFrame, dual: FusionFrame) -> BlockOp:
        if self.dual is None or self.dual.q_blocks is None:
            raise InvalidSpec("input has no dual q_blocks")
        grid = self.dual.q_blocks
        if len(grid) != dual.size or any(len(row) != primal.size for row in grid):
            raise InvalidSpec("q_blocks grid shape does not match the frames")
        return BlockOp(dual.dims, primal.dims,
                       tuple(tuple(np.asarray(b) for b in row) for row in grid))

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        cf = self.field_name == "complex"
        out: dict = {
            "field": self.field_name,
            "dimension": self.dimension,
            "subspaces": [{"spanning_vectors": _emit_matrix_rows(m, cf)}
                          for m in self.subspaces],
            "weights": [float(w) for w in self.weights],
        }
        if self.local_frames is not None:
            out["local_frames"] = [_emit_matrix_rows(m, cf) for m in self.local_frames]
        if self.dual is not None:
            dual: dict = {}
            if self.dual.subspaces is not None:
                dual["subspaces"] = [{"spanning_vectors": _emit_matrix_rows(m, cf)}
                                     for m in self.dual.subspaces]
            if self.dual.weights is not None:
                dual["weights"] = [float(w) for w in self.dual.weights]
            if self.dual.q_blocks is not None:
                dual["q_blocks"] = [[_emit_matrix_rows(b, cf) for b in row]
                                    for row in self.dual.q_blocks]
            if self.dual.local_frames is not None:
                dual["local_frames"] = [_emit_matrix_rows(m, cf)
                                        for m in self.dual.local_frames]
            out["dual"] = dual
        return out


def parse_spec(data) -> InputSpec:
    """Validate a decoded JSON object into an InputSpec."""
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    field_name = data.get("field", "real")
    if field_name not in ("real", "complex"):
        raise ParseError("field must be 'real' or 'complex'")
    cf = field_name == "complex"
    dim = data.get("dimension")
    if type(dim) is not int or dim < 1:
        raise ParseError("dimension must be a positive integer")
    raw_subs = data.get("subspaces")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise ParseError("subspaces must be a non-empty list")
    subs = []
    for i, entry in enumerate(raw_subs):
        if not isinstance(entry, dict) or "spanning_vectors" not in entry:
            raise ParseError(f"subspaces[{i}] must be an object with spanning_vectors")
        subs.append(_parse_matrix_rows(entry["spanning_vectors"], dim, cf,
                                       f"subspaces[{i}]"))
    weights = data.get("weights")
    if not isinstance(weights, list) or len(weights) != len(subs):
        raise ParseError("weights must list one positive number per subspace")
    weights = _parse_weights(weights, "weights")

    local_frames = None
    if "local_frames" in data:
        raw_locals = data["local_frames"]
        if not isinstance(raw_locals, list) or len(raw_locals) != len(subs):
            raise ParseError("local_frames must list one frame per subspace")
        local_frames = [_parse_matrix_rows(entry, dim, cf, f"local_frames[{i}]")
                        for i, entry in enumerate(raw_locals)]

    dual = None
    if "dual" in data:
        raw_dual = data["dual"]
        if not isinstance(raw_dual, dict):
            raise ParseError("dual must be an object")
        d_subs = d_weights = d_q = d_locals = None
        if "subspaces" in raw_dual:
            d_subs = []
            for i, entry in enumerate(raw_dual["subspaces"]):
                if not isinstance(entry, dict) or "spanning_vectors" not in entry:
                    raise ParseError(
                        f"dual.subspaces[{i}] must be an object with spanning_vectors")
                d_subs.append(_parse_matrix_rows(entry["spanning_vectors"], dim, cf,
                                                 f"dual.subspaces[{i}]"))
        if "weights" in raw_dual:
            d_weights = _parse_weights(raw_dual["weights"], "dual.weights")
        if "q_blocks" in raw_dual:
            grid = raw_dual["q_blocks"]
            if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
                raise ParseError("dual.q_blocks must be a grid of matrices")
            d_q = []
            for j, row in enumerate(grid):
                parsed_row = []
                for i, blk in enumerate(row):
                    if not isinstance(blk, list) or not all(isinstance(r, list) for r in blk):
                        raise ParseError(f"dual.q_blocks[{j}][{i}] must be a matrix")
                    if blk:
                        parsed_row.append(_parse_matrix_rows(
                            blk, len(blk[0]), cf, f"dual.q_blocks[{j}][{i}]"))
                    else:
                        parsed_row.append(np.zeros((0, 0),
                                                   dtype=complex if cf else float))
                d_q.append(parsed_row)
        if "local_frames" in raw_dual:
            raw_locals = raw_dual["local_frames"]
            if not isinstance(raw_locals, list) or len(raw_locals) != len(subs):
                raise ParseError("dual.local_frames must list one frame per subspace")
            d_locals = [_parse_matrix_rows(entry, dim, cf, f"dual.local_frames[{i}]")
                        for i, entry in enumerate(raw_locals)]
        dual = DualSection(d_subs, d_weights, d_q, d_locals)

    return InputSpec(field_name, dim, subs, weights, local_frames, dual)


def load_spec(path) -> InputSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_spec(data)


def dumps_spec(spec: InputSpec) -> str:
    return json.dumps(spec.to_json_dict(), indent=2, sort_keys=True)


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- reports --------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One named numeric verification with the tolerance it was held to."""

    name: str
    value: float
    tol: float
    passed: bool
    comparison: str = "<="      # value <= tol  or  value >= tol

    @classmethod
    def leq(cls, name: str, value: float, tol: float) -> "Check":
        return cls(name, float(value), float(tol), bool(value <= tol), "<=")

    @classmethod
    def geq(cls, name: str, value: float, tol: float) -> "Check":
        return cls(name, float(value), float(tol), bool(value >= tol), ">=")

    @classmethod
    def boolean(cls, name: str, flag: bool) -> "Check":
        return cls(name, 1.0 if flag else 0.0, 1.0, bool(flag), ">=")

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "tol": self.tol,
                "passed": self.passed, "comparison": self.comparison}


@dataclass
class Report:
    """Machine- and human-readable outcome of one CLI command."""

    command: str
    input_digest: str
    payload: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "input_digest": self.input_digest,
            "payload": _jsonable(self.payload),
            "checks": [c.as_dict() for c in self.checks],
            "ok": self.ok,
        }
        return json.dumps(body, indent=2, sort_keys=True)

    def human(self) -> str:
        lines = [f"command: {self.command}", f"input: {self.input_digest[:16]}"]
        for key, value in self.payload.items():
            lines.append(f"{key}: {_human_value(value)}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.value:.6e} {c.comparison} {c.tol:.3e}")
        lines.append("result: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _jsonable([[complex(x) for x in row] for row in np.atleast_2d(value)])
        return _jsonable(value.tolist())
    if isinstance(value, (bool, str)) or value is None:
        return value
    return str(value)


def _human_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_human_value(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_human_value(v) for v in value) + "]"
    return str(value)
