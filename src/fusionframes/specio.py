"""JSON input files and structured reports for the CLI.

Input schema (all vectors are rows; complex entries are [re, im] pairs):

    {
      "field": "real" | "complex",
      "dimension": d,
      "subspaces": [ {"spanning_vectors": [[...], ...]}, ... ],
      "weights": [w_1, ..., w_m],
      "local_frames": [[[...], ...], ...],          // optional, one per subspace
      "dual": {                                      // optional
        "subspaces": [...], "weights": [...],        // optional
        "q_blocks": [[block, ...], ...],             // row-major grid, optional
        "local_frames": [...]                        // optional
      }
    }

A dual (V, v) of (W, w) has the index set of W, so the dual section is
read by the top-level rules: each list it gives has one entry per primal
subspace, and its weights default to the primal weights.

Reports serialize deterministically (sorted keys, repr floats), so
identical inputs and flags produce byte-identical JSON.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from .blockop import BlockOp
from .errors import InvalidSpec, ParseError, ShapeMismatch, ZeroSubspace
from .frames import Frame
from .fusion import FusionFrame
from .linalg import orthonormalize_many
from .systems import FusionFrameSystem


#: JSON numbers decode to exactly these types; a set of entry types that
#: is a subset of this one also refuses booleans, a subclass of int.
_NUMBER_TYPES = frozenset((int, float))


def _read_matrix(raw, width: int, complex_field: bool, where: str) -> np.ndarray:
    """A non-empty list of rows of ``width`` entries, as one array.

    Entries are plain numbers, or in a complex field also [re, im] pairs.

    Raises:
        ParseError: a row or an entry has the wrong shape or type.
        InvalidSpec: an entry is not finite.
    """
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{where}: expected a non-empty list of vectors")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"{where}[{i}]: expected a vector of length {width}")
        if complex_field:
            row = [x if type(x) is list and len(x) == 2 else (x, 0) for x in row]
            types = set(map(type, chain.from_iterable(row)))
        else:
            types = set(map(type, row))
        if not types <= _NUMBER_TYPES:
            kind = ("complex entries must be numbers or [re, im] pairs" if complex_field
                    else "real entries must be plain numbers")
            raise ParseError(f"{where}[{i}]: {kind}")
        if int in types:
            try:
                np.array(row, dtype=float)
            except OverflowError as exc:
                raise InvalidSpec(f"{where}[{i}]: entries must be finite") from exc
        rows.append(row)
    mat = np.array(rows, dtype=float)
    if complex_field:
        # Each (re, im) pair of float64 is one complex128, signed zeros included.
        mat = mat.reshape(len(rows), width, 2).view(complex)[..., 0]
    if not np.isfinite(mat).all():
        raise InvalidSpec(f"{where}: entries must be finite")
    return mat


def _read_matrices(raws: list, width: Optional[int], complex_field: bool) -> Optional[list]:
    """Every matrix of ``raws`` read in one pass, or None.

    Reads ``raws[k]`` as ``_read_matrix`` reads it at width ``width``, or
    at the length of its first row when ``width`` is None, with one type
    check over all entries, one conversion and one finiteness test; each
    matrix is a view of the one converted array.  Returns None, without
    raising, when the pass does not take some matrix: a bad one, or one
    outside its fast case, such as complex rows that mix numbers and
    pairs.  The caller then reads the list with ``_read_matrix``, one
    matrix at a time, which raises the first error in file order.
    """
    if set(map(type, raws)) != {list} or not all(raws):
        return None
    rows = list(chain.from_iterable(raws))
    if set(map(type, rows)) != {list}:
        return None
    counts = list(map(len, raws))
    widths = [len(raw[0]) for raw in raws] if width is None else [width] * len(raws)
    if not np.array_equal(np.fromiter(map(len, rows), int, len(rows)),
                          np.repeat(widths, counts)):
        return None
    entries = list(chain.from_iterable(rows))
    types = set(map(type, entries))
    pairs = complex_field and types == {list}
    if pairs:
        if set(map(len, entries)) != {2}:
            return None
        entries = list(chain.from_iterable(entries))
        types = set(map(type, entries))
    if not types <= _NUMBER_TYPES:
        return None
    try:
        flat = np.array(entries, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(flat).all():
        return None
    if pairs:
        flat = flat.view(complex)
    elif complex_field:
        flat = flat.astype(complex)
    sizes = [n * w for n, w in zip(counts, widths)]
    return [flat[end - size:end].reshape(n, w)
            for end, size, n, w in zip(accumulate(sizes), sizes, counts, widths)]


def _parse_weights(raw, where: str) -> list:
    if any(type(w) not in _NUMBER_TYPES for w in raw):
        raise ParseError(f"{where} must be numbers")
    try:
        weights = [float(w) for w in raw]
    except OverflowError as exc:
        raise InvalidSpec(f"{where} must be positive and finite") from exc
    if any(not math.isfinite(w) or w <= 0 for w in weights):
        raise InvalidSpec(f"{where} must be positive and finite")
    return weights


def _entries(raw: dict, key: str, count: Optional[int], noun: str, where: str) -> list:
    """``raw[key]`` as a non-empty list, of ``count`` entries unless None."""
    items = raw.get(key)
    if not isinstance(items, list) or not items or count not in (None, len(items)):
        if count is None:
            raise ParseError(f"{where}{key} must be a non-empty list")
        raise ParseError(f"{where}{key} must list one {noun} per subspace")
    return items


def _read_section(raw: dict, dim: int, complex_field: bool, where: str = "",
                  count: Optional[int] = None) -> tuple:
    """The subspaces, weights and local frames of one section of a file.

    The top level (``count`` None) must give subspaces and weights.  The
    ``dual`` section (``where="dual."``) is indexed by the ``count`` primal
    subspaces, so each list it gives has ``count`` entries; it may omit
    any of them.  Returns (subspaces, weights, local_frames), with None for
    an omitted list.
    """
    primal = count is None
    subs = weights = local_frames = None
    if primal or "subspaces" in raw:
        entries = _entries(raw, "subspaces", count, "spanning set", where)
        subs = _read_matrices([entry.get("spanning_vectors") if isinstance(entry, dict)
                               else None for entry in entries], dim, complex_field)
        if subs is None:
            subs = []
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict) or "spanning_vectors" not in entry:
                    raise ParseError(
                        f"{where}subspaces[{i}] must be an object with spanning_vectors")
                subs.append(_read_matrix(entry["spanning_vectors"], dim, complex_field,
                                         f"{where}subspaces[{i}]"))
        count = len(subs)
    if primal or "weights" in raw:
        weights = _parse_weights(_entries(raw, "weights", count, "positive number", where),
                                 f"{where}weights")
    if "local_frames" in raw:
        entries = _entries(raw, "local_frames", count, "frame", where)
        local_frames = _read_matrices(entries, dim, complex_field) or [
            _read_matrix(entry, dim, complex_field, f"{where}local_frames[{i}]")
            for i, entry in enumerate(entries)]
    return subs, weights, local_frames


def _read_q_blocks(grid, complex_field: bool) -> list:
    """The ``dual.q_blocks`` grid; an empty block reads as a 0 x 0 matrix."""
    if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
        raise ParseError("dual.q_blocks must be a grid of matrices")
    # An empty block is a 0 x 0 matrix; the pass reads every other one.
    filled = [blk for row in grid for blk in row if type(blk) is not list or blk]
    mats = _read_matrices(filled, None, complex_field)
    if mats is None:
        mats = []
        for j, row in enumerate(grid):
            for i, blk in enumerate(row):
                where = f"dual.q_blocks[{j}][{i}]"
                if not isinstance(blk, list) or not all(isinstance(r, list) for r in blk):
                    raise ParseError(f"{where} must be a matrix")
                if blk:
                    mats.append(_read_matrix(blk, len(blk[0]), complex_field, where))
    mats = iter(mats)
    dtype = complex if complex_field else float
    return [[next(mats) if blk else np.zeros((0, 0), dtype=dtype) for blk in row]
            for row in grid]


def _fusion_frame(subspaces, weights, where: str) -> FusionFrame:
    """The fusion frame spanned by the row matrices ``subspaces``.

    Raises:
        InvalidSpec: a spanning set is numerically zero; the message names
            it by its place in the input file.
    """
    try:
        subs = orthonormalize_many([np.asarray(rows).T for rows in subspaces])
    except ZeroSubspace as exc:
        raise InvalidSpec(f"{where}[{exc.index}]: {exc}") from exc
    return FusionFrame(tuple(subs), np.asarray(weights, dtype=float))


@dataclass(frozen=True)
class InputSpec:
    """Parsed problem description; arrays already in numpy form.

    ``dual`` is the dual section, read by the same rules as the top level
    into a spec of its own with the same field and dimension.  In it,
    ``subspaces`` and ``weights`` are None where the file omits them (the
    weights then default to the primal's), and only it may set
    ``q_blocks``, a row-major grid of matrices.  ``digest`` is the sha256
    of the file's bytes when ``load_spec`` read the spec from a file.
    """

    field_name: str
    dimension: int
    subspaces: Optional[list] = field(repr=False)   # row matrices (spanning vectors)
    weights: Optional[list] = None
    local_frames: Optional[list] = None             # row matrices, one per subspace
    dual: Optional["InputSpec"] = None
    q_blocks: Optional[list] = None
    digest: Optional[str] = field(default=None, repr=False, compare=False)

    # -- construction of domain objects ----------------------------------------

    def _required(self, path: str):
        """The part of the file at ``path`` (such as ``"dual.q_blocks"``);
        InvalidSpec if the file omits it."""
        value = self
        for name in path.split("."):
            value = getattr(value, name)
            if value is None:
                raise InvalidSpec(f"input has no {path} section")
        return value

    def fusion_frame(self) -> FusionFrame:
        return _fusion_frame(self.subspaces, self.weights, "subspaces")

    def system(self) -> FusionFrameSystem:
        frames = tuple(Frame(rows) for rows in self._required("local_frames"))
        return FusionFrameSystem(self.fusion_frame(), frames)

    def dual_fusion_frame(self) -> FusionFrame:
        subspaces = self._required("dual.subspaces")
        weights = self.weights if self.dual.weights is None else self.dual.weights
        return _fusion_frame(subspaces, weights, "dual.subspaces")

    def dual_system(self) -> FusionFrameSystem:
        frames = tuple(Frame(rows) for rows in self._required("dual.local_frames"))
        return FusionFrameSystem(self.dual_fusion_frame(), frames)

    def dual_q(self, primal: FusionFrame, dual: FusionFrame) -> BlockOp:
        try:
            return BlockOp(dual.dims, primal.dims, self._required("dual.q_blocks"))
        except ShapeMismatch as exc:
            raise InvalidSpec(f"dual.q_blocks do not match the frames: {exc}") from exc

    # -- serialization ----------------------------------------------------------

    def _section_json(self) -> dict:
        lists = {"subspaces": None if self.subspaces is None
                 else [{"spanning_vectors": rows} for rows in self.subspaces],
                 "weights": self.weights, "local_frames": self.local_frames,
                 "q_blocks": self.q_blocks}
        return {key: value for key, value in lists.items() if value is not None}

    def to_json_dict(self) -> dict:
        """The file as a dict, matrices as arrays, as ``dumps_spec`` writes it."""
        out = {"field": self.field_name, "dimension": self.dimension, **self._section_json()}
        if self.dual is not None:
            out["dual"] = self.dual._section_json()
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
    subs, weights, local_frames = _read_section(data, dim, cf)
    dual = None
    if "dual" in data:
        raw_dual = data["dual"]
        if not isinstance(raw_dual, dict):
            raise ParseError("dual must be an object")
        section = _read_section(raw_dual, dim, cf, "dual.", len(subs))
        q_blocks = (_read_q_blocks(raw_dual["q_blocks"], cf)
                    if "q_blocks" in raw_dual else None)
        dual = InputSpec(field_name, dim, *section, q_blocks=q_blocks)
    return InputSpec(field_name, dim, subs, weights, local_frames, dual)


def load_spec(path) -> InputSpec:
    """The spec in the file at ``path``, which is read once: its bytes are
    hashed into ``digest`` and decoded as UTF-8 JSON.

    The decoder builds only acyclic lists and dicts, so the cyclic
    collector, whose passes would only re-traverse the growing tree, is
    paused while it runs and left as it was found.

    Raises:
        ParseError: the file cannot be read, is not UTF-8 or is not JSON,
            nested too deep to decode included.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    collecting = gc.isenabled()
    gc.disable()
    try:
        # Decoded as open() in text mode decodes, universal newlines included.
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    return replace(parse_spec(data), digest=hashlib.sha256(raw).hexdigest())


def dumps_spec(spec: InputSpec) -> str:
    return _dumps(spec.to_json_dict())


#: The bundled worked examples that ``ff reproduce`` reruns: id -> (the
#: fixture it reads, the function of :mod:`fusionframes.reproduce` that fills
#: its report).  They are listed here, apart from the examples, so that the
#: CLI checks an id without importing them.
EXAMPLES = {
    "6.2a": ("example_6_2.json", "_riesz_basis_dual"),
    "6.2b": ("example_6_2.json", "_non_projective_canonical_dual"),
    "6.3a": ("example_6_3.json", "_left_inverse_closed_forms"),
    "6.3b": ("example_6_3.json", "_optimal_duals"),
    "6.3c": ("example_6_3.json", "_local_mse_system"),
    "6.3d": ("example_6_3.json", "_projective_system"),
    "6.4": ("example_6_4.json", "_local_worst_case_system"),
}

#: Short ids the CLI also accepts, each naming one example.
EXAMPLE_ALIASES = {"6.2": "6.2a", "6.3": "6.3b"}


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
            "payload": self.payload,
            "checks": [c.as_dict() for c in self.checks],
            "ok": self.ok,
        }
        return _dumps(body)

    def human(self) -> str:
        lines = [f"command: {self.command}", f"input: {self.input_digest[:16]}"]
        for key, value in self.payload.items():
            lines.append(f"{key}: {_human_value(value)}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.value:.6e} {c.comparison} {c.tol:.3e}")
        lines.append("result: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def _dumps(value, level: int = 0) -> str:
    """``value`` as JSON text, indented by two spaces, with sorted keys;
    ``level`` is its nesting depth inside the text being written.

    The text is what ``json.dumps(..., indent=2, sort_keys=True)`` writes
    for the JSON form of ``value``: dict keys become strings; tuples and
    arrays become lists, a complex number an [re, im] pair; numpy scalars
    become Python numbers; a float that is not finite becomes the string
    of its repr ("nan", "inf", "-inf"), except inside a complex scalar,
    which keeps JSON's NaN and Infinity; any other object becomes its
    str().
    """
    if isinstance(value, np.ndarray):
        return _write_array(value, level)
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        return _join([f"{json.dumps(k)}: {_dumps(v, level + 1)}" for k, v in items],
                     level, "{}")
    if isinstance(value, (list, tuple)):
        return _join([_dumps(v, level + 1) for v in value], level)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return float.__repr__(v) if math.isfinite(v) else json.dumps(repr(v))
    if isinstance(value, (np.complexfloating, complex)):
        return _join([json.dumps(float(np.real(value))), json.dumps(float(np.imag(value)))],
                     level)
    # bool before int: bool is a subclass of int.
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (np.integer, int)):
        return int.__repr__(int(value))
    if value is None:
        return "null"
    return json.dumps(value if isinstance(value, str) else str(value))


def _write_array(a: np.ndarray, level: int) -> str:
    """An array as nested lists; a finite float64 or complex128 array is
    formatted in one pass, any other one through its ``tolist()``."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), -1)
    if type(a) is not np.ndarray or a.dtype != np.float64 or not np.isfinite(a).all():
        return _dumps(a.tolist(), level)

    def delimiters(depth):
        inner = "\n" + "  " * (level + depth + 1)
        return "[" + inner, "," + inner, "\n" + "  " * (level + depth) + "]"
    return _nest(list(map(float.__repr__, a.ravel().tolist())), a.shape, delimiters)


def _nest(items: list, shape: tuple, delimiters) -> str:
    """The written entries ``items`` of an array of ``shape``, in C order,
    as nested lists.  ``delimiters(depth)`` gives the head, separator and
    tail of a non-empty list at ``depth``, once per depth; an empty list
    is ``[]``."""
    for depth in range(len(shape) - 1, -1, -1):
        n = shape[depth]
        if n == 0:
            items = ["[]"] * math.prod(shape[:depth])
        else:
            head, sep, tail = delimiters(depth)
            items = [head + sep.join(items[k:k + n]) + tail
                     for k in range(0, len(items), n)]
    return items[0]


def _join(items: list, level: int, brackets: str = "[]") -> str:
    """A JSON list (or, with ``brackets`` "{}", object) of the written
    ``items``, nested ``level`` deep."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _human_value(value) -> str:
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return _nest([f"{v:.6g}" for v in value.ravel().tolist()], value.shape,
                         lambda depth: ("[", ", ", "]"))
        value = value.tolist()
    if isinstance(value, (float, complex)):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_human_value(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_human_value(v) for v in value) + "]"
    return str(value)
