"""Spans around the library's public functions, from outside the library.

``Tracer.install()`` wraps every public function and method of the
layer modules at every place it is bound: ``from .linalg import
orthonormalize`` copies the function into the importing module, so the
defining module is patched together with every ``fusionframes`` module
that holds the same object under some name.  ``uninstall()`` puts the
originals back, so traced and untraced calls can alternate.

Spans are kept in memory (name, start, end, parent, op, stage) and
written out by ``dump``.  Self time is a span's duration minus the part
of it that its child spans cover.  Each span carries one of the stage
names parse, build, dual, solve, tables, emit: entry points set it and
everything they call inherits it.

Per-layer metrics are per op, and the end-to-end figure each should move
(run.py prints all of them; setup_s, attempted_ops_per_s and peak_rss_mb
carry bounds):

- linalg.*: op time on mse_tables (frobenius_norm once per pattern) and
  on cli_files (orthonormalize at parse time).
- fusion.*, frames.*: op time on cli_files; synthesis_matrix_calls per
  op counts recomputation.
- blockop.*: op time and peak RSS on the small-block half of cli_files;
  zero_blocks_built is the waste a thin block view removes.
- duality.*, systems.*: op time on cli_files, a little on worst_case.
- minimax.*: throughput, tail and failures on worst_case only.
- erasures.*: throughput, op time and peak RSS on mse_tables, slightly
  on worst_case.
- specio.*, cli.*: op time and throughput on cli_files only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from array import array
from collections import defaultdict

PACKAGE = "fusionframes"
LAYERS = ("linalg", "frames", "fusion", "blockop", "duality", "systems",
          "minimax", "erasures", "specio", "cli")
STAGES = ("parse", "build", "dual", "solve", "tables", "emit")

#: Functions that start a stage; every span below them inherits it.
STAGE_OF = {
    "specio.load_spec": "parse",
    "specio.parse_spec": "parse",
    "specio.InputSpec.fusion_frame": "build",
    "specio.InputSpec.system": "build",
    "specio.InputSpec.dual_fusion_frame": "build",
    "specio.InputSpec.dual_system": "build",
    "specio.InputSpec.dual_q": "build",
    "duality.canonical_dual": "dual",
    "duality.is_q_dual": "dual",
    "systems.is_dual_system": "dual",
    "erasures.mse_optimal_dual": "dual",
    "erasures.local_mse_optimal_system": "dual",
    "erasures.worst_case_optimal_dual": "solve",
    "erasures.local_worst_case_optimal_system": "solve",
    "minimax.minimize_max_group_norms": "solve",
    "erasures.error_vector": "tables",
    "erasures.local_error_vector": "tables",
    "erasures.hierarchical_optimal": "tables",
    "specio.Report.to_json": "emit",
    "specio.Report.human": "emit",
}
ROOT_STAGE = "build"

CERTIFY = ("duality.is_q_dual", "duality.q_dual_residual")
ENUMERATE = ("erasures.error_vector", "erasures.local_error_vector")
EMIT = ("specio.Report.to_json", "specio.Report.human")
POLISH = "minimax.scipy_minimize"


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children = [[] for _ in starts]
    for k, p in enumerate(parents):
        if p >= 0:
            children[p].append(k)
    out = []
    for k, kids in enumerate(children):
        lo, hi = starts[k], ends[k]
        covered, run_lo, run_hi = 0.0, None, None
        for c in sorted(kids, key=starts.__getitem__):
            c_lo, c_hi = max(starts[c], lo), min(ends[c], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is not None and c_lo <= run_hi:
                run_hi = max(run_hi, c_hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = c_lo, c_hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """In-memory span recorder plus counters read from call results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.stage_ids = array("b")
        self.counters = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._plan: list[tuple] = []        # (owner, attr, original, wrapped)

    # -- recording --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        explicit = STAGES.index(STAGE_OF[name]) if name in STAGE_OF else -1
        root = STAGES.index(ROOT_STAGE)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if explicit >= 0:
                stage = explicit
            else:
                stage = tracer.stage_ids[parent] if parent >= 0 else root
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(parent)
            tracer.ops.append(tracer.op)
            tracer.stage_ids.append(stage)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        """Put the wrappers in place; the first call builds them."""
        if not self._plan:
            self._build_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self):
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                           for info in pkgutil.iter_modules(pkg.__path__)]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj, HOOKS.get(f"{layer}.{attr}"))
                    for other in modules:
                        for name, val in list(vars(other).items()):
                            if val is obj:
                                self._plan.append((other, name, obj, wrapped))
                elif inspect.isclass(obj):
                    self._plan_class(layer, obj)
        minimax = importlib.import_module(f"{PACKAGE}.minimax")
        original = minimax._scipy_minimize
        self._plan.append((minimax, "_scipy_minimize", original,
                           self._wrap(POLISH, original, HOOKS[POLISH])))

    def _plan_class(self, layer, cls):
        # vars(), not getattr(): a classmethod must be restored as the descriptor.
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(val, (classmethod, staticmethod)):
                wrapped = type(val)(self._wrap(name, val.__func__, hook))
            elif inspect.isfunction(val):
                wrapped = self._wrap(name, val, hook)
            else:
                continue
            self._plan.append((cls, attr, val, wrapped))

    # -- results ------------------------------------------------------------------

    def summary(self, ops: int):
        """Per-layer metrics per op, with the counters the hooks kept, and
        the self time of each stage per op."""
        n = len(self.starts)
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_name_time = defaultdict(float)
        by_stage = defaultdict(float)
        by_name_count = defaultdict(int)
        for k in range(n):
            name = self.names[self.name_ids[k]]
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += selfs[k]
            by_stage[STAGES[self.stage_ids[k]]] += selfs[k]
            by_name_count[name] += 1
            parent = self.parents[k]
            nested = parent >= 0 and self.names[self.name_ids[parent]] in CERTIFY
            if not (name in CERTIFY and nested):
                by_name_time[name] += self.ends[k] - self.starts[k]
        c = self.counters
        ops = max(ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
            out[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
        enum_s = sum(by_name_time[k] for k in ENUMERATE)
        out.update({
            "fusion.synthesis_matrix_calls": (
                by_name_count["fusion.FusionFrame.synthesis_matrix"] / ops, "count/op"),
            "blockop.blocks_built": (c["blocks"] / ops, "count/op"),
            "blockop.zero_blocks_built": (c["zero_blocks"] / ops, "count/op"),
            "duality.certify_s": (sum(by_name_time[k] for k in CERTIFY) / ops, "s/op"),
            "minimax.iterations": (c["iterations"] / ops, "count/op"),
            "minimax.polish_s": (by_name_time[POLISH] / ops, "s/op"),
            "minimax.polish_nit": (c["polish_nit"] / ops, "count/op"),
            "minimax.polished_frac": (
                c["polished"] / c["minimax_results"] if c["minimax_results"] else 0.0, "ratio"),
            "erasures.patterns": (c["patterns"] / ops, "count/op"),
            "erasures.enum_s": (enum_s / ops, "s/op"),
            "erasures.patterns_per_s": (c["patterns"] / enum_s if enum_s else 0.0, "1/s"),
            "specio.parse_s": (by_name_time["specio.load_spec"] / ops, "s/op"),
            "specio.emit_s": (sum(by_name_time[k] for k in EMIT) / ops, "s/op"),
            "specio.bytes_in": (c["bytes_in"] / ops, "B/op"),
            "specio.bytes_out": (c["bytes_out"] / ops, "B/op"),
        })
        stages = {s: by_stage[s] / ops for s in STAGES}
        return out, stages

    def dump(self, path):
        """Write a JSON header (name and stage tables), then one line per
        span: name id, parent index, op index, stage id, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "stages": list(STAGES)}) + "\n")
            for k in range(len(self.starts)):
                handle.write("%d %d %d %d %.9f %.9f\n" % (
                    self.name_ids[k], self.parents[k], self.ops[k], self.stage_ids[k],
                    self.starts[k], self.ends[k]))


# -- hooks: counters read from arguments and results ------------------------------

def _count_patterns(counters, args, result):
    counters["patterns"] += len(result)


def _count_blocks(counters, args, result):
    op = args[0]
    for row in op.blocks:
        counters["blocks"] += len(row)
        counters["zero_blocks"] += sum(1 for b in row if b.size and not b.any())


def _count_minimax(counters, args, result):
    counters["minimax_results"] += 1
    counters["iterations"] += result.iterations
    counters["polished"] += bool(result.polished)


def _count_polish(counters, args, result):
    counters["polish_nit"] += int(getattr(result, "nit", 0))


def _count_bytes_in(counters, args, result):
    counters["bytes_in"] += os.path.getsize(args[0])


def _count_bytes_out(counters, args, result):
    counters["bytes_out"] += len(result.encode("utf-8"))


HOOKS = {
    "erasures.error_vector": _count_patterns,
    "erasures.local_error_vector": _count_patterns,
    "blockop.BlockOp.__post_init__": _count_blocks,
    "minimax.minimize_max_group_norms": _count_minimax,
    POLISH: _count_polish,
    "specio.load_spec": _count_bytes_in,
    "specio.Report.to_json": _count_bytes_out,
    "specio.Report.human": _count_bytes_out,
}
