"""Spans recorded from outside the program, and the per-layer metrics.

``install`` wraps the public functions of each ``tog`` layer, and ``json``
as seen by ``tog.cli``, wherever a ``tog`` module holds a reference to them,
so calls between layers are caught too. Nothing in ``src/`` changes. A span
is recorded only inside an operation; set-up and checks run untraced.
Spans live in memory and are written out by ``Tracer.dump`` at the end.
"""

from __future__ import annotations

import gc
import statistics
import sys
import types
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) of the function to wrap; "Class.method"
# attributes wrap a method on the class itself
TARGETS = {
    "cli.main": [("tog.cli", "main")],
    "serialize.from_json_dict": [
        ("tog.multigraph", "Multigraph.from_json_dict"),
        ("tog.rcs", "GraphicalConnectingSystem.from_json_dict"),
        ("tog.vsystem", "ConnectingVSystem.from_json_dict"),
        ("tog.jsj_frontend", "JsjInput.from_json_dict"),
    ],
    "serialize.to_json_dict": [
        ("tog.multigraph", "Multigraph.to_json_dict"),
        ("tog.rcs", "PartialUnion.to_json_dict"),
        ("tog.rcs", "GraphicalConnectingSystem.to_json_dict"),
        ("tog.twin_theta", "ThetaSumTree.to_json_dict"),
        ("tog.vsystem", "ConnectingVSystem.to_json_dict"),
        ("tog.jsj_frontend", "BlockLedger.to_json_dict"),
    ],
    "rcs.validate": [("tog.rcs", "validate")],
    "rcs.init": [("tog.rcs", "init")],
    "rcs.expand": [("tog.rcs", "expand")],
    "rcs.expand_to_depth": [("tog.rcs", "expand_to_depth")],
    "rcs.project": [("tog.rcs", "project")],
    "rcs.compose_cell_maps": [("tog.rcs", "compose_cell_maps")],
    "rcs.analyze_point": [("tog.rcs", "analyze_point")],
    "multigraph.is_two_connected": [("tog.multigraph", "is_two_connected")],
    "multigraph.complement_components": [("tog.multigraph", "complement_components")],
    "multigraph.components": [("tog.multigraph", "components")],
    "twin_theta.is_twin_graph": [("tog.twin_theta", "is_twin_graph")],
    "twin_theta.theta_sum_decomposition": [("tog.twin_theta", "theta_sum_decomposition")],
    "twin_theta.replay": [("tog.twin_theta", "ThetaSumTree.replay")],
    "words_whitehead.whitehead_graph": [("tog.words_whitehead", "whitehead_graph")],
    "words_whitehead.extended_whitehead_graph": [
        ("tog.words_whitehead", "extended_whitehead_graph")
    ],
    "words_whitehead.whitehead_v_involution": [
        ("tog.words_whitehead", "whitehead_v_involution")
    ],
    "vsystem.validate": [("tog.vsystem", "validate")],
    "vsystem.lines_report": [("tog.vsystem", "lines_report")],
    "jsj_frontend.synthesize": [("tog.jsj_frontend", "synthesize")],
}

TOG_MODULES = [
    "tog.multigraph",
    "tog.vsystem",
    "tog.words_whitehead",
    "tog.twin_theta",
    "tog.rcs",
    "tog.jsj_frontend",
    "tog.cli",
]

LAYERS = [
    "cli",
    "serialize",
    "rcs",
    "multigraph",
    "twin_theta",
    "words_whitehead",
    "vsystem",
    "jsj_frontend",
]


def _pu_counts(args, kwargs, result) -> dict:
    return {"copies": len(result.nodes), "vertices": len(result.vertices), "edges": len(result.edges)}


def _graph_edges(args, kwargs, result) -> dict:
    return {"edges": len(args[0].edges)}


def _summands(args, kwargs, result) -> dict:
    return {"summands": len(result.summands)}


def _dumped_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}  # ensure_ascii output: one byte per character


# counts taken from a span's arguments or result where the work happens
COUNTERS = {
    "rcs.expand_to_depth": _pu_counts,
    "multigraph.is_two_connected": _graph_edges,
    "twin_theta.theta_sum_decomposition": _summands,
    "serialize.dumps": _dumped_bytes,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.gc: dict[int, list[float]] = defaultdict(list)
        self._gc_start = 0.0

    def call(self, name, fn, args, kwargs):
        if self.op_id is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[5] = counter(args, kwargs, result)
        return result

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans.append(["op", perf_counter(), 0.0, -1, op_id, None])
        self.stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.spans[idx][2] = perf_counter()
        self.op_id = None

    def _on_gc(self, phase, info):
        if self.op_id is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc[self.op_id].append(perf_counter() - self._gc_start)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")


def _wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target, in its home module and wherever it is imported."""
    mods = [sys.modules[m] for m in TOG_MODULES]
    for name, targets in TARGETS.items():
        for modname, attr in targets:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(_wrapper(tracer, name, raw.__func__)))
                else:
                    setattr(cls, meth, _wrapper(tracer, name, raw))
                continue
            fn = getattr(home, attr)
            wrapped = _wrapper(tracer, name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
    # tog.cli reaches json through its module attribute
    cli = sys.modules["tog.cli"]
    real = cli.json
    cli.json = types.SimpleNamespace(
        load=_wrapper(tracer, "serialize.load", real.load),
        dumps=_wrapper(tracer, "serialize.dumps", real.dumps),
        JSONDecodeError=real.JSONDecodeError,
    )
    gc.callbacks.append(tracer._on_gc)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, first_round_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Timings (``*_s``) are per-operation medians of self time, over the
    operations in which the span occurs. Rates divide a count by the summed
    inclusive time of the span that did the work. Exact counters are totals
    over the first round of operations, which every run completes.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_by_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    incl: dict[str, float] = defaultdict(float)
    calls_first: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts_first: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    op_wall: dict[int, float] = {}
    final_copies: dict[int, int] = defaultdict(int)
    final_ve: dict[int, tuple[int, int]] = {}
    for i, (name, t0, t1, parent, op, cnt) in enumerate(spans):
        dur = t1 - t0
        if name == "op":
            op_wall[op] = dur
        self_by_op[op][name] += dur - child_time[i]
        if parent < 0 or spans[parent][0] != name:  # nested same-name spans count once
            incl[name] += dur
        if op in first_round_ops:
            calls_first[name] += 1
        if cnt:
            for k, v in cnt.items():
                counts[name][k] += v
                if op in first_round_ops:
                    counts_first[name][k] += v
            if name == "rcs.expand_to_depth" and cnt["copies"] >= final_copies[op]:
                final_copies[op] = cnt["copies"]
                final_ve[op] = (cnt["vertices"], cnt["edges"])

    def self_s(name: str) -> float:
        return _median([d[name] for d in self_by_op.values() if name in d])

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for name in list(TARGETS) + ["serialize.load", "serialize.dumps"]:
        if name not in ("cli.main", "rcs.expand"):
            m[name + "_s"] = self_s(name)
    m["cli.main.self_s"] = self_s("cli.main")

    dumped = counts["serialize.dumps"]["bytes"]
    m["serialize.bytes"] = counts_first["serialize.dumps"]["bytes"]
    m["serialize.mb_per_s"] = rate(
        dumped / 1e6, incl["serialize.to_json_dict"] + incl["serialize.dumps"]
    )
    m["rcs.validate.calls"] = calls_first["rcs.validate"]
    m["rcs.expand.calls"] = calls_first["rcs.expand_to_depth"]
    first_ops = [op for op in final_copies if op in first_round_ops]
    m["rcs.copies"] = sum(final_copies[op] for op in first_ops)
    m["rcs.vertices"] = sum(final_ve[op][0] for op in first_ops)
    m["rcs.edges"] = sum(final_ve[op][1] for op in first_ops)
    m["rcs.copies_materialised"] = counts_first["rcs.expand_to_depth"]["copies"]
    materialised = counts["rcs.expand_to_depth"]["copies"]
    m["rcs.copies_useful_ratio"] = rate(sum(final_copies.values()), materialised)
    m["rcs.copies_per_s"] = rate(materialised, incl["rcs.expand_to_depth"])
    m["multigraph.is_two_connected.edges_per_s"] = rate(
        counts["multigraph.is_two_connected"]["edges"], incl["multigraph.is_two_connected"]
    )
    m["twin_theta.summands"] = counts_first["twin_theta.theta_sum_decomposition"]["summands"]
    m["twin_theta.summands_per_s"] = rate(
        counts["twin_theta.theta_sum_decomposition"]["summands"],
        incl["twin_theta.theta_sum_decomposition"],
    )
    m["runtime.gc_collections"] = _median([len(tracer.gc.get(op, ())) for op in op_wall])
    m["runtime.gc_s"] = _median([sum(tracer.gc.get(op, ())) for op in op_wall])

    total = sum(op_wall.values())
    by_layer: dict[str, float] = defaultdict(float)
    for d in self_by_op.values():
        for name, t in d.items():
            by_layer[name.split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"share.{layer}"] = rate(by_layer[layer], total)
    m["share.unattributed"] = rate(by_layer["op"], total)
    return m


# counters that must repeat exactly for the same code and seed
EXACT = [
    "cli.import_modules",
    "cli.networkx_on_import",
    "serialize.bytes",
    "rcs.validate.calls",
    "rcs.expand.calls",
    "rcs.copies",
    "rcs.vertices",
    "rcs.edges",
    "rcs.copies_materialised",
    "rcs.warnings",
    "twin_theta.summands",
]


# run in a fresh interpreter: import tog.cli and report on it
IMPORT_PROBE = """\
import json, sys, time
before = set(sys.modules)
t = time.perf_counter()
import tog.cli
dt = time.perf_counter() - t
new = set(sys.modules) - before
print(json.dumps({"import_s": dt, "modules": len(new), "networkx": int("networkx" in new)}))
"""
