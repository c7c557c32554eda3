"""Command-line surface: stable JSON/DOT formats over the library modules.

All JSON output is canonical, the text of ``json.dumps(obj, sort_keys=True,
indent=2)`` and a newline, and versioned with a "schema": "tog/1" field, so
identical inputs and configuration yield byte-identical artifacts.
``_emit_json`` writes every document but the ``rcs expand`` artifact, which
``PartialUnion.write_canonical`` streams in the same layout without building
it whole. ``schemas/tog-1.json`` describes the structure of every output.
Exit codes: 0 success, 1 validation failure (with a machine-readable
violation list on stdout), 2 resource cap exceeded, 141 (128 + SIGPIPE)
stdout closed by its reader before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .multigraph import Multigraph, SurgeryError, components, dot_quote, is_two_connected
# each subcommand imports the other tog modules it runs, so a process loads only those


@dataclass
class Config:
    resolution: int = 2
    depth: int = 2
    root: int = 0
    cap: int = 10000
    emit: str = "json"

    def __post_init__(self):
        if self.resolution < 1:
            raise SurgeryError("resolution must be at least 1")
        if self.depth < 0:
            raise SurgeryError("depth must be nonnegative")


class _Failure(Exception):
    def __init__(self, code: int, violations: list[str]):
        super().__init__("; ".join(violations))
        self.code = code
        self.violations = violations


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise _Failure(1, [f"MalformedInput: {ex}"])
    if not isinstance(data, dict):
        raise _Failure(1, [f"MalformedInput: expected a JSON object, got {type(data).__name__}"])
    return data


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as ex:
        raise _Failure(1, [f"MalformedInput: bad fraction {s!r}: {ex}"])


def _decode(parse, path: str):
    """The document at path, decoded by parse; bad input is a MalformedInput failure."""
    data = _load_json(path)
    try:
        return parse(data)
    except (SurgeryError, LookupError, TypeError, ValueError) as ex:
        raise _Failure(1, [f"MalformedInput: {ex}"])


def _cmd_graph(args) -> int:
    g = _decode(Multigraph.from_json_dict, args.input)
    if args.emit == "dot":
        print(g.to_dot())
        return 0
    _emit_json(
        {
            "schema": "tog/1",
            "graph": g.to_json_dict(),
            "vertex_count": len(g.vertices),
            "edge_count": len(g.edges),
            "component_count": len(components(g)),
            "two_connected": is_two_connected(g),
        }
    )
    return 0


def _cmd_twin_decompose(args) -> int:
    from .twin_theta import theta_sum_decomposition

    g = _decode(Multigraph.from_json_dict, args.input)
    tree = theta_sum_decomposition(g)
    _emit_json(tree.to_json_dict())
    return 0


def _cmd_whitehead(args) -> int:
    from . import words_whitehead as ww

    raw_words = [w for w in args.words.split(",") if w]
    labels = (
        [s for s in args.labels.split(",")] if args.labels else list(raw_words)
    )
    if len(labels) != len(raw_words):
        raise _Failure(1, ["MalformedInput: labels/words length mismatch"])
    words = [ww.cyclically_reduce(w, lab) for w, lab in zip(raw_words, labels)]
    if args.multiplicities:
        try:
            mults = [int(s) for s in args.multiplicities.split(",")]
        except ValueError as ex:
            raise _Failure(1, [f"MalformedInput: bad multiplicity: {ex}"])
        if len(mults) != len(words):
            raise _Failure(1, ["MalformedInput: multiplicities/words length mismatch"])
        specs = [ww.PeripheralSpec(w, n) for w, n in zip(words, mults)]
        W, vsys = ww.extended_whitehead_graph(args.rank, specs)
        labels_out = {e: list(W.edge_labels[e]) for e in W.graph.edge_ids()}
    else:
        W = ww.whitehead_graph(args.rank, words)
        vsys = ww.whitehead_v_involution(W)
        labels_out = {e: W.edge_labels[e] for e in W.graph.edge_ids()}
    if args.emit == "dot":
        edge_attrs = {e: f"label={dot_quote(f'{e}:{lab}')}" for e, lab in W.edge_labels.items()}
        print(W.graph.to_dot(edge_attrs=edge_attrs))
        return 0
    _emit_json(
        {
            "schema": "tog/1",
            "graph": W.graph.to_json_dict(),
            "edge_labels": labels_out,
            "vsystem": vsys.to_json_dict(),
            "two_connected": is_two_connected(W.graph),
        }
    )
    return 0


def _cmd_vsystem(args) -> int:
    from . import vsystem

    vs = _decode(vsystem.ConnectingVSystem.from_json_dict, args.input)
    violations = vsystem.validate(vs)
    if violations:
        raise _Failure(1, violations)
    _emit_json(vsystem.lines_report(vs))
    return 0


def _cmd_rcs(args) -> int:
    """Dispatch an rcs subcommand; rcs errors become violation documents."""
    from . import rcs as _rcs

    if args.rcs_command == "validate":
        sys_ = _decode(_rcs.GraphicalConnectingSystem.from_json_dict, args.input)
        violations = _rcs.validate(sys_)
        _emit_json({"schema": "tog/1", "violations": violations})
        return 0 if not violations else 1
    cfg = Config(args.resolution, args.depth, args.root, args.cap, getattr(args, "emit", "json"))
    try:
        if args.rcs_command == "expand":
            return _cmd_rcs_expand(args, cfg)
        return _cmd_rcs_analyze(args, cfg)
    except _rcs.InvalidSystem as ex:
        raise _Failure(1, ex.violations)
    except _rcs.ResourceCapExceeded as ex:
        raise _Failure(2, [f"ResourceCapExceeded: {ex}"])


def _expansion_dot(pu) -> str:
    prov_v, prov_e = pu.provenance()
    vertex_attrs = {v: 'kind="surgery"' for v in pu.vertices}
    vertex_attrs.update(
        (v, f"node={dot_quote(n)}, cell={dot_quote(c)}") for v, (n, c) in prov_v.items()
    )
    edge_attrs = {
        e: f"label={dot_quote(e)}, node={dot_quote(n)}, cell={dot_quote(c)}, "
        f"interval={dot_quote(f'{lo}:{hi}')}"
        for e, (n, c, lo, hi) in prov_e.items()
    }
    return pu.graph.to_dot("expansion", vertex_attrs, edge_attrs)


def _cmd_rcs_expand(args, cfg: Config) -> int:
    from . import rcs as _rcs

    sys_ = _decode(_rcs.GraphicalConnectingSystem.from_json_dict, args.input)
    pu = _rcs.expand(
        sys_, root=cfg.root, depth=cfg.depth, resolution=cfg.resolution, cap=cfg.cap
    )
    if cfg.emit == "dot":
        print(_expansion_dot(pu))
    else:
        pu.write_canonical(sys.stdout.write)
        sys.stdout.write("\n")
    return 0


def _cmd_rcs_analyze(args, cfg: Config) -> int:
    from . import rcs as _rcs

    if args.pair_position is not None and not args.pair_cell:
        raise _Failure(1, ["MalformedInput: --pair-position needs --pair-cell"])
    sys_ = _decode(_rcs.GraphicalConnectingSystem.from_json_dict, args.input)
    # expansion is level-synchronous, so each depth extends the previous one
    pus = [_rcs.init(sys_, cfg.root, cfg.resolution, cfg.cap)]
    for d in range(1, cfg.depth + 1):
        pus.append(_rcs.expand_to_depth(pus[-1], d))
    locus = ("n", args.cell)
    if args.position is not None:
        locus = ("n", args.cell, _parse_fraction(args.position))
    pair = None
    if args.pair_cell:
        pair = ("n", args.pair_cell)
        if args.pair_position is not None:
            pair = ("n", args.pair_cell, _parse_fraction(args.pair_position))
    trace = _rcs.analyze_point(pus, locus, pair_with=pair)
    entries = []
    for depth, e in enumerate(trace.entries):
        rec = {
            "depth": depth,
            "degree": e["degree"],
            "target": [str(x) for x in e["target"]],
        }
        if "pair_components" in e:
            rec["pair_components"] = e["pair_components"]
        entries.append(rec)
    _emit_json({"schema": "tog/1", "locus": [str(x) for x in locus], "trace": entries})
    return 0


def _cmd_jsj_synth(args) -> int:
    if not (args.golden or args.input):  # before paying for the frontend's imports
        raise _Failure(1, ["MalformedInput: provide an input file or --golden"])
    from . import jsj_frontend as _jsj

    if args.golden:
        inp = _jsj.golden_g2() if args.golden == "g2" else _jsj.golden_racg1()
    else:
        inp = _decode(_jsj.JsjInput.from_json_dict, args.input)
    sys_, ledger = _jsj.synthesize(inp)
    _emit_json(
        {
            "schema": "tog/1",
            "system": sys_.to_json_dict(),
            "ledger": ledger.to_json_dict(),
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tog", description="Finite calculus of trees of graphs"
    )
    sub = p.add_subparsers(dest="command", required=True)

    gp = sub.add_parser("graph", help="inspect a graph JSON file")
    gp.add_argument("input", help="graph JSON path or - for stdin")
    gp.add_argument("--emit", choices=["json", "dot"], default="json")

    tp = sub.add_parser("twin-decompose", help="decompose a twin graph into theta summands")
    tp.add_argument("input")

    wp = sub.add_parser("whitehead", help="Whitehead graph of cyclic words")
    wp.add_argument("--rank", type=int, required=True)
    wp.add_argument("--words", required=True, help="comma-separated words; uppercase = inverse")
    wp.add_argument("--labels", help="comma-separated labels (default: the words)")
    wp.add_argument("--multiplicities", help="comma-separated n >= 2 per word; builds the extended graph")
    wp.add_argument("--emit", choices=["json", "dot"], default="json")

    vp = sub.add_parser("vsystem", help="lines report of a connecting V-system")
    vp.add_argument("input")

    rp = sub.add_parser("rcs", help="graphical connecting systems")
    rsub = rp.add_subparsers(dest="rcs_command", required=True)
    rv = rsub.add_parser("validate")
    rv.add_argument("input")
    re_ = rsub.add_parser("expand")
    re_.add_argument("input")
    ra = rsub.add_parser("analyze")
    ra.add_argument("input")
    ra.add_argument("--cell", required=True, help="root-component cell to track")
    ra.add_argument("--position", help="interior position as a fraction, e.g. 1/5")
    ra.add_argument("--pair-cell", help="second tracked cell for complement counts")
    ra.add_argument("--pair-position")
    for q in (re_, ra):
        q.add_argument("--depth", type=int, default=2)
        q.add_argument("--resolution", type=int, default=2)
        q.add_argument("--root", type=int, default=0)
        q.add_argument("--cap", type=int, default=10000)
    re_.add_argument("--emit", choices=["json", "dot"], default="json")

    jp = sub.add_parser("jsj", help="reduced JSJ frontend")
    jsub = jp.add_subparsers(dest="jsj_command", required=True)
    js = jsub.add_parser("synth")
    js.add_argument("input", nargs="?")
    js.add_argument("--golden", choices=["g2", "racg1"])
    return p


_COMMANDS = {
    "graph": _cmd_graph,
    "twin-decompose": _cmd_twin_decompose,
    "whitehead": _cmd_whitehead,
    "vsystem": _cmd_vsystem,
    "rcs": _cmd_rcs,
    "jsj": _cmd_jsj_synth,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = _COMMANDS[args.command](args)
        except _Failure as ex:
            _emit_json({"schema": "tog/1", "violations": ex.violations})
            code = ex.code
        except SurgeryError as ex:
            _emit_json({"schema": "tog/1", "violations": [f"{type(ex).__name__}: {ex}"]})
            code = 1
        sys.stdout.flush()  # a reader that is gone raises here, not at exit
        return code
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
