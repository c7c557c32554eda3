"""Tests for the command-line interface: exit codes and output formats."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import random

import pytest

import tog
from generators import random_theta_sum
from tog.cli import Config, _emit_json, main
from tog.jsj_frontend import golden_g2, golden_racg1, synthesize
from tog.multigraph import (
    Interior,
    Multigraph,
    SurgeryError,
    blow_up,
    complete_graph,
    connected_sum,
    theta_graph,
)
from tog.rcs import reflection_system
from tog.vsystem import theta_standard_system


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_config_validation():
    assert Config().resolution == 2 and Config().depth == 2
    assert Config().root == 0 and Config().cap == 10000
    with pytest.raises(SurgeryError):
        Config(resolution=0)
    with pytest.raises(SurgeryError):
        Config(depth=-1)


# sha256 of the --emit dot outputs, taken from the code that built the
# expansion's DOT text from its JSON artifact with a second DOT writer
DOT_DIGESTS = {
    "graph": "87c7f85d63edabac699f2522727993efcc2fb84d793901c4b6ab045889c11555",
    "whitehead": "0ae2838932245efea00baedc04cf92ee817e5859d21fdcd19033138394b3f063",
    "expand": "fcf35a25c279973cb2dfbf6e17a70740c967a5011637115d66d5c1ff10ea422a",
}


def test_graph_info_and_dot(tmp_path, capsys):
    path = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    code, out = run(capsys, "graph", path)
    doc = json.loads(out)
    assert code == 0 and doc["two_connected"] and doc["vertex_count"] == 4
    code, out = run(capsys, "graph", path, "--emit", "dot")
    assert code == 0 and out.startswith("graph g {")
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS["graph"]


def test_malformed_json_is_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, out = run(capsys, "graph", str(p))
    doc = json.loads(out)
    assert code == 1 and doc["violations"][0].startswith("MalformedInput")


def test_twin_decompose(tmp_path, capsys):
    g1, g2 = theta_graph(3, "p"), theta_graph(4, "q")
    x1, x2 = Interior("pe1", Fraction(1, 2)), Interior("qe1", Fraction(1, 2))
    d1 = sorted(blow_up(g1, [x1]).divisors[x1])
    d2 = sorted(blow_up(g2, [x2]).divisors[x2])
    res = connected_sum(g1, x1, g2, x2, dict(zip(d1, d2)))
    path = write_json(tmp_path, "sum.json", res.graph.to_json_dict())
    code, out = run(capsys, "twin-decompose", path)
    assert code == 0 and sorted(json.loads(out)["summands"]) == [3, 4]

    k4 = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    code, out = run(capsys, "twin-decompose", k4)
    assert code == 1 and "NotTwinGraph" in json.loads(out)["violations"][0]


@pytest.mark.parametrize("join", ["cj0", "tj0", "cj1"])
def test_twin_decompose_reports_join_id_collision(join, tmp_path, capsys):
    # summands [3, 4, 5]; with R:t2e1 renamed to a join id the first or second
    # peel would overwrite it, and replay() would differ from the input
    g, _ = random_theta_sum(random.Random(1), 3)
    edges = g.edges
    edges[join] = edges.pop("R:t2e1")
    path = write_json(tmp_path, "sum.json", Multigraph(g.vertices, edges).to_json_dict())
    code, out = run(capsys, "twin-decompose", path)
    violation = f"SurgeryError: id collision for edge {join!r}"
    assert (code, json.loads(out)["violations"]) == (1, [violation])


def test_whitehead_json_and_dot(capsys):
    code, out = run(
        capsys, "whitehead", "--rank", "2", "--words", "a,b,abAB", "--labels", "a,b,c"
    )
    doc = json.loads(out)
    assert code == 0 and len(doc["graph"]["edges"]) == 6 and doc["two_connected"]
    code, out = run(
        capsys,
        "whitehead", "--rank", "2", "--words", "a,b,abAB",
        "--multiplicities", "2,3,2", "--emit", "dot",
    )
    assert code == 0 and out.startswith("graph g {")
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS["whitehead"]
    code, out = run(capsys, "whitehead", "--rank", "2", "--words", "aA")
    assert code == 1 and json.loads(out)["violations"]


def test_vsystem_report(tmp_path, capsys):
    path = write_json(tmp_path, "vs.json", theta_standard_system(4).to_json_dict())
    code, out = run(capsys, "vsystem", path)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["lines"]) == 4 and doc["end_pair_groups"] == [[0, 1, 2, 3]]


def test_rcs_validate_expand_analyze(tmp_path, capsys):
    sys_ = reflection_system(theta_graph(3))
    path = write_json(tmp_path, "refl.json", sys_.to_json_dict())

    code, out = run(capsys, "rcs", "validate", path)
    assert code == 0 and json.loads(out)["violations"] == []

    code, out = run(capsys, "rcs", "expand", path, "--depth", "0")
    doc = json.loads(out)
    assert code == 0 and len(doc["tree"]) == 1
    assert doc["graph"]["vertices"] == ["n|c0:u", "n|c0:w"]

    code, out1 = run(capsys, "rcs", "expand", path, "--depth", "2")
    code2, out2 = run(capsys, "rcs", "expand", path, "--depth", "2")
    assert code == code2 == 0 and out1 == out2

    code, out = run(capsys, "rcs", "expand", path, "--depth", "2", "--emit", "dot")
    assert code == 0 and out.startswith("graph expansion {")
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS["expand"]

    code, out = run(
        capsys, "rcs", "analyze", path, "--depth", "2",
        "--cell", "c0:u", "--pair-cell", "c0:w",
    )
    doc = json.loads(out)
    assert code == 0
    assert [t["degree"] for t in doc["trace"]] == [3, 3, 3]
    assert [t["pair_components"] for t in doc["trace"]] == [3, 3, 3]

    code, out = run(
        capsys, "rcs", "analyze", path, "--depth", "1",
        "--cell", "c0:e1", "--position", "1/5",
    )
    assert code == 0
    assert [t["degree"] for t in json.loads(out)["trace"]] == [2, 2]


# a DOT quoted string: a backslash escapes the character after it
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')
DOT_LINE_SHAPES = {
    "graph g {", "graph expansion {", "}",
    '  "";', '  "" [kind=""];', '  "" [node="", cell=""];',
    '  "" -- "" [label=""];', '  "" -- "" [label="", node="", cell="", interval=""];',
}


def dot_strings(out):
    """The unescaped quoted strings of DOT text whose lines all have a known shape."""
    assert {DOT_STRING.sub('""', line) for line in out.splitlines()} <= DOT_LINE_SHAPES
    return {re.sub(r"\\(.)", r"\1", x) for x in DOT_STRING.findall(out)}


def test_dot_strings_unescape_to_input_ids(tmp_path, capsys):
    # a quote inside an id, and a backslash that ends one
    q, b = 'a"b', "c\\"
    g = Multigraph([q, b], {'e"': (q, b), "f\\": (b, q), "g": (q, b)})
    path = write_json(tmp_path, "odd.json", g.to_json_dict())
    code, out = run(capsys, "graph", path, "--emit", "dot")
    assert code == 0 and dot_strings(out) == g.vertices | set(g.edge_ids())

    words = ["whitehead", "--rank", "2", "--words", "a,b", "--labels", 'a"b,c\\']
    code, out = run(capsys, *words)
    doc = json.loads(out)
    labels = {f"{e}:{lab}" for e, lab in doc["edge_labels"].items()}
    code, out = run(capsys, *words, "--emit", "dot")
    assert code == 0 and dot_strings(out) == set(doc["graph"]["vertices"]) | labels

    path = write_json(tmp_path, "refl.json", reflection_system(g).to_json_dict())
    code, out = run(capsys, "rcs", "expand", path, "--depth", "1")
    doc = json.loads(out)
    prov = doc["provenance"]
    ids = set(doc["graph"]["vertices"]) | set(prov["edges"]) | {"surgery"}
    for p in prov["vertices"].values():
        ids |= {p["node"], p["cell"]}
    for p in prov["edges"].values():
        ids |= {p["node"], p["cell"], ":".join(p["interval"])}
    code, out = run(capsys, "rcs", "expand", path, "--depth", "1", "--emit", "dot")
    assert code == 0 and dot_strings(out) == ids


def test_jsj_synth_golden_and_file_input(tmp_path, capsys):
    code, out = run(capsys, "jsj", "synth", "--golden", "g2")
    doc = json.loads(out)
    assert code == 0 and len(doc["system"]["econnections"]) == 68
    assert sorted(len(b["edges"]) for b in doc["ledger"]["blocks"].values()) == [1, 1, 4]

    code, out = run(capsys, "jsj", "synth", "--golden", "racg1")
    doc = json.loads(out)
    assert code == 0
    assert sorted(len(b["edges"]) for b in doc["ledger"]["blocks"].values()) == [1, 1, 2, 2, 5]

    from tog.jsj_frontend import golden_racg1

    path = write_json(tmp_path, "racg.json", golden_racg1().to_json_dict())
    code, out2 = run(capsys, "jsj", "synth", path)
    assert code == 0 and json.loads(out2) == doc

    code, out = run(capsys, "jsj", "synth")
    assert code == 1 and json.loads(out)["violations"]


# -- the JSON/CLI boundary: malformed input is a violations document --------


GRAPH_ONE_END = {"schema": "tog/1", "vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a"]}]}
GRAPH_STR_VERTICES = {"schema": "tog/1", "vertices": "ab", "edges": []}
RCS_DOC = reflection_system(theta_graph(3)).to_json_dict()
VSYSTEM_DOC = theta_standard_system(4).to_json_dict()
RCS_LIST_GRAPH = dict(RCS_DOC, components=[dict(RCS_DOC["components"][0], graph=[])])
# a-links naming a cell of an unknown component "zz", in the domain or the range of a
RCS_UNKNOWN_DOMAIN = dict(RCS_DOC, a=RCS_DOC["a"] + [["zz:u", "c0:u"]])
RCS_UNKNOWN_RANGE = dict(RCS_DOC, a=[[v, "zz:q" if v == "c0:u" else w] for v, w in RCS_DOC["a"]])
# gluing entries whose first end has one element instead of (edge, end index)
RCS_SHORT_ALPHA_END = dict(
    RCS_DOC, alpha=dict(RCS_DOC["alpha"], **{"c0:u": [[["c0:e1"], ["c0:e1", 0]]]})
)
RCS_SHORT_A_END = dict(RCS_DOC, econnections=[[["c0:e1"], ["c0:e1", 0]]])
RCS_RESERVED_NAME = dict(RCS_DOC, components=[dict(RCS_DOC["components"][0], name="c0:x")])
# one JSON value replaced: an a-link cell, an edge id
RCS_NULL_A_CELL = dict(RCS_DOC, a=[[None, "c0:u"], *RCS_DOC["a"][1:]])
RCS_LIST_A_CELL = dict(RCS_DOC, a=[["c0:u", []], *RCS_DOC["a"][1:]])
VSYSTEM_LIST_A_CELL = dict(VSYSTEM_DOC, a=[["u", []], *VSYSTEM_DOC["a"][1:]])


def with_alpha_end(doc, v, end):
    """doc with the second end of the first gluing entry at v replaced."""
    first, *rest = doc["alpha"][v]
    return dict(doc, alpha=dict(doc["alpha"], **{v: [[first[0], end], *rest]}))


# a gluing end whose edge is a list; an E-connection orientation that is a bool
RCS_LIST_ALPHA_EDGE = with_alpha_end(RCS_DOC, "c0:u", [[], 0])
VSYSTEM_LIST_ALPHA_EDGE = with_alpha_end(VSYSTEM_DOC, "u", [[], 1])
RCS_BOOL_ORIENTATION = dict(
    RCS_DOC, econnections=[[["c0:e1", True], ["c0:e1", True]], *RCS_DOC["econnections"][1:]]
)


def null_edge_id(g):
    doc = g.to_json_dict()
    doc["edges"][0]["id"] = None
    return json.dumps(doc)


def repeated(graph_doc, key):
    """graph_doc with its first vertex or edge listed a second time, the
    repeated edge joining other ends."""
    first = graph_doc[key][0]
    if key == "edges":
        first = dict(first, ends=list(reversed(first["ends"])))
    return dict(graph_doc, **{key: [*graph_doc[key], first]})


def rcs_with_graph(graph_doc):
    return dict(RCS_DOC, components=[dict(RCS_DOC["components"][0], graph=graph_doc)])


K4_DOC = complete_graph(4).to_json_dict()
RCS_GRAPH_DOC = RCS_DOC["components"][0]["graph"]


def jsj_doc(golden, path, value):
    """A golden JSJ input document with the value at path replaced."""
    doc = json.loads(json.dumps(golden().to_json_dict()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


ANALYZE = ["rcs", "analyze", "{doc}"]
JSJ = ["jsj", "synth", "{doc}"]
MALFORMED = {
    "top-level-array": ("[1, 2]", ["graph", "{doc}"]),
    "vsystem-array": ("[]", ["vsystem", "{doc}"]),
    "one-ended-edge": (json.dumps(GRAPH_ONE_END), ["graph", "{doc}"]),
    "string-vertices": (json.dumps(GRAPH_STR_VERTICES), ["graph", "{doc}"]),
    "bad-multiplicity": (
        None, ["whitehead", "--rank", "2", "--words", "a,b", "--multiplicities", "x,2"]
    ),
    "rcs-list-graph": (json.dumps(RCS_LIST_GRAPH), ["rcs", "validate", "{doc}"]),
    "rcs-list-alpha": (json.dumps(dict(RCS_DOC, alpha=[])), ["rcs", "validate", "{doc}"]),
    "vsystem-list-graph": (json.dumps(dict(VSYSTEM_DOC, graph=[])), ["vsystem", "{doc}"]),
    "vsystem-list-alpha": (json.dumps(dict(VSYSTEM_DOC, alpha=[])), ["vsystem", "{doc}"]),
    "rcs-a-unknown-domain": (json.dumps(RCS_UNKNOWN_DOMAIN), ["rcs", "validate", "{doc}"]),
    "rcs-a-unknown-range": (json.dumps(RCS_UNKNOWN_RANGE), ["rcs", "expand", "{doc}"]),
    "rcs-short-alpha-end": (json.dumps(RCS_SHORT_ALPHA_END), ["rcs", "validate", "{doc}"]),
    "rcs-short-econnection-end": (json.dumps(RCS_SHORT_A_END), ["rcs", "validate", "{doc}"]),
    "rcs-reserved-name": (json.dumps(RCS_RESERVED_NAME), ["rcs", "validate", "{doc}"]),
    "analyze-vertex-position": (json.dumps(RCS_DOC), ANALYZE + ["--cell", "c0:u", "--position", "1/5"]),
    "analyze-unknown-edge": (json.dumps(RCS_DOC), ANALYZE + ["--cell", "c0:e9", "--position", "1/5"]),
    "analyze-pair-position-alone": (
        json.dumps(RCS_DOC), ANALYZE + ["--cell", "c0:u", "--pair-position", "1/3"]
    ),
    "analyze-unknown-pair-edge": (
        json.dumps(RCS_DOC),
        ANALYZE + ["--cell", "c0:u", "--pair-cell", "c0:zz", "--pair-position", "1/3"],
    ),
    "jsj-string-k": (jsj_doc(golden_racg1, ("reps", 0, "k"), "3"), JSJ),
    "jsj-int-rep-id": (jsj_doc(golden_g2, ("reps", 0, "id"), 7), JSJ),
    "jsj-list-orbit-id": (jsj_doc(golden_g2, ("flexible_orbits", 0, "id"), ["y1"]), JSJ),
    "jsj-list-orbit-ref": (jsj_doc(golden_racg1, ("reps", 0, "edge_assignments", 0, 0), []), JSJ),
    "jsj-list-label": (jsj_doc(golden_g2, ("reps", 0, "peripherals", 0, "label"), []), JSJ),
    "rcs-null-a-cell": (json.dumps(RCS_NULL_A_CELL), ["rcs", "validate", "{doc}"]),
    "rcs-list-a-cell": (json.dumps(RCS_LIST_A_CELL), ["rcs", "validate", "{doc}"]),
    "vsystem-list-a-cell": (json.dumps(VSYSTEM_LIST_A_CELL), ["vsystem", "{doc}"]),
    "graph-null-edge-id": (null_edge_id(complete_graph(4)), ["graph", "{doc}"]),
    "twin-null-edge-id": (null_edge_id(theta_graph(4)), ["twin-decompose", "{doc}"]),
    "jsj-list-word": (jsj_doc(golden_g2, ("reps", 0, "peripherals", 0, "word"), ["a"]), JSJ),
    "rcs-list-alpha-edge": (json.dumps(RCS_LIST_ALPHA_EDGE), ["rcs", "validate", "{doc}"]),
    "vsystem-list-alpha-edge": (json.dumps(VSYSTEM_LIST_ALPHA_EDGE), ["vsystem", "{doc}"]),
    "rcs-bool-orientation": (json.dumps(RCS_BOOL_ORIENTATION), ["rcs", "expand", "{doc}"]),
    "jsj-string-orientable": (
        jsj_doc(golden_racg1, ("flexible_orbits", 0, "orientable"), "false"), JSJ
    ),
    "jsj-bool-sharp": (jsj_doc(golden_g2, ("reps", 0, "slots", 0, 1, 1), True), JSJ),
    "jsj-bool-slot-index": (jsj_doc(golden_g2, ("reps", 0, "slots", 0, 0, 1), True), JSJ),
    "jsj-list-slot-label": (jsj_doc(golden_g2, ("reps", 0, "slots", 0, 0, 0), ["a"]), JSJ),
    "jsj-short-slot-label": (jsj_doc(golden_g2, ("reps", 0, "slots", 0, 0), ["a"]), JSJ),
    "jsj-long-slot-label": (jsj_doc(golden_g2, ("reps", 0, "slots", 0, 0), ["a", 1, 2]), JSJ),
    "graph-repeated-edge-id": (json.dumps(repeated(K4_DOC, "edges")), ["graph", "{doc}"]),
    "graph-repeated-vertex": (json.dumps(repeated(K4_DOC, "vertices")), ["graph", "{doc}"]),
    "rcs-repeated-edge-id": (
        json.dumps(rcs_with_graph(repeated(RCS_GRAPH_DOC, "edges"))), ["rcs", "validate", "{doc}"]
    ),
    "rcs-repeated-vertex": (
        json.dumps(rcs_with_graph(repeated(RCS_GRAPH_DOC, "vertices"))),
        ["rcs", "validate", "{doc}"],
    ),
}
# cases that decode but fail a later check, with their first violation
FIRST_VIOLATION = {
    "rcs-a-unknown-domain": "InvolutionDomain",
    "rcs-a-unknown-range": "InvolutionRange",
    "analyze-vertex-position": "SurgeryError",
    "analyze-unknown-edge": "SurgeryError",
    "analyze-unknown-pair-edge": "SurgeryError",
    "jsj-short-slot-label": "MalformedInput: slot label must be a list [xi, j]",
    "jsj-long-slot-label": "MalformedInput: slot label must be a list [xi, j]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_violations_document(case, tmp_path, capsys):
    text, argv = MALFORMED[case]
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    code, out = run(capsys, *[a.format(doc=path) for a in argv])
    doc = json.loads(out)
    assert code == 1 and doc["schema"] == "tog/1"
    first = FIRST_VIOLATION.get(case, "MalformedInput")
    assert doc["violations"] and doc["violations"][0].startswith(first)


# -- the JSON encoder ---------------------------------------------------------


def test_canonical_rejects_non_json(capsys):
    with pytest.raises(TypeError):
        _emit_json({"a": Fraction(1, 2)})
    assert capsys.readouterr().out == ""


# sha256 of `tog rcs expand` stdout, taken from the json.dumps emitter; the
# racg1 pins, from the emitter that rendered each Site and Fraction, cover
# orientation-1 partners and positions such as 2/4 that print reduced
EXPAND_DIGESTS = {
    "theta3-d3-r2": "7a20c8c75d1a6f907828950697f827c9959064d62fa75804ec743b155946fef5",
    "g2-d2-r2": "a0bdde905ab015dde39abc427de7d3e1f7e7d2b0a7d6ade842af37440735b906",
    "racg1-root1-d2-r3": "5960da283ebbaad0963142535014c1e4a54aa5ebc6e747df7eeba3bf77412b42",
    "racg1-root1-d2-r3-dot": "12f1c2de9937bea23b8221d2ee956c8bfcf771636e880de373ae2a008c17b557",
}
# case: (system, options)
EXPAND_CASES = {
    "theta3-d3-r2": (lambda: reflection_system(theta_graph(3)), ["--depth", "3", "--resolution", "2"]),
    "g2-d2-r2": (lambda: synthesize(golden_g2())[0], ["--depth", "2", "--resolution", "2"]),
    "racg1-root1-d2-r3": (
        lambda: synthesize(golden_racg1())[0],
        ["--root", "1", "--depth", "2", "--resolution", "3"],
    ),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(EXPAND_DIGESTS))
def test_expand_output_digest(case, tmp_path, capsys):
    system, options = EXPAND_CASES[case.removesuffix("-dot")]
    if case.endswith("-dot"):
        options = options + ["--emit", "dot"]
    path = write_json(tmp_path, "sys.json", system().to_json_dict())
    code, out = run(capsys, "rcs", "expand", path, *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_DIGESTS[case]


# sha256 of stdout, taken from the code that recomputed twins on every peel and
# ran one independent expansion per depth in `rcs analyze`
TWIN_DECOMPOSE_DIGEST = "7502882c1cef6e97305f49d3a6ee89dab8cb9609141b2c92d01a33c658600f20"
ANALYZE_DIGEST = "ae11bbb8ad627a0dd9ad4dd7d098deee0bc68391d69d71d574407c80e151d3f5"


def test_twin_decompose_output_digest(tmp_path, capsys):
    g, sizes = random_theta_sum(random.Random(12), count=12)
    path = write_json(tmp_path, "sum.json", g.to_json_dict())
    code, out = run(capsys, "twin-decompose", path)
    assert code == 0 and sorted(json.loads(out)["summands"]) == sizes
    assert hashlib.sha256(out.encode()).hexdigest() == TWIN_DECOMPOSE_DIGEST


def test_analyze_output_digest(tmp_path, capsys):
    path = write_json(tmp_path, "refl.json", RCS_DOC)
    code, out = run(
        capsys, "rcs", "analyze", path, "--depth", "3", "--cell", "c0:u", "--pair-cell", "c0:w"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGEST


def test_import_cli_leaves_networkx_unloaded(tmp_path):
    # every subcommand, run in one fresh interpreter, loads only tog and the
    # standard library
    graph = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    twin = write_json(tmp_path, "theta.json", theta_graph(4).to_json_dict())
    vsys = write_json(tmp_path, "vs.json", VSYSTEM_DOC)
    refl = write_json(tmp_path, "refl.json", RCS_DOC)
    runs = [
        ["graph", graph],
        ["twin-decompose", twin],
        ["whitehead", "--rank", "2", "--words", "a,b,ab"],
        ["vsystem", vsys],
        ["rcs", "validate", refl],
        ["rcs", "expand", refl, "--depth", "1"],
        ["rcs", "analyze", refl, "--depth", "1", "--cell", "c0:u", "--pair-cell", "c0:w"],
        ["jsj", "synth", "--golden", "g2"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from tog.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "roots = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(roots - set(sys.stdlib_module_names) - {'tog'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tog.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_jsj_synth_without_input_fails_before_loading_the_frontend():
    probe = (
        "import contextlib, io, sys\n"
        "from tog.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['jsj', 'synth']) == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith('tog.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tog.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "['tog.cli', 'tog.multigraph']"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # a reader that stops after one line, as `| head -1` does, long before the
        # 1.5 MB (json) or 0.4 MB (dot) of the depth-3 expansion are written
        (["rcs", "expand", "{refl}", "--depth", "3"], 1),
        (["rcs", "expand", "{refl}", "--depth", "3", "--emit", "dot"], 1),
        # a reader gone before any write: the small buffered document fails to flush
        (["graph", "{refl}"], 0),
    ],
    ids=["expand-json", "expand-dot", "graph-violations"],
)
def test_closed_stdout_exits_141_quietly(argv, lines, tmp_path):
    refl = write_json(tmp_path, "refl.json", RCS_DOC)
    argv = [a.format(refl=refl) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(tog.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell
    with subprocess.Popen(
        [sys.executable, "-m", "tog.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("cap", [5, 20, 100])  # exceeded at depth 0, 1 and 2
def test_cap_exceeded_expand_prints_one_violations_document(cap, tmp_path, capsys):
    path = write_json(tmp_path, "refl.json", RCS_DOC)
    code = main(["rcs", "expand", path, "--depth", "3", "--cap", str(cap)])
    out, err = capsys.readouterr()
    violation = f"ResourceCapExceeded: copy cap of {cap} component copies exceeded"
    assert code == 2 and err == ""
    doc = {"schema": "tog/1", "violations": [violation]}
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_expand_and_analyze_report_violations_like_validate(tmp_path, capsys):
    # the not-swap-closed system: one E-connection pair dropped
    path = write_json(tmp_path, "broken.json", dict(RCS_DOC, econnections=RCS_DOC["econnections"][1:]))
    code, expected = run(capsys, "rcs", "validate", path)
    assert code == 1 and json.loads(expected)["violations"]
    for argv in (["expand", path], ["analyze", path, "--cell", "c0:u"]):
        assert run(capsys, "rcs", *argv) == (1, expected)


# -- tog/1 schema -----------------------------------------------------------


def test_cli_subdocuments_match_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    root = json.loads((Path(tog.__file__).parent / "schemas" / "tog-1.json").read_text())

    def check(defn, doc):
        # the root schema constrains nothing itself; validate against one $def
        jsonschema.validate(doc, dict(root, **{"$ref": f"#/$defs/{defn}"}))

    def output(defn, *argv, code=0):
        """The whole stdout of one command, checked against one $def."""
        got, out = run(capsys, *argv)
        assert got == code
        doc = json.loads(out)
        check(defn, doc)
        return doc

    k4 = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    output("graphReport", "graph", k4)
    output("violations", "twin-decompose", k4, code=1)

    g, _ = random_theta_sum(random.Random(12), count=4)
    twin = write_json(tmp_path, "sum.json", g.to_json_dict())
    assert output("thetaSumTree", "twin-decompose", twin)["record"]

    for extra in ([], ["--multiplicities", "2,3,2"]):
        argv = ["whitehead", "--rank", "2", "--words", "a,b,abAB", "--labels", "a,b,c", *extra]
        output("whitehead", *argv)

    vsys = write_json(tmp_path, "vs.json", VSYSTEM_DOC)
    output("linesReport", "vsystem", vsys)

    refl = write_json(tmp_path, "refl.json", reflection_system(theta_graph(3)).to_json_dict())
    output("violations", "rcs", "validate", refl)
    expansion = output("expansion", "rcs", "expand", refl, "--depth", "2")
    nodeless = {k: v for k, v in expansion["frontier"][0].items() if k != "node"}
    with pytest.raises(jsonschema.ValidationError):
        check("expansion", dict(expansion, frontier=[nodeless]))
    analyze = ["rcs", "analyze", refl, "--depth", "2"]
    output("analyzeTrace", *analyze, "--cell", "c0:u", "--pair-cell", "c0:w")
    output("analyzeTrace", *analyze, "--cell", "c0:e1", "--position", "1/5")

    for golden in ("g2", "racg1"):
        output("jsjSynth", "jsj", "synth", "--golden", golden)

    with pytest.raises(jsonschema.ValidationError):
        check("graph", GRAPH_STR_VERTICES)
