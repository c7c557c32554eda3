"""Tests for the command-line interface: exit codes and output formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tog
from generators import random_theta_sum
from tog.cli import Config, _canonical, main
from tog.jsj_frontend import golden_g2, golden_racg1, synthesize
from tog.multigraph import (
    Interior,
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


def test_graph_info_and_dot(tmp_path, capsys):
    path = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    code, out = run(capsys, "graph", path)
    doc = json.loads(out)
    assert code == 0 and doc["two_connected"] and doc["vertex_count"] == 4
    code, out = run(capsys, "graph", path, "--emit", "dot")
    assert code == 0 and out.startswith("graph g {")


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

    code, out = run(capsys, "rcs", "expand", path, "--depth", "3", "--cap", "20")
    assert code == 2
    assert "ResourceCapExceeded" in json.loads(out)["violations"][0]

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
    "analyze-unknown-pair-edge": (
        json.dumps(RCS_DOC),
        ANALYZE + ["--cell", "c0:u", "--pair-cell", "c0:zz", "--pair-position", "1/3"],
    ),
    "jsj-string-k": (jsj_doc(golden_racg1, ("reps", 0, "k"), "3"), JSJ),
    "jsj-int-rep-id": (jsj_doc(golden_g2, ("reps", 0, "id"), 7), JSJ),
    "jsj-list-orbit-id": (jsj_doc(golden_g2, ("flexible_orbits", 0, "id"), ["y1"]), JSJ),
    "jsj-list-orbit-ref": (jsj_doc(golden_racg1, ("reps", 0, "edge_assignments", 0, 0), []), JSJ),
    "jsj-list-label": (jsj_doc(golden_g2, ("reps", 0, "peripherals", 0, "label"), []), JSJ),
}
# cases that decode but fail a later check, with their first violation
FIRST_VIOLATION = {
    "rcs-a-unknown-domain": "InvolutionDomain",
    "rcs-a-unknown-range": "InvolutionRange",
    "analyze-vertex-position": "SurgeryError",
    "analyze-unknown-edge": "SurgeryError",
    "analyze-unknown-pair-edge": "SurgeryError",
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


# -- the canonical encoder ---------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(["", "é", "\u2603", "\U0001f600", "\ud800", '"\\\n\t\x00\x7f'])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_matches_json_dumps(x):
    assert _canonical(x) == json.dumps(x, sort_keys=True, indent=2)


def test_canonical_rejects_non_json():
    with pytest.raises(TypeError):
        _canonical({"a": Fraction(1, 2)})


# sha256 of `tog rcs expand` stdout, taken from the json.dumps emitter
EXPAND_DIGESTS = {
    "theta3-d3-r2": "7a20c8c75d1a6f907828950697f827c9959064d62fa75804ec743b155946fef5",
    "g2-d2-r2": "a0bdde905ab015dde39abc427de7d3e1f7e7d2b0a7d6ade842af37440735b906",
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(EXPAND_DIGESTS))
def test_expand_output_digest(case, tmp_path, capsys):
    if case == "theta3-d3-r2":
        doc, depth = reflection_system(theta_graph(3)).to_json_dict(), "3"
    else:
        doc, depth = synthesize(golden_g2())[0].to_json_dict(), "2"
    path = write_json(tmp_path, "sys.json", doc)
    code, out = run(capsys, "rcs", "expand", path, "--depth", depth, "--resolution", "2")
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

    k4 = write_json(tmp_path, "k4.json", complete_graph(4).to_json_dict())
    code, out = run(capsys, "graph", k4)
    assert code == 0
    check("graph", json.loads(out)["graph"])

    for extra in ([], ["--multiplicities", "2,3,2"]):
        code, out = run(
            capsys, "whitehead", "--rank", "2", "--words", "a,b,abAB", "--labels", "a,b,c", *extra
        )
        doc = json.loads(out)
        assert code == 0
        check("graph", doc["graph"])
        check("vsystem", doc["vsystem"])

    refl = write_json(tmp_path, "refl.json", reflection_system(theta_graph(3)).to_json_dict())
    code, out = run(capsys, "rcs", "expand", refl, "--depth", "2")
    assert code == 0
    check("graph", json.loads(out)["graph"])

    for golden in ("g2", "racg1"):
        code, out = run(capsys, "jsj", "synth", "--golden", golden)
        assert code == 0
        check("connectingSystem", json.loads(out)["system"])

    with pytest.raises(jsonschema.ValidationError):
        check("graph", GRAPH_STR_VERTICES)
