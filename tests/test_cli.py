"""Tests for the command-line interface: exit codes and output formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tog
from tog.cli import Config, _canonical, main
from tog.jsj_frontend import golden_g2, synthesize
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
MALFORMED = {
    "top-level-array": ("[1, 2]", ["graph", "{doc}"]),
    "vsystem-array": ("[]", ["vsystem", "{doc}"]),
    "one-ended-edge": (json.dumps(GRAPH_ONE_END), ["graph", "{doc}"]),
    "string-vertices": (json.dumps(GRAPH_STR_VERTICES), ["graph", "{doc}"]),
    "bad-multiplicity": (
        None, ["whitehead", "--rank", "2", "--words", "a,b", "--multiplicities", "x,2"]
    ),
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
    assert doc["violations"] and doc["violations"][0].startswith("MalformedInput")


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


def test_import_cli_leaves_networkx_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(tog.__file__).resolve().parent.parent))
    probe = "import sys, tog.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


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
