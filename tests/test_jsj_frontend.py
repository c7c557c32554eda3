"""Tests for JSJ ingestion, synthesis, blocks, and packets."""

import pytest

from tog.jsj_frontend import (
    FlexibleOrbit,
    InvalidJsjInput,
    JsjInput,
    OddPacketInMixedOrientationCase,
    OrbitUnreferenced,
    RigidClusterRep,
    TransitivityFailure,
    V2Rep,
    WhiteheadNotTwoConnected,
    golden_g2,
    golden_racg1,
    packets,
    synthesize,
)
from oracles import is_isomorphic
from tog.multigraph import complete_graph
from tog.rcs import validate as rcs_validate
from tog.vsystem import bar
from tog.words_whitehead import PeripheralSpec, cyclically_reduce


def test_g2_golden_graph_and_econnections():
    sys_, ledger = synthesize(golden_g2())
    assert sys_.names == ["z0"]
    assert is_isomorphic(sys_.components[0], complete_graph(4))
    diagonals = ["z0:w0p0x1", "z0:w1p0x1"]
    boundary = [f"z0:w2p{p}x1" for p in range(4)]
    expected = set()
    for d in diagonals:
        expected.add(((d, 0), (d, 0)))
        expected.add(((d, 1), (d, 1)))
    pm = [(e, o) for e in boundary for o in (0, 1)]
    expected.update((o1, o2) for o1 in pm for o2 in pm)
    assert set(sys_.econnections) == expected
    assert rcs_validate(sys_) == []


def test_g2_block_ledger():
    _, ledger = synthesize(golden_g2())
    blocks = ledger.blocks
    assert blocks["ya"]["orientable"] and blocks["yb"]["orientable"]
    assert not blocks["yc"]["orientable"]
    sizes = sorted(len(b["edges"]) for b in blocks.values())
    assert sizes == [1, 1, 4]
    # blocks partition the edge set
    all_edges = sorted(e for b in blocks.values() for e in b["edges"])
    assert all_edges == sorted(synthesize(golden_g2())[0].union.edge_ids())


def test_racg1_golden():
    sys_, ledger = synthesize(golden_racg1())
    assert sorted(len(c.edges) for c in sys_.components) == [3, 4, 4]
    sizes = sorted(len(b["edges"]) for b in ledger.blocks.values())
    assert sizes == [1, 1, 2, 2, 5]
    assert all(not b["orientable"] for b in ledger.blocks.values())
    # A is the union of the full oriented squares of the blocks
    expected = set()
    for b in ledger.blocks.values():
        pm = [(e, o) for e in b["edges"] for o in (0, 1)]
        expected.update((o1, o2) for o1 in pm for o2 in pm)
    assert set(sys_.econnections) == expected
    assert rcs_validate(sys_) == []


def test_orientable_blocks_have_no_mixed_pairs_within_sharp():
    sys_, ledger = synthesize(golden_g2())
    for y in ("ya", "yb"):
        sharp = [tuple(o) for o in ledger.blocks[y]["sharp"]]
        for o1 in sharp:
            for o2 in sharp:
                assert (o1, o2) in sys_.econnections
                assert (bar(o1), bar(o2)) in sys_.econnections
                assert (o1, bar(o2)) not in sys_.econnections


def test_single_theta_orbit():
    inp = JsjInput(
        [FlexibleOrbit("y", False)], [V2Rep("z", 3, [("y", None)] * 3)]
    )
    sys_, _ = synthesize(inp)
    pm = [(e, o) for e in sys_.union.edge_ids() for o in (0, 1)]
    assert set(sys_.econnections) == {(a, b) for a in pm for b in pm}
    assert rcs_validate(sys_) == []


# -- error paths -----------------------------------------------------------


def test_unreferenced_orbit():
    inp = JsjInput(
        [FlexibleOrbit("y", False), FlexibleOrbit("z", False)],
        [V2Rep("z1", 3, [("y", None)] * 3)],
    )
    with pytest.raises(OrbitUnreferenced):
        synthesize(inp)


def test_transitivity_failure():
    inp = JsjInput(
        [FlexibleOrbit("y1", False), FlexibleOrbit("y2", False)],
        [
            V2Rep("z1", 3, [("y1", None)] * 3),
            V2Rep("z2", 3, [("y2", None)] * 3),
        ],
    )
    with pytest.raises(TransitivityFailure):
        synthesize(inp)


def test_whitehead_not_two_connected():
    rep = RigidClusterRep(
        "z0",
        2,
        [PeripheralSpec(cyclically_reduce("ab", "x"), 2)],
        {("x", 1): ("y", None)},
    )
    inp = JsjInput([FlexibleOrbit("y", False)], [rep])
    with pytest.raises(WhiteheadNotTwoConnected):
        synthesize(inp)


def test_valence_and_assignment_validation():
    with pytest.raises(InvalidJsjInput):
        synthesize(
            JsjInput([FlexibleOrbit("y", False)], [V2Rep("z", 2, [("y", None)] * 2)])
        )
    with pytest.raises(InvalidJsjInput):
        synthesize(
            JsjInput([FlexibleOrbit("y", False)], [V2Rep("z", 3, [("y", None)] * 2)])
        )
    with pytest.raises(InvalidJsjInput):
        synthesize(
            JsjInput([FlexibleOrbit("y", False)], [V2Rep("z", 3, [("y", 0)] * 3)])
        )  # sharp data on a non-orientable orbit


def test_sharp_default_warns_for_orientable():
    inp = JsjInput(
        [FlexibleOrbit("y", True)], [V2Rep("z", 3, [("y", None)] * 3)]
    )
    with pytest.warns(UserWarning):
        synthesize(inp)


# -- packets ---------------------------------------------------------------


def build_rigid(mult_c: int, slots_c: dict):
    periph = [
        PeripheralSpec(cyclically_reduce("a", "a"), 2),
        PeripheralSpec(cyclically_reduce("b", "b"), 2),
        PeripheralSpec(cyclically_reduce("abAB", "c"), mult_c),
    ]
    slots = {("a", 1): ("ya", 0), ("b", 1): ("yb", 0)}
    slots.update(slots_c)
    orbits = [FlexibleOrbit("ya", True), FlexibleOrbit("yb", True)]
    orbit_ids = {y for y, _ in slots_c.values()}
    for y in sorted(orbit_ids):
        orbits.append(FlexibleOrbit(y, False))
    return JsjInput(orbits, [RigidClusterRep("z0", 2, periph, slots)])


def test_multiplicity_two_gives_singleton_packets():
    _, ledger = synthesize(golden_g2())
    out = packets(ledger, "z0", "c")
    assert out == {"yc": {"slots": [1], "sharps": [None], "size": 1}}


def test_packet_of_size_two_from_multiplicity_three():
    inp = build_rigid(3, {("c", 1): ("yc", None), ("c", 2): ("yc", None)})
    _, ledger = synthesize(inp)
    out = packets(ledger, "z0", "c", edge_group_orientable=True)
    assert out["yc"]["size"] == 2 and out["yc"]["slots"] == [1, 2]


def test_odd_packet_rejected_with_orientable_edge_group():
    inp = build_rigid(
        4, {("c", 1): ("yc", None), ("c", 2): ("yc", None), ("c", 3): ("yc", None)}
    )
    _, ledger = synthesize(inp)
    assert packets(ledger, "z0", "c")["yc"]["size"] == 3  # no flag: accepted
    with pytest.raises(OddPacketInMixedOrientationCase):
        packets(ledger, "z0", "c", edge_group_orientable=True)


def test_json_round_trip():
    for inp in (golden_g2(), golden_racg1()):
        doc = inp.to_json_dict()
        assert JsjInput.from_json_dict(doc).to_json_dict() == doc
    _, ledger = synthesize(golden_racg1())
    doc = ledger.to_json_dict()
    assert doc["schema"] == "tog/1"
    assert all(b["sharp"] is None for b in doc["blocks"].values())
