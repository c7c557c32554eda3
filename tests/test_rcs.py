"""Tests for graphical connecting systems and the expansion engine."""

import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tog.multigraph import Multigraph, SurgeryError, is_two_connected, theta_graph
from tog.rcs import (
    GraphicalConnectingSystem,
    InvalidSystem,
    ResourceCapExceeded,
    Site,
    analyze_point,
    compose_cell_maps,
    expand,
    expand_site,
    expand_to_depth,
    init,
    lift_vertex,
    project,
    reflection_system,
    schedule_sites,
    validate,
)
from tog.vsystem import bar


@pytest.fixture
def refl3():
    return reflection_system(theta_graph(3))


def series(sys_, depths, r=2):
    return [expand_to_depth(init(sys_, 0, r), d) for d in depths]


# -- system validation -----------------------------------------------------


def test_reflection_system_is_valid(refl3):
    assert validate(refl3) == []


def test_validate_flags_uncovered_and_unclosed():
    g = theta_graph(3)
    base = reflection_system(g)
    # drop coverage of one oriented edge while keeping closure
    A = {p for p in base.econnections if p[0][0] != "c0:e1"}
    broken = GraphicalConnectingSystem(
        base.names, base.components, base.union, base.vsys, frozenset(A)
    )
    codes = validate(broken)
    assert any(c.startswith("UncoveredOrientedEdge") for c in codes)
    # break swap closure
    A2 = set(base.econnections)
    A2.add((("c0:e1", 0), ("c0:e2", 0)))
    A2.add((("c0:e1", 1), ("c0:e2", 1)))  # bar-closed but not swap-closed
    broken2 = GraphicalConnectingSystem(
        base.names, base.components, base.union, base.vsys, frozenset(A2)
    )
    assert any(c.startswith("NotSwapClosed") for c in validate(broken2))


def test_validate_flags_loop_component():
    g = Multigraph({"u", "w"}, {"e": ("u", "w"), "f": ("u", "w"), "l": ("u", "u")})
    sys_ = reflection_system(g)
    assert any(c.startswith("LoopEdge") for c in validate(sys_))


def test_build_rejects_id_separators_in_names_and_cells():
    # "a" with cell "b:u" and "a:b" with cell "u" would both give "a:b:u"
    g1, g2 = theta_graph(3, "b:"), theta_graph(3)
    with pytest.raises(SurgeryError, match="component name"):
        GraphicalConnectingSystem.build([("a", g1), ("a:b", g2)], {}, {}, [])
    sys_ = GraphicalConnectingSystem.build([("a", g1), ("c", g2)], {}, {}, [])
    assert (len(sys_.union.vertices), len(sys_.union.edges)) == (4, 6)
    assert sys_.component_cells("a")[0] == ["a:b:u", "a:b:w"]
    for bad in ("x|", "x&", "x@"):
        with pytest.raises(SurgeryError, match="cell"):
            reflection_system(theta_graph(3, bad))


def test_json_round_trip(refl3):
    back = GraphicalConnectingSystem.from_json_dict(refl3.to_json_dict())
    assert back.to_json_dict() == refl3.to_json_dict()


# -- scheduler -------------------------------------------------------------


def test_schedule_positions_and_round_robin(refl3):
    sched = schedule_sites(refl3, "c0:e1", 3)
    assert [pos for pos, _ in sched] == [
        Fraction(1, 4),
        Fraction(2, 4),
        Fraction(3, 4),
    ]
    # reflection partners are the diagonal, so every partner is the edge itself
    assert all(p == ("c0:e1", 0) for _, p in sched)


def test_schedule_fairness_over_full_cycles():
    # a system where an edge has several partners: theta_3 standard-style A
    g = theta_graph(3)
    base = reflection_system(g)
    pm = [(f"c0:e{i}", o) for i in range(1, 4) for o in (0, 1)]
    A = frozenset((a, b) for a in pm for b in pm)
    sys_ = GraphicalConnectingSystem(
        base.names, base.components, base.union, base.vsys, A
    )
    assert validate(sys_) == []
    partners = sys_.partners_of(("c0:e1", 0))
    n = 4
    sched = schedule_sites(sys_, "c0:e1", n * len(partners))
    counts = {}
    for _, p in sched:
        counts[p] = counts.get(p, 0) + 1
    assert all(counts[p] == n for p in partners)


def test_schedule_warns_when_resolution_too_small():
    g = theta_graph(3)
    base = reflection_system(g)
    pm = [(f"c0:e{i}", o) for i in range(1, 4) for o in (0, 1)]
    A = frozenset((a, b) for a in pm for b in pm)
    sys_ = GraphicalConnectingSystem(
        base.names, base.components, base.union, base.vsys, A
    )
    with pytest.warns(UserWarning):
        schedule_sites(sys_, "c0:e1", 2)


# -- expansion -------------------------------------------------------------


def test_depth_zero_is_root_copy(refl3):
    pu = init(refl3, 0, 2)
    assert len(pu.nodes) == 1
    assert sorted(pu.graph.vertex_ids()) == ["n|c0:u", "n|c0:w"]
    assert len(pu.frontier) == 2 + 3 * 2  # two V-sites, two E-sites per edge


def test_reflection_depth1_r1_has_six_copies(refl3):
    pu = expand_to_depth(init(refl3, 0, 1), 1)
    assert len(pu.nodes) == 6  # 2 V-expansions + 3 E-expansions


def test_expansions_preserve_two_connectivity(refl3):
    for pu in series(refl3, range(4)):
        assert is_two_connected(pu.graph)


def test_euler_count_audit(refl3):
    pu = init(refl3, 0, 2)
    comp_v, comp_e = 2, 3
    for s in sorted(list(pu.frontier), key=Site.sort_key):
        nv, ne = len(pu.vertices), len(pu.edges)
        pu2 = expand_site(pu, s)
        if s.kind == "V":
            deg = refl3.union.degree(s.vertex)
            assert len(pu2.vertices) == nv + comp_v - 2 + deg
            assert len(pu2.edges) == ne + comp_e
        else:
            assert len(pu2.vertices) == nv + comp_v + 2
            assert len(pu2.edges) == ne + comp_e + 2
        assert set(pu2.graph.vertices) == pu2.vertices  # direct recount
        pu = pu2


def test_expand_site_is_pure_and_rejects_stale(refl3):
    pu = init(refl3, 0, 2)
    s = sorted(pu.frontier, key=Site.sort_key)[0]
    pu2 = expand_site(pu, s)
    assert len(pu.nodes) == 1 and len(pu2.nodes) == 2
    with pytest.raises(SurgeryError):
        expand_site(pu2, s)


def test_resource_cap(refl3):
    with pytest.raises(ResourceCapExceeded):
        expand(refl3, depth=3, resolution=2, cap=10)


def test_determinism(refl3):
    a = json.dumps(expand(refl3, depth=2, resolution=2).to_json_dict(), sort_keys=True)
    b = json.dumps(expand(refl3, depth=2, resolution=2).to_json_dict(), sort_keys=True)
    assert a == b


def test_split_arc_ids_never_overwrite_an_edge():
    # splitting e1 at depth 1 names its arcs e1l and e1r
    def theta_with(second: str):
        g = Multigraph({"u", "w"}, {e: ("u", "w") for e in ("e1", second, "e2")})
        return init(reflection_system(g), 0, 1)

    pu = expand_to_depth(theta_with("ex"), 1)
    arcs = sum(len(chain) for chain in pu.arcs.values())
    assert len(pu.edges) == arcs == 24
    with pytest.raises(SurgeryError, match="reuse an edge id"):
        expand_to_depth(theta_with("e1l"), 1)


def test_invalid_root_and_invalid_system(refl3):
    with pytest.raises(SurgeryError):
        init(refl3, 5, 2)
    g = Multigraph({"u", "w"}, {"e": ("u", "w"), "l": ("u", "u"), "f": ("u", "w")})
    sys_ = reflection_system(g)
    for root in (0, 5):  # validity is checked before the root index
        with pytest.raises(InvalidSystem) as info:
            init(sys_, root, 2)
        assert info.value.violations == validate(sys_) != []


# -- projections -----------------------------------------------------------


def test_projection_identity_on_equal_trees(refl3):
    pu = expand_to_depth(init(refl3, 0, 2), 2)
    m = project(pu, pu)
    for cell, target in m.items():
        assert target == (cell[0], cell[1])


def test_projection_functoriality(refl3):
    pus = series(refl3, range(4))
    m10 = project(pus[1], pus[0])
    m21 = project(pus[2], pus[1])
    m20 = project(pus[2], pus[0])
    assert compose_cell_maps(m10, m21) == m20
    m32 = project(pus[3], pus[2])
    m30 = project(pus[3], pus[0])
    assert compose_cell_maps(m20, m32) == m30


def test_projection_rejects_incompatible_trees(refl3):
    pu0 = init(refl3, 0, 2)
    pu1 = expand_to_depth(pu0, 1)
    with pytest.raises(SurgeryError):
        project(pu0, pu1)


def test_projection_collapses_branches_to_attachment_loci(refl3):
    pus = series(refl3, (0, 1))
    m = project(pus[1], pus[0])
    shallow_cells = {("vertex", v) for v in pus[0].graph.vertex_ids()}
    for cell, target in m.items():
        if target[0] == "vertex":
            assert ("vertex", target[1]) in shallow_cells
        elif target[0] == "interior":
            assert Fraction(0) < target[2] < Fraction(1)


# -- point tracking --------------------------------------------------------


def test_essential_vertex_lift_degree(refl3):
    pus = series(refl3, range(4))
    trace = analyze_point(pus, ("n", "c0:u"))
    assert [e["degree"] for e in trace.entries] == [3, 3, 3, 3]


def test_lift_moves_to_uninvolved_vertex(refl3):
    pus = series(refl3, (0, 1))
    node, cell, cur = lift_vertex(pus[1], "n", "c0:u")
    # the copy glued at u contributes its other vertex w as the lift
    assert cell == "c0:w" and node != "n"
    assert pus[1].graph.degree(cur) == 3


def test_stable_interior_point_keeps_degree_two(refl3):
    pus = series(refl3, range(3))
    trace = analyze_point(pus, ("n", "c0:e1", Fraction(1, 5)))
    assert all(e["degree"] == 2 for e in trace.entries)


def test_interior_pair_complement_count_stabilizes(refl3):
    pus = series(refl3, range(3))
    trace = analyze_point(
        pus,
        ("n", "c0:e1", Fraction(1, 5)),
        pair_with=("n", "c0:e1", Fraction(2, 5)),
    )
    counts = [e["pair_components"] for e in trace.entries]
    assert counts[-1] == counts[-2] == 2


def test_untracked_locus_raises(refl3):
    pu = init(refl3, 0, 2)
    with pytest.raises(SurgeryError):
        lift_vertex(pu, "n", "c0:nope")
    pu1 = expand_to_depth(pu, 1)
    with pytest.raises(SurgeryError):
        # 1/3 is a scheduled site position, a cut point after expansion
        analyze_point([pu1], ("n", "c0:e1", Fraction(1, 3)))
