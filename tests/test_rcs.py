"""Tests for graphical connecting systems and the expansion engine."""

import gc
import json
import random
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_two_connected
from oracles import expansion_dict, frontier_by_bookkeeping, project_by_incidence
from tog.jsj_frontend import golden_g2, golden_racg1, synthesize
from tog.multigraph import (
    Interior,
    Multigraph,
    SurgeryError,
    Vertex,
    blow_up,
    connected_sum,
    is_two_connected,
    theta_graph,
)
from tog.rcs import (
    _BATCH,
    _seams,
    _write_block,
    GraphicalConnectingSystem,
    InvalidSystem,
    ResourceCapExceeded,
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
    for s in pu.frontier:
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
        # the arcs are exactly the current edges, each once
        arcs = [ce for chain in pu2.arcs.values() for ce, _, _ in chain]
        assert sorted(arcs) == sorted(pu2.edges)
        pu = pu2


def test_expand_site_is_pure_and_rejects_stale(refl3):
    pu = init(refl3, 0, 2)
    s = pu.frontier[0]
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


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_projection_rejects_incompatible_trees(refl3):
    pu0 = init(refl3, 0, 2)
    pu1 = expand_to_depth(pu0, 1)
    with pytest.raises(SurgeryError):
        project(pu0, pu1)
    # arc ends are integers over a denominator set by the resolution
    with pytest.raises(SurgeryError, match="resolutions"):
        project(expand_to_depth(init(refl3, 0, 1), 1), pu0)
    # the same node ids, glued at other cells: a relabeled system, another root
    relabeled = reflection_system(theta_graph(3).relabel("x"))
    racg = GOLDEN_SYSTEMS[1][0]
    for deep, shallow in [
        (expand_to_depth(pu0, 2), expand_to_depth(init(relabeled, 0, 2), 1)),
        (expand_to_depth(init(racg, 0, 1), 2), expand_to_depth(init(racg, 1, 1), 1)),
    ]:
        with pytest.raises(SurgeryError, match="not a prefix"):
            project(deep, shallow)


def test_projection_collapses_branches_to_attachment_loci(refl3):
    pus = series(refl3, (0, 1))
    m = project(pus[1], pus[0])
    shallow_cells = {("vertex", v) for v in pus[0].graph.vertex_ids()}
    for cell, target in m.items():
        if target[0] == "vertex":
            assert ("vertex", target[1]) in shallow_cells
        elif target[0] == "interior":
            assert Fraction(0) < target[2] < Fraction(1)


def test_project_leaves_no_reference_cycle(refl3):
    # with the collector off, the deep union dies with its last reference
    # only if nothing project made holds it in a cycle
    deep, shallow = series(refl3, (3, 1))
    alive = weakref.ref(deep)
    gc.disable()
    try:
        project(deep, shallow)
        del deep
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_expand_leaves_no_reference_cycle():
    # the template texts of the sites are built without a json.dumps
    # encoder, whose closures refer to each other
    g2 = GOLDEN_SYSTEMS[0][0]
    gc.collect()
    gc.disable()
    try:
        expand(g2, 0, 2, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # synthesize warns of omitted sharp orientations
    GOLDEN_SYSTEMS = [
        (synthesize(golden_g2())[0], 0),
        *((synthesize(golden_racg1())[0], root) for root in range(3)),
    ]
# (system, root): reflection systems of small 2-connected graphs, and the goldens
systems = st.one_of(
    st.integers(0, 10**6).map(
        lambda seed: (reflection_system(random_two_connected(random.Random(seed), 5)), 0)
    ),
    st.sampled_from(GOLDEN_SYSTEMS),
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(systems, st.integers(1, 2), st.integers(1, 3))
def test_project_matches_incidence_oracle(system, r, depth):
    # every depth pair d0 < d up to depth, as far as a cap of 1200 copies allows
    sys_, root = system
    pus = [init(sys_, root, r, cap=1200)]
    try:
        for d in range(1, depth + 1):
            pus.append(expand_to_depth(pus[-1], d))
    except ResourceCapExceeded:
        pass
    for d, deep in enumerate(pus):
        for shallow in pus[:d]:
            assert project(deep, shallow) == project_by_incidence(deep, shallow)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(systems, st.integers(0, 1), st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
def test_project_matches_incidence_oracle_on_site_sequences(system, depth, picks):
    # unions grown one random site at a time are not level-synchronous
    sys_, root = system
    chain = [expand_to_depth(init(sys_, root, 1), depth)]
    for k in picks:
        frontier = chain[-1].frontier
        chain.append(expand_site(chain[-1], frontier[k % len(frontier)]))
    deep = chain[-1]
    for shallow in chain[::3]:
        assert project(deep, shallow) == project_by_incidence(deep, shallow)


def grown(system, r, depth, picks):
    """A union expanded to depth, then its single-site expansions at picks,
    up to the last union within a cap of 300 copies."""
    sys_, root = system
    chain = [init(sys_, root, r, cap=300)]
    try:
        for d in range(1, depth + 1):
            chain[0] = expand_to_depth(chain[0], d)
        # random single-site expansions leave sites of mixed depths on the frontier
        for k in picks:
            frontier = chain[-1].frontier
            chain.append(expand_site(chain[-1], frontier[k % len(frontier)]))
    except ResourceCapExceeded:
        pass
    return chain


grown_args = (
    systems,
    st.integers(1, 3),
    st.integers(0, 3),
    st.lists(st.integers(0, 10**6), max_size=8),
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(*grown_args)
def test_frontier_matches_bookkeeping_oracle(system, r, depth, picks):
    for pu in grown(system, r, depth, picks):
        assert pu.frontier == frontier_by_bookkeeping(pu)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(*grown_args)
def test_write_canonical_matches_canonical_dict(system, r, depth, picks):
    chain = grown(system, r, depth, picks)
    for pu in (chain[0], chain[-1]):
        parts = []
        pu.write_canonical(parts.append)
        doc = expansion_dict(pu)
        assert pu.to_json_dict() == doc
        got = "".join(parts).split("\n")
        want = json.dumps(doc, sort_keys=True, indent=2).split("\n")
        # compare from the first differing line: pytest's diff of two texts of
        # a megabyte would take minutes
        differ = (i for i, (x, y) in enumerate(zip(got, want)) if x != y)
        at = next(differ, min(len(got), len(want)))
        assert (len(got), got[at : at + 3]) == (len(want), want[at : at + 3])


@pytest.mark.parametrize("brackets", ["[]", "{}"])
@pytest.mark.parametrize("n", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_write_block_matches_json_layout_in_bounded_writes(brackets, n):
    doc = [f"i{k}" for k in range(n)] if brackets == "[]" else {f"k{k:05d}": k for k in range(n)}
    items = map(json.dumps, doc) if brackets == "[]" else (f'"{k}": {v}' for k, v in doc.items())
    writes = []
    _write_block(writes.append, brackets, items, "\n")
    assert "".join(writes) == json.dumps(doc, indent=2)
    # one write per batch of at most _BATCH items, then the closing bracket
    assert len(writes) == (-(-n // _BATCH) + 1 if n else 1)
    assert all(w.count("\n") <= _BATCH for w in writes)


def test_write_canonical_writes_bounded_pieces(refl3):
    pu = expand(refl3, depth=4, resolution=2)
    sizes = []
    pu.write_canonical(lambda text: sizes.append(len(text)))
    assert sum(sizes) > 10 * 2**20 and max(sizes) < 2**20


def check_expand_site_is_connected_sum(pu, pu2):
    """expand_site(pu, s) equals connected_sum(pu.graph, x1, copy, x2, ell)."""
    rcs = pu.rcs
    (m,) = set(pu2.nodes) - set(pu.nodes)
    info = pu2.nodes[m]
    s = info.via
    vs, es = rcs.component_cells(info.component)
    copy = Multigraph(
        {f"{m}|{v}" for v in vs},
        {f"{m}|{e}": tuple(f"{m}|{u}" for u in rcs.union.ends(e)) for e in es},
    )
    _, prov_e = pu.provenance()
    ell, seam_of = {}, {}
    if s.kind == "V":
        x1, x2 = Vertex(f"{s.node}|{s.vertex}"), Vertex(f"{m}|{rcs.vsys.a[s.vertex]}")
        d1 = blow_up(pu.graph, [x1]).divisors[x1]
        d2 = {end[1:]: d for d, end in blow_up(copy, [x2]).divisors[x2].items()}
        seams = dict(zip(rcs.union.link(s.vertex), _seams(rcs, s)))
        for d, (_, ce, i) in d1.items():
            p = (prov_e[ce][1], i)  # the original end the current end realizes
            f0, j = rcs.vsys.alpha[s.vertex][p]
            ell[d], seam_of[d] = d2[(f"{m}|{f0}", j)], seams[p]
    else:
        (ce,) = [
            e for e, (n, c, lo, hi) in prov_e.items()
            if (n, c) == (s.node, s.edge) and Fraction(lo) < s.position < Fraction(hi)
        ]
        _, _, lo, hi = prov_e[ce]
        lo, hi = Fraction(lo), Fraction(hi)
        f0, o = s.partner
        q = Fraction(1, 2 * (pu.resolution + 1))
        x1 = Interior(ce, (s.position - lo) / (hi - lo))
        x2 = Interior(f"{m}|{f0}", q if o == 0 else 1 - q)
        d1 = blow_up(pu.graph, [x1]).divisors[x1]
        d2 = {side: d for d, (_, side) in blow_up(copy, [x2]).divisors[x2].items()}
        # orientation 1 glues the partner reversed: tail side to head side
        flip = {"tail": "head", "head": "tail"} if o == 1 else {"tail": "tail", "head": "head"}
        seams = dict(zip(("tail", "head"), _seams(rcs, s)))
        for d, (_, side) in d1.items():
            ell[d], seam_of[d] = d2[flip[side]], seams[side]
    cs = connected_sum(pu.graph, x1, copy, x2, ell)

    # rename the sum's ids: "L:"/"R:" cells to the engine's, "s<i>" to seams,
    # and the two arcs of a split edge e from "e.a0"/"e.a1" to "el"/"er"
    vertex_id = {f"s{i}": seam_of[d] for i, d in enumerate(sorted(ell))}
    vertex_id.update((v, v[2:]) for v in cs.graph.vertices if v[:2] in ("L:", "R:"))
    edge_id = {e: e[2:] for e in cs.graph.edges}
    if s.kind == "E":
        for side, e in (("L:", ce), ("R:", x2.edge)):
            edge_id[f"{side}{e}.a0"], edge_id[f"{side}{e}.a1"] = e + "l", e + "r"
    assert {vertex_id[v] for v in cs.graph.vertices} == pu2.vertices
    assert {
        edge_id[e]: (vertex_id[t], vertex_id[h]) for e, (t, h) in cs.graph.edges.items()
    } == pu2.edges

    # each edge of the sum lies in one summand cell, over the interval the
    # sum's arc map gives inside that cell's own interval; a copy cell's own
    # interval is [0, 1]
    _, prov2 = pu2.provenance()
    for e in cs.graph.edges:
        side = 0 if e.startswith("L:") else 1
        _, cell, (a, b) = cs.projections[side][("edge", e)]
        if side == 0:
            n, c, lo, hi = prov_e[cell]
        else:
            (n, c), lo, hi = cell.split("|", 1), "0", "1"
        lo, hi = Fraction(lo), Fraction(hi)
        ends = ("%d/%d" % (lo + x * (hi - lo)).as_integer_ratio() for x in (a, b))
        assert prov2[edge_id[e]] == (n, c, *ends)
    # every chain abuts, covers [0, 1], and ends on multiples of 1/D
    D = 2 * (pu.resolution + 1)
    chains = {}
    for n, c, lo, hi in prov2.values():
        chains.setdefault((n, c), []).append((Fraction(lo), Fraction(hi)))
    for chain in chains.values():
        chain.sort()
        assert chain[0][0] == 0 and chain[-1][1] == 1
        assert all(a[1] == b[0] for a, b in zip(chain, chain[1:]))
        assert all((x * D).denominator == 1 for arc in chain for x in arc)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(*grown_args)
def test_expand_site_matches_connected_sum(system, r, depth, picks):
    chain = grown(system, r, depth, picks)
    for pu, pu2 in zip(chain, chain[1:]):
        check_expand_site_is_connected_sum(pu, pu2)


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
