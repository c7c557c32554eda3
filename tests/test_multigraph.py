"""Tests for graph surgery: blow-up/down, connected sums, 2-connectivity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_sum_pair, random_two_connected
from oracles import (
    complement_components_by_blow_up,
    is_homeomorphic,
    is_isomorphic,
    smoothed,
    two_connected_by_definition,
)
from tog.multigraph import (
    Interior,
    Multigraph,
    SurgeryError,
    Vertex,
    _complement,
    blow_down,
    blow_up,
    complement_components,
    complete_graph,
    components,
    connected_sum,
    cut_counts,
    is_two_connected,
    theta_graph,
)


def seeds(n, base=0):
    return [pytest.param(base + i, id=f"seed{base + i}") for i in range(n)]


# -- construction and serialization ---------------------------------------


def test_theta_and_complete_constructors():
    t = theta_graph(4)
    assert len(t.vertices) == 2 and len(t.edges) == 4
    assert all(set(t.ends(e)) == {"u", "w"} for e in t.edge_ids())
    k4 = complete_graph(4)
    assert len(k4.vertices) == 4 and len(k4.edges) == 6
    with pytest.raises(SurgeryError):
        theta_graph(0)


def test_json_round_trip():
    g = complete_graph(4)
    assert Multigraph.from_json_dict(g.to_json_dict()) == g
    bad = g.to_json_dict()
    bad["schema"] = "nope"
    with pytest.raises(SurgeryError):
        Multigraph.from_json_dict(bad)


def test_interior_position_bounds():
    with pytest.raises(SurgeryError):
        Interior("e", Fraction(0))
    with pytest.raises(SurgeryError):
        Interior("e", Fraction(1))


# -- blow-up / blow-down ---------------------------------------------------


def test_blow_up_vertex_divisor_count():
    g = complete_graph(4)
    r = blow_up(g, [Vertex("v1")])
    assert len(r.divisors[Vertex("v1")]) == 3
    assert len(components(r.graph)) == 1  # rest of K4 stays connected through it


def test_blow_up_interior_disconnects_theta_edge():
    g = theta_graph(3)
    r = blow_up(g, [Interior("e1", Fraction(1, 2))])
    assert len(r.divisors[Interior("e1", Fraction(1, 2))]) == 2
    assert len(components(r.graph)) == 1


def test_blow_down_round_trip_vertex_and_interior():
    g = complete_graph(4)
    loci = [Vertex("v2"), Interior("e13", Fraction(1, 3))]
    r = blow_up(g, loci)
    assert blow_down(r) == g


def test_partial_blow_down_equals_blow_up_at_kept():
    g = complete_graph(4)
    kept = Interior("e12", Fraction(1, 2))
    r = blow_up(g, [Vertex("v3"), kept])
    partial = blow_down(r, keep=[kept])
    direct = blow_up(g, [kept])
    assert partial == direct.graph


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_blow_down_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_two_connected(rng)
    loci = []
    picks = rng.randint(1, 3)
    for _ in range(picks):
        if rng.random() < 0.5:
            loci.append(Vertex(rng.choice(g.vertex_ids())))
        else:
            loci.append(Interior(rng.choice(g.edge_ids()), Fraction(rng.randint(1, 7), 8)))
    loci = list(dict.fromkeys(loci))
    r = blow_up(g, loci)
    assert blow_down(r) == g


def test_complement_components_counts():
    k4 = complete_graph(4)
    count, iota = complement_components(k4, [Vertex("v1"), Vertex("v2")])
    assert count == 2  # the edge v1v2 arc, and the rest through v3, v4
    # the arc's least id is its midpoint e12.mid, so it comes first
    assert iota == {
        "v1@e12.0": 0, "v2@e12.1": 0,
        "v1@e13.0": 1, "v1@e14.0": 1, "v2@e23.0": 1, "v2@e24.0": 1,
    }
    t3 = theta_graph(3)
    count, iota = complement_components(t3, [Vertex("u"), Vertex("w")])
    assert count == 3
    assert iota == {f"{v}@e{i}.{j}": i - 1 for i in (1, 2, 3) for v, j in (("u", 0), ("w", 1))}
    cuts = [Interior("e1", Fraction(1, 3)), Interior("e1", Fraction(2, 3)), Vertex("u")]
    count, iota = complement_components(t3, cuts)
    assert count == 3  # e1's arc at u, e1's middle arc, and w with the rest
    assert iota == {
        "u@e1.0": 0, "e1@1_3t": 0, "e1@1_3h": 1, "e1@2_3t": 1,
        "e1@2_3h": 2, "u@e2.0": 2, "u@e3.0": 2,
    }


def test_auxiliary_midpoint_id_collision_raises():
    # blowing up u and w leaves e1 an isolated arc, whose midpoint id e1.mid
    # is already a vertex of the graph
    g = Multigraph(
        ["u", "w", "e1.mid"],
        {"e1": ("u", "w"), "e2": ("u", "e1.mid"), "e3": ("e1.mid", "w")},
    )
    loci = [Vertex("u"), Vertex("w")]
    message = "id collision for auxiliary vertex 'e1.mid'"
    with pytest.raises(SurgeryError, match=message):
        blow_up(g, loci)
    with pytest.raises(SurgeryError, match=message):
        complement_components(g, loci)


def test_new_edge_id_collision_raises():
    # cutting e makes the arcs e.a0 and e.a1, but e.a0 already names an edge
    g = Multigraph(
        ["u", "w", "p", "q"], {"e": ("u", "w"), "e.a0": ("p", "q"), "f": ("w", "p")}
    )
    loci = [Interior("e", Fraction(1, 2))]
    message = "id collision for edge 'e.a0'"
    with pytest.raises(SurgeryError, match=message):
        blow_up(g, loci)
    with pytest.raises(SurgeryError, match=message):
        complement_components(g, loci)


# vertex and edge ids that blow-up divisor, midpoint and arc ids can collide with
_CLASHING = ["e0.mid", "a@e0.0", "b@e1.1", "e1@1_2t", "e2.a1.mid"]
_CLASHING_EDGES = ["e0.a0", "e1.a1", "e0.m0", "e2.m1", "e1.a0.m1", "e0.a1.m0"]


def _outcome(fn, g: Multigraph, loci: list):
    try:
        return fn(g, loci)
    except SurgeryError as ex:
        return str(ex)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_complement_components_match_blow_up(seed):
    # loops, parallel edges and isolated vertices; 1-4 loci mixing vertices
    # and cuts, with repeated cuts on one edge and clashing ids now and then
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"] + rng.sample(_CLASHING, rng.randint(0, 3))
    vertices = rng.sample(names, rng.randint(1, min(6, len(names))))
    ids = [f"e{k}" for k in range(rng.randint(0, 7))] + rng.sample(_CLASHING_EDGES, rng.randint(0, 2))
    edges = {e: (rng.choice(vertices), rng.choice(vertices)) for e in ids}
    g = Multigraph(vertices, edges)
    loci = []
    for _ in range(rng.randint(1, 4)):
        if edges and rng.random() < 0.5:
            loci.append(Interior(rng.choice(sorted(edges)), Fraction(rng.randint(1, 3), 4)))
        else:
            loci.append(Vertex(rng.choice(vertices)))
    if rng.random() < 0.9:
        loci = list(dict.fromkeys(loci))  # a repeated locus is rejected
    expected = _outcome(complement_components_by_blow_up, g, loci)
    assert _outcome(complement_components, g, loci) == expected


# -- 2-connectivity against a subdivision oracle ---------------------------


def _random_multigraph(rng: random.Random) -> Multigraph:
    """Random ends, loops allowed; about 3% of these are 2-connected."""
    n = rng.randint(1, 8)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for k in range(rng.randint(0, 2 * n)):
        edges[f"e{k}"] = (rng.choice(vertices), rng.choice(vertices))
    return Multigraph(vertices, edges)


def _perturbed_two_connected(rng: random.Random) -> Multigraph:
    """A 2-connected graph, kept, or with an edge dropped, a pendant edge
    added, or a bridge to a theta added."""
    g = random_two_connected(rng, 9)
    vertices, edges = set(g.vertices), g.edges
    at = rng.choice(g.vertex_ids())
    change = rng.randrange(4)
    if change == 1:
        del edges[rng.choice(g.edge_ids())]
    elif change == 2:
        vertices.add("p")
        edges["pendant"] = (at, "p")
    elif change == 3:
        vertices |= {"b0", "b1"}
        edges.update({"bridge": (at, "b0"), "t0": ("b0", "b1"), "t1": ("b1", "b0")})
    return Multigraph(vertices, edges)


@settings(max_examples=160, deadline=None)
@given(st.sampled_from([_random_multigraph, _perturbed_two_connected]), st.integers(0, 10**6))
def test_two_connected_matches_oracle(make, seed):
    g = make(random.Random(seed))
    assert is_two_connected(g) == two_connected_by_definition(g)


def _delete(g: Multigraph, gone: set) -> Multigraph:
    edges = {e: ends for e, ends in g.edges.items() if gone.isdisjoint(ends)}
    return Multigraph(g.vertices - gone, edges)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([_random_multigraph, _perturbed_two_connected]), st.integers(0, 10**6))
def test_cut_counts_match_vertex_deletion(make, seed):
    rng = random.Random(seed)
    g = make(rng)
    skip = rng.choice([None, *g.vertex_ids()])
    reached, pieces, held = cut_counts(g, skip)
    assert held == {}  # nothing marked
    rest = _delete(g, {skip})
    comps = components(rest)
    assert reached == (len(comps[0]) if comps else 0)
    assert set(pieces) == set(rest.vertices)
    for v in rest.vertex_ids():
        assert pieces[v] == len(components(_delete(rest, {v})))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([_random_multigraph, _perturbed_two_connected]), st.integers(0, 10**6))
def test_cut_counts_marked_match_complement(make, seed):
    # held[v] counts the components of g - {x, v} that hold a marked vertex
    rng = random.Random(seed)
    g = make(rng)
    x = rng.choice(g.vertex_ids())
    marked = set(rng.sample(g.vertex_ids(), rng.randint(0, len(g.vertices))))
    _, pieces, held = cut_counts(g, x, marked)
    assert set(held) == set(pieces)
    for v in held:
        root = _complement(g, [Vertex(x), Vertex(v)])[0]
        assert held[v] == len({root[w] for w in marked - {x, v}})


def test_loop_breaks_two_connectivity():
    g = Multigraph({"u", "w"}, {"e": ("u", "w"), "f": ("u", "w"), "l": ("u", "u")})
    assert not is_two_connected(g)


def test_parallel_edges_are_not_bridges():
    g = Multigraph({"u", "w"}, {"e": ("u", "w"), "f": ("u", "w")})
    assert is_two_connected(g)


# -- connected sums --------------------------------------------------------


def test_connected_sum_seam_and_projection():
    g1, g2 = theta_graph(3, "p"), theta_graph(3, "q")
    x1 = Interior("pe1", Fraction(1, 2))
    x2 = Interior("qe1", Fraction(1, 2))
    r1, r2 = blow_up(g1, [x1]), blow_up(g2, [x2])
    d1, d2 = sorted(r1.divisors[x1]), sorted(r2.divisors[x2])
    res = connected_sum(g1, x1, g2, x2, dict(zip(d1, d2)))
    assert len(res.seam) == 2
    assert is_two_connected(res.graph)
    # every cell projects somewhere on each side
    left, right = res.projections
    for v in res.graph.vertex_ids():
        assert ("vertex", v) in left and ("vertex", v) in right


def test_connected_sum_rejects_bad_bijection():
    g1, g2 = theta_graph(3, "p"), theta_graph(3, "q")
    x1 = Interior("pe1", Fraction(1, 2))
    x2 = Vertex("qu")
    with pytest.raises(SurgeryError):
        r1, r2 = blow_up(g1, [x1]), blow_up(g2, [x2])
        d1, d2 = sorted(r1.divisors[x1]), sorted(r2.divisors[x2])
        connected_sum(g1, x1, g2, x2, dict(zip(d1, d2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_connected_sum_preserves_two_connectivity(seed):
    rng = random.Random(seed)
    g1 = random_two_connected(rng, 8)
    g2 = random_two_connected(rng, 8)
    res = random_sum_pair(rng, g1, g2)
    assert is_two_connected(res.graph)


# -- homeomorphism ---------------------------------------------------------


def test_smoothed_removes_degree_two_vertices():
    g = Multigraph(
        {"a", "b", "c"},
        {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a"), "e4": ("a", "c")},
    )
    s = smoothed(g)
    assert all(s.degree(v) != 2 for v in s.vertex_ids())


def test_homeomorphic_theta_vs_subdivided():
    g = theta_graph(3)
    r = blow_up(g, [Interior("e1", Fraction(1, 2))])
    sub = blow_down(r, keep=[])  # exact round trip; subdivide manually instead
    h = Multigraph(
        {"u", "w", "m"},
        {"e1a": ("u", "m"), "e1b": ("m", "w"), "e2": ("u", "w"), "e3": ("u", "w")},
    )
    assert is_homeomorphic(g, h)
    assert not is_isomorphic(g, h)
    assert not is_homeomorphic(g, theta_graph(4))
