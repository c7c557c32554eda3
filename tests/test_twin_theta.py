"""Tests for twin pairs and the theta-sum decomposition."""

import random
import signal
import warnings
from contextlib import contextmanager
from datetime import timedelta
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generators import random_theta_sum, random_two_connected, random_valence_input
from oracles import (
    decomposition_by_blow_up,
    essential_twin,
    exits,
    expansion_summands,
    inner_census_by_blow_up,
    is_twin_pair,
    peel_by_scan,
    scan_twin,
    twin_by_cut_counts,
    twin_census,
)
import tog.multigraph
import tog.twin_theta
from tog.jsj_frontend import golden_racg1, synthesize
from tog.multigraph import (
    Interior,
    Multigraph,
    SurgeryError,
    Vertex,
    blow_up,
    complement_components,
    complete_graph,
    theta_graph,
)
from tog.rcs import expand_to_depth, init, reflection_system
from tog.twin_theta import (
    IsCircle,
    NotTwinGraph,
    ThetaSumTree,
    _arc,
    _leaf_pair,
    _leaf_pairs,
    _peel,
    essential_vertices,
    is_twin_graph,
    theta_sum_decomposition,
)


def circle(n: int = 4) -> Multigraph:
    vs = [f"v{i}" for i in range(n)]
    return Multigraph(vs, {f"e{i}": (vs[i], vs[(i + 1) % n]) for i in range(n)})


def test_theta_vertices_are_twins():
    g = theta_graph(4)
    rep = is_twin_pair(g, Vertex("u"), Vertex("w"))
    assert rep.is_twin and rep.common_degree == 4 and rep.component_count == 4


def test_interior_pair_on_same_edge_is_twin():
    g = theta_graph(3)
    rep = is_twin_pair(
        g, Interior("e1", Fraction(1, 4)), Interior("e1", Fraction(3, 4))
    )
    assert rep.is_twin and rep.component_count == 2


def test_k4_vertices_have_no_essential_twin():
    g = complete_graph(4)
    for v in g.vertex_ids():
        assert essential_twin(g, v) is None
    assert not is_twin_graph(g)


def test_theta_is_twin_graph_circle_is_degenerate():
    assert is_twin_graph(theta_graph(3))
    assert is_twin_graph(circle())  # no essential vertices to fail
    with pytest.raises(IsCircle):
        theta_sum_decomposition(circle())


def test_decomposition_rejects_non_twin_graph():
    with pytest.raises(NotTwinGraph):
        theta_sum_decomposition(complete_graph(4))
    with pytest.raises(NotTwinGraph):
        theta_sum_decomposition(Multigraph({"v"}, {}))


def test_single_theta_decomposes_to_itself():
    tree = theta_sum_decomposition(theta_graph(5))
    assert tree.summands == [5]
    assert tree.records == []
    assert tree.replay() == theta_graph(5)


def test_two_summand_decomposition_and_replay():
    rng = random.Random(7)
    g, sizes = random_theta_sum(rng)
    tree = theta_sum_decomposition(g)
    assert sorted(tree.summands) == sizes
    assert tree.replay() == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_theta_sum_round_trip_property(seed):
    rng = random.Random(seed)
    g, sizes = random_theta_sum(rng)
    assert is_twin_graph(g)
    tree = theta_sum_decomposition(g)
    assert sorted(tree.summands) == sizes
    assert tree.replay() == g


def essential_twin_pairs(g: Multigraph) -> set[tuple[str, str]]:
    """The essential twin pairs, each vertex checked by the census oracle."""
    pairs = set()
    for x in essential_vertices(g):
        y = essential_twin(g, x)
        assert y is not None
        pairs.add((min(x, y), max(x, y)))
    return pairs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_split_removes_only_its_twin_pair(seed):
    # a split removes its own twin pair and leaves every other essential
    # vertex its twin; recompute the pairs on every intermediate graph of the
    # replay
    g, _ = random_theta_sum(random.Random(seed))
    tree = theta_sum_decomposition(g)
    pairs = essential_twin_pairs(g)
    for i, rec in enumerate(tree.records):
        assert rec.pair in pairs
        pairs.discard(rec.pair)
        after = ThetaSumTree(tree.summands, tree.records[i + 1 :], tree.base).replay()
        assert essential_twin_pairs(after) == pairs


def _twin_or_error(find, g: Multigraph, *x: str):
    try:
        return find(g, *x)
    except SurgeryError as ex:
        return str(ex)


def _scan_twin_graph(g: Multigraph) -> bool:
    return all(scan_twin(g, x) is not None for x in essential_vertices(g))


def chorded_theta_sum(rng: random.Random, count: Optional[int] = None) -> Multigraph:
    """A theta sum of count summands (2-5 if not given) plus one edge between
    two of its vertices: mostly not a twin graph, though often with leaf pairs
    left."""
    g, _ = random_theta_sum(rng, count)
    edges = g.edges
    edges["chord"] = tuple(rng.sample(g.vertex_ids(), 2))
    return Multigraph(g.vertices, edges)


# graphs of count summands (2-5 if None), or 2-connected graphs of at most 12 vertices
TWIN_FAMILIES = {
    "theta-sum": lambda rng, count: random_theta_sum(rng, count)[0],
    "two-connected": lambda rng, count: random_two_connected(rng),
    "chorded": chorded_theta_sum,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TWIN_FAMILIES)), st.integers(0, 10**6))
def test_essential_twin_matches_blow_up_scan(family, seed):
    # the census finds no twin for a vertex already found as one, because an
    # essential vertex of a 2-connected graph has one twin; is_twin_graph
    # peels leaf pairs and finds no twin at all
    g = TWIN_FAMILIES[family](random.Random(seed), None)
    for x in g.vertex_ids():
        if g.degree(x) >= 3:
            assert _twin_or_error(essential_twin, g, x) == _twin_or_error(scan_twin, g, x)
    assert _twin_or_error(is_twin_graph, g) == _twin_or_error(_scan_twin_graph, g)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(TWIN_FAMILIES)), st.integers(2, 32), st.integers(0, 10**6))
def test_arc_test_matches_blow_up_census(family, count, seed):
    # a leaf pair is a twin pair, and twins {x, y} are a leaf pair iff at most
    # one complement component holds an essential vertex; the exits are the
    # edges at x and y into that component
    g = TWIN_FAMILIES[family](random.Random(seed), count)
    links = g._incidence()
    far, heap = _leaf_pairs(links, g._edges)
    assert sorted(far) == essential_vertices(g)
    assert heap == sorted({p for x in far if (p := _leaf_pair(far, x))})
    for x in far:
        y, pair = twin_by_cut_counts(g, x), _leaf_pair(far, x)
        if y is None:
            assert pair is None
            continue
        assert pair in (None, tuple(sorted((x, y))))
        x_exits = exits(g, x, y)
        entries = (x_exits[0], *exits(g, y, x)) if pair and x_exits else None
        assert (pair is not None, entries) == inner_census_by_blow_up(g, x, y)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 32), st.integers(0, 10**6))
def test_peel_matches_scan(count, seed):
    # at every peel, the pair and cut edges equal those of the scan that
    # runs one union-find per twin pair of the remainder; the tables edited in
    # place stay the incidence of the remainder, the kept far ends those of
    # fresh walks of its arcs, and the heap holds every leaf pair and, apart
    # from pairs split before, no other pair
    g, _ = random_theta_sum(random.Random(seed), count)
    links, edges = {v: list(ends) for v, ends in g._incidence().items()}, g.edges
    far, heap = _leaf_pairs(links, edges)
    step = 0
    while True:
        current = Multigraph(links, edges)
        assert {v: sorted(ends) for v, ends in links.items()} == current._incidence()
        assert far == {
            x: [_arc(links, edges, *end)[1] for end in links[x]]
            for x in essential_vertices(current)
        }
        leaves = {p for x in far if (p := _leaf_pair(far, x))}
        assert leaves == {(x, y) for x, y in heap if x in far}
        pair, entries = peel_by_scan(current, twin_census(current))
        _, rec = _peel(links, edges, far, heap, step)
        if rec is None:
            assert entries is None and far == {}
            return
        assert (rec.pair, rec.cut_edges) == (pair, entries)
        step += 1


def test_decomposition_runs_one_cut_counts(monkeypatch):
    # the 2-connectivity check is the only lowpoint DFS: the peel finds its
    # own pairs and decides the verdict without a twin census
    calls = []
    kernel = tog.multigraph.cut_counts

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(tog.multigraph, "cut_counts", counted)
    g, sizes = random_theta_sum(random.Random(64), 64)
    tree = theta_sum_decomposition(g)
    assert sorted(tree.summands) == sizes
    assert len(calls) == 1


def test_replay_builds_one_graph_and_leaves_the_records(monkeypatch):
    # replay glues every record into one pair of tables and builds the graph
    # once, at the end; it reads each summand's piece and never mutates it
    g, _ = random_theta_sum(random.Random(64), 64)
    tree = theta_sum_decomposition(g)
    pieces = [Multigraph(rec.tpiece.vertices, rec.tpiece.edges) for rec in tree.records]
    built = []

    class Counted(Multigraph):
        __slots__ = ()

        def __init__(self, vertices, edges):
            built.append(len(edges))
            super().__init__(vertices, edges)

    monkeypatch.setattr(tog.twin_theta, "Multigraph", Counted)
    first = tree.replay()
    assert len(built) == 1
    assert first == g and tree.replay() == g
    assert [rec.tpiece for rec in tree.records] == pieces


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once seconds have passed, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# the ids a peel or its blow-up makes: join edges, arc halves and divisors
DERIVED_IDS = [
    lambda n, e: f"cj{n}",
    lambda n, e: f"tj{n}",
    lambda n, e: f"{e}.a0",
    lambda n, e: f"{e}@1_2t",
]


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(st.integers(2, 8), st.integers(0, 10**6), st.sampled_from(DERIVED_IDS), st.data())
def test_renamed_edge_decomposes_or_reports_collision(count, seed, derived, data):
    g, sizes = random_theta_sum(random.Random(seed), count)
    ids = g.edge_ids()
    old = data.draw(st.sampled_from(ids))
    new = derived(data.draw(st.integers(0, count - 2)), data.draw(st.sampled_from(ids)))
    assume(new not in ids)
    edges = g.edges
    edges[new] = edges.pop(old)
    renamed = Multigraph(g.vertices, edges)
    try:
        with time_limit(5):
            tree = theta_sum_decomposition(renamed)
    except SurgeryError as ex:
        assert "id collision" in str(ex)
    else:
        assert sorted(tree.summands) == sizes
        assert tree.replay() == renamed


# every id a peel mints, for renaming an edge or a vertex of a theta sum
MINTED_IDS = DERIVED_IDS + [lambda n, e: f"{e}.a1", lambda n, e: f"{e}@1_2h"]


def renamed_theta_sum(rng: random.Random, chorded: bool = False) -> Multigraph:
    """A theta sum of 2-12 summands, chorded or not, with one edge or vertex
    renamed to an id that a peel mints, unless that id is taken."""
    count = rng.randint(2, 12)
    g = chorded_theta_sum(rng, count) if chorded else random_theta_sum(rng, count)[0]
    edges = g.edges
    new = rng.choice(MINTED_IDS)(rng.randrange(count - 1), rng.choice(g.edge_ids()))
    if rng.random() < 0.5:
        if new not in edges:
            edges[new] = edges.pop(rng.choice(g.edge_ids()))
        return Multigraph(g.vertices, edges)
    if new in g.vertices:
        return g
    old = rng.choice(g.vertex_ids())
    ids = {v: v for v in g.vertices} | {old: new}
    return Multigraph(ids.values(), {e: (ids[t], ids[h]) for e, (t, h) in edges.items()})


def decomposed(decompose, g: Multigraph):
    """The tree's JSON, base and replay, or the error's type and text."""
    try:
        tree = decompose(g)
    except SurgeryError as ex:
        return type(ex), str(ex)
    return tree.to_json_dict(), tree.base, tree.replay()


INPUT_FAMILIES = {
    "theta-sum": lambda rng: random_theta_sum(rng, rng.randint(2, 64))[0],
    "two-connected": random_two_connected,
    "renamed": renamed_theta_sum,
    "chorded": lambda rng: chorded_theta_sum(rng, rng.randint(2, 64)),
    "renamed-chorded": lambda rng: renamed_theta_sum(rng, chorded=True),
}


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(st.sampled_from(sorted(INPUT_FAMILIES)), st.integers(0, 10**6))
def test_decomposition_matches_blow_up_peel(family, seed):
    # the leaf-pair peel gives the tree, base and replay, or the error, of
    # the census and blow-up peel, which decides the verdict first: a graph
    # that is not a twin graph reports so even where a split would first mint
    # a taken id
    g = INPUT_FAMILIES[family](random.Random(seed))
    expected = decomposed(decomposition_by_blow_up, g)
    assert decomposed(theta_sum_decomposition, g) == expected
    if family == "theta-sum":
        assert expected[2] == g


def theta3_sum(renames: dict[str, str]) -> Multigraph:
    """theta_3 # theta_3 with some vertex and edge ids renamed: the theta
    graphs on u, w and on p, q, joined by the arcs u-s-p and w-t-q. Its
    first split is at the twin pair (p, q), cutting f and g at 1/2."""
    edges = {"a1": ("u", "w"), "a2": ("u", "w"), "x": ("u", "s"), "f": ("s", "p"),
             "y": ("w", "t"), "g": ("t", "q"), "b1": ("p", "q"), "b2": ("p", "q")}
    ids = {v: renames.get(v, v) for v in "uwpqst"}
    edges = {renames.get(e, e): (ids[t], ids[h]) for e, (t, h) in edges.items()}
    return Multigraph(ids.values(), edges)


HALVES = [Interior("f", Fraction(1, 2)), Interior("g", Fraction(1, 2))]


# several ids a blow-up or a split would mint are taken at once; the one
# minted first is reported. The loci are None where no blow-up applies.
@pytest.mark.parametrize("renames, loci, message", [
    # the divisors along f are minted before its arcs
    ({"s": "f@1_2t", "a1": "f.a0"}, HALVES, "id collision for divisor vertex 'f@1_2t'"),
    # an isolated arc's id is minted before its midpoint
    ({"t": "f.a1.mid", "a2": "f.a1"}, [Vertex("p"), Interior("f", Fraction(1, 2))],
     "id collision for edge 'f.a1'"),
    # a split mints its join edges before the halves of its cut edges
    ({"a1": "cj0", "a2": "f.a0"}, None, "id collision for edge 'cj0'"),
], ids=["divisor-before-arc", "arc-before-mid", "join-before-half"])
def test_collisions_are_reported_in_minting_order(renames, loci, message):
    g = theta3_sum(renames)
    if loci is not None:
        for surgery in (blow_up, complement_components):
            with pytest.raises(SurgeryError) as ex:
                surgery(g, loci)
            assert str(ex.value) == message
    with pytest.raises(SurgeryError) as ex:
        theta_sum_decomposition(g)
    assert str(ex.value) == message


def test_verdict_comes_before_collision():
    # the first split, at (p, q), mints the taken cj0. With the chord s-q, q
    # has degree 4 and no twin; the first split is then at the one leaf pair
    # (u, w) and would mint cj0 too, but the verdict comes first
    g = theta3_sum({"a1": "cj0"})
    with pytest.raises(SurgeryError) as ex:
        theta_sum_decomposition(g)
    assert type(ex.value) is SurgeryError and str(ex.value) == "id collision for edge 'cj0'"
    edges = g.edges
    edges["h"] = ("s", "q")
    with pytest.raises(NotTwinGraph, match="^input is not a twin graph$"):
        theta_sum_decomposition(Multigraph(g.vertices, edges))


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # synthesize warns of omitted sharp orientations
    RACG1 = synthesize(golden_racg1())[0]


@pytest.mark.filterwarnings("ignore::UserWarning")  # resolution below partner count
@pytest.mark.parametrize(
    "system, root",
    [(reflection_system(theta_graph(k)), 0) for k in (3, 4, 5)]
    + [(RACG1, root) for root in range(3)],
    ids=["theta3", "theta4", "theta5", "racg1-0", "racg1-1", "racg1-2"],
)
@pytest.mark.parametrize("r", [1, 2])
def test_expansion_decomposes_into_its_copies(system, root, r):
    pu = init(system, root, r)
    for depth in range(4):
        pu = expand_to_depth(pu, depth)
        tree = theta_sum_decomposition(pu.graph)
        assert sorted(tree.summands) == expansion_summands(pu)
        assert tree.replay() == pu.graph


@pytest.mark.filterwarnings("ignore::UserWarning")  # omitted sharps, resolution below partners
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_valence_expansion_decomposes_into_its_copies(seed):
    # the same property on the system that jsj synth builds from random
    # valence-only input, from every root
    system = synthesize(random_valence_input(random.Random(seed)))[0]
    for root in range(len(system.names)):
        for r in (1, 2):
            pu = init(system, root, r)
            for depth in range(3):
                pu = expand_to_depth(pu, depth)
                tree = theta_sum_decomposition(pu.graph)
                assert sorted(tree.summands) == expansion_summands(pu)
                assert tree.replay() == pu.graph


@pytest.mark.parametrize(
    "g",
    [
        expand_to_depth(init(reflection_system(theta_graph(3)), 0, 2), 3).graph,
        random_theta_sum(random.Random(64), 64)[0],
    ],
    ids=["theta3-union-d3", "sum-64"],
)
def test_each_arc_is_walked_from_each_end_and_once_more(monkeypatch, g):
    # _leaf_pairs walks every arc from both its ends and a split walks only
    # the arcs it deletes, whose edges are input edges, cut halves and one
    # join edge per earlier split: about 3 steps per input edge. An arc
    # walked again after every split would cost far more on long chains
    steps = []
    walk = tog.twin_theta._arc

    def counted(*args):
        path, w = walk(*args)
        steps.append(len(path))
        return path, w

    monkeypatch.setattr(tog.twin_theta, "_arc", counted)
    theta_sum_decomposition(g)
    assert sum(steps) <= 4 * len(g.edges)


def test_essential_twin_requires_essential_vertex():
    g = circle()
    with pytest.raises(SurgeryError):
        essential_twin(g, "v0")


def test_essential_vertices_of_theta():
    assert essential_vertices(theta_graph(3)) == ["u", "w"]
    assert essential_vertices(circle()) == []


def test_tree_json_shape():
    rng = random.Random(3)
    g, sizes = random_theta_sum(rng)
    doc = theta_sum_decomposition(g).to_json_dict()
    assert doc["schema"] == "tog/1"
    assert sorted(doc["summands"]) == sizes
    assert len(doc["record"]) == len(sizes) - 1
