"""Tests for twin pairs and the theta-sum decomposition."""

import random
import signal
import warnings
from contextlib import contextmanager
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generators import random_theta_sum, random_two_connected
from oracles import inner_census_by_blow_up, peel_by_scan, scan_twin
from tog.jsj_frontend import golden_racg1, synthesize
from tog.multigraph import (
    Interior,
    Multigraph,
    SurgeryError,
    Vertex,
    complete_graph,
    theta_graph,
)
from tog.rcs import expand_to_depth, init, reflection_system
from tog.twin_theta import (
    IsCircle,
    NotTwinGraph,
    ThetaSumTree,
    _exits,
    _peel,
    _twin_pairs,
    essential_twin,
    essential_vertices,
    is_twin_graph,
    is_twin_pair,
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
    """The essential twin pairs, each vertex checked by the public scan."""
    pairs = set()
    for x in essential_vertices(g):
        y = essential_twin(g, x)
        assert y is not None
        pairs.add((min(x, y), max(x, y)))
    return pairs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_split_removes_only_its_twin_pair(seed):
    # the decomposition computes the twin pairs once and drops each split's
    # pair; recompute them on every intermediate graph of the replay
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


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(0, 10**6))
def test_essential_twin_matches_blow_up_scan(theta_sum, seed):
    # is_twin_graph searches no twin for a vertex already found as one; that
    # holds because an essential vertex of a 2-connected graph has one twin
    rng = random.Random(seed)
    g = random_theta_sum(rng)[0] if theta_sum else random_two_connected(rng)
    for x in g.vertex_ids():
        if g.degree(x) >= 3:
            assert _twin_or_error(essential_twin, g, x) == _twin_or_error(scan_twin, g, x)
    assert _twin_or_error(is_twin_graph, g) == _twin_or_error(_scan_twin_graph, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 32), st.integers(0, 10**6))
def test_arc_test_matches_blow_up_census(count, seed):
    # at most one complement component of twins {x, y} holds an essential
    # vertex iff at most one arc out of x does not end at y
    g, _ = random_theta_sum(random.Random(seed), count)
    for x, y in _twin_pairs(g):
        exits = _exits(g, x, y)
        entries = (exits[0], *_exits(g, y, x)) if len(exits) == 1 else None
        assert (len(exits) <= 1, entries) == inner_census_by_blow_up(g, x, y)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 32), st.integers(0, 10**6))
def test_peel_matches_scan(count, seed):
    # at every peel, the pair and cut edges equal those of the scan that
    # runs one union-find per candidate pair
    g, _ = random_theta_sum(random.Random(seed), count)
    pairs = _twin_pairs(g)
    current, step = g, 0
    while True:
        pair, entries = peel_by_scan(current, list(pairs))
        _, rec, current = _peel(current, pairs, step)
        if rec is None:
            assert entries is None and pairs == []
            return
        assert (rec.pair, rec.cut_edges) == (pair, entries)
        step += 1


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


def expansion_summands(pu) -> list[int]:
    """The summand sizes of an expansion read off its tree: the edge count of
    the component of the root and of each E-glued copy. A V-gluing of two
    theta graphs at a vertex is again that theta graph, so it adds none."""
    return sorted(
        len(pu.rcs.component_cells(info.component)[1])
        for info in pu.nodes.values()
        if info.via is None or info.via.kind == "E"
    )


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
    for depth in range(3):
        pu = expand_to_depth(pu, depth)
        tree = theta_sum_decomposition(pu.graph)
        assert sorted(tree.summands) == expansion_summands(pu)
        assert tree.replay() == pu.graph


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
