"""Tests for connecting V-systems, lines, and orientability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_vsystem
from oracles import share_ends
from tog.multigraph import Multigraph, theta_graph
from tog.vsystem import (
    ConnectingVSystem,
    bar,
    has_nonorientable_line,
    lines,
    lines_report,
    lines_sharing_ends,
    predecessor,
    successor,
    theta_standard_system,
    validate,
)
from tog.words_whitehead import (
    cyclically_reduce,
    whitehead_graph,
    whitehead_v_involution,
)


def k4_whitehead_system():
    words = [
        cyclically_reduce("a", "la"),
        cyclically_reduce("b", "lb"),
        cyclically_reduce("abAB", "lc"),
    ]
    return whitehead_v_involution(whitehead_graph(2, words))


# -- validation ------------------------------------------------------------


def test_validate_flags_loops_and_isolated():
    g = Multigraph({"u", "w", "z"}, {"e": ("u", "w"), "l": ("u", "u")})
    vs = ConnectingVSystem(g, {"u": "u", "w": "w", "z": "z"}, {})
    codes = validate(vs)
    assert any(c.startswith("LoopEdge") for c in codes)
    assert any(c.startswith("IsolatedVertex") for c in codes)


def test_validate_flags_degree_mismatch():
    g = theta_graph(3)
    h = Multigraph(
        set(g.vertices) | {"x"}, {**g.edges, "f": ("u", "x")}
    )
    vs = ConnectingVSystem(h, {"u": "x", "x": "u", "w": "w"}, {})
    assert any(c.startswith("DegreeMismatch") for c in validate(vs))


def test_validate_flags_non_inverse_alpha():
    g = theta_graph(3)
    alpha = {
        "u": {("e1", 0): ("e1", 1), ("e2", 0): ("e2", 1), ("e3", 0): ("e3", 1)},
        "w": {("e1", 1): ("e1", 0), ("e2", 1): ("e3", 0), ("e3", 1): ("e2", 0)},
    }
    vs = ConnectingVSystem(g, {"u": "w", "w": "u"}, alpha)
    assert any(c.startswith("AlphaNotInverse") for c in validate(vs))


def test_random_systems_are_valid():
    for seed in range(50):
        vs = random_vsystem(random.Random(seed))
        assert validate(vs) == []


# -- successor and lines ---------------------------------------------------


def test_theta_standard_lines():
    for k in (3, 4, 6):
        vs = theta_standard_system(k)
        assert validate(vs) == []
        ls = lines(vs)
        assert len(ls) == k
        assert all(ln.period == 1 and ln.orientable for ln in ls)
        assert all(len(ln.edge_class) == 1 for ln in ls)
        groups = lines_sharing_ends(vs)
        assert len(groups) == 1 and len(groups[0]) == k


def test_successor_is_bijective_with_predecessor_inverse():
    vs = k4_whitehead_system()
    oe = vs.oriented_edges()
    images = {successor(vs, e) for e in oe}
    assert images == set(oe)
    for e in oe:
        assert predecessor(vs, successor(vs, e)) == e


def test_k4_whitehead_line_census():
    vs = k4_whitehead_system()
    ls = lines(vs)
    assert len(ls) == 3
    assert sorted(len(ln.edge_class) for ln in ls) == [1, 1, 4]
    assert all(ln.orientable for ln in ls)
    groups = lines_sharing_ends(vs)
    assert all(len(grp) == 1 for grp in groups)
    assert not has_nonorientable_line(vs)


def test_reflection_style_system_is_nonorientable():
    g = theta_graph(3)
    vs = ConnectingVSystem(
        g,
        {"u": "u", "w": "w"},
        {
            "u": {(e, 0): (e, 0) for e in g.edge_ids()},
            "w": {(e, 1): (e, 1) for e in g.edge_ids()},
        },
    )
    assert validate(vs) == []
    assert has_nonorientable_line(vs)
    assert all(not ln.orientable for ln in lines(vs))
    # each orbit contains both orientations of its edge
    for ln in lines(vs):
        assert any(bar(x) in ln.orbit for x in ln.orbit)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_orientability_criterion_agrees_with_orbits(seed):
    vs = random_vsystem(random.Random(seed))
    orbit_answer = any(not ln.orientable for ln in lines(vs))
    assert has_nonorientable_line(vs) == orbit_answer


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_end_pair_groups_match_pairwise_oracle(seed):
    rng = random.Random(seed)
    vs = random_vsystem(rng) if seed % 4 else theta_standard_system(rng.randint(2, 8))
    groups = lines_sharing_ends(vs)
    ls = lines(vs)
    orbits = [[ln.orbit for ln in grp] for grp in groups]
    # a partition of the lines; each group, and the groups by first orbit, in orbit order
    assert sorted(o for grp in orbits for o in grp) == [ln.orbit for ln in ls]
    assert all(grp == sorted(grp) for grp in orbits)
    assert [grp[0] for grp in orbits] == sorted(grp[0] for grp in orbits)
    group_of = {o: i for i, grp in enumerate(orbits) for o in grp}
    for l1 in ls:
        for l2 in ls:
            assert (group_of[l1.orbit] == group_of[l2.orbit]) == share_ends(vs, l1, l2)


def test_lines_partition_oriented_edges():
    for seed in range(30):
        vs = random_vsystem(random.Random(seed))
        oe = set(vs.oriented_edges())
        covered = []
        for ln in lines(vs):
            covered.extend(ln.orbit)
            if ln.orientable:
                covered.extend(bar(x) for x in ln.orbit)
        assert sorted(covered) == sorted(oe)


def test_json_round_trip_and_report():
    vs = theta_standard_system(4)
    back = ConnectingVSystem.from_json_dict(vs.to_json_dict())
    assert back.to_json_dict() == vs.to_json_dict()
    rep = lines_report(vs)
    assert rep["schema"] == "tog/1"
    assert len(rep["lines"]) == 4
    assert rep["end_pair_groups"] == [[0, 1, 2, 3]]
    assert rep["has_nonorientable_line"] is False
