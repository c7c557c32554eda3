"""Tests for cyclic words and Whitehead graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_isomorphic
from tog.multigraph import complete_graph, is_two_connected
from tog.vsystem import validate as vs_validate
from tog.words_whitehead import (
    ConjugateWords,
    CyclicWord,
    EmptyAfterReduction,
    InvalidWord,
    IsolatedVertex,
    PeriodicWord,
    PeripheralSpec,
    check_rigidity_proxy,
    conjugate_up_to_inversion,
    cyclically_reduce,
    extended_whitehead_graph,
    parse_word,
    whitehead_graph,
    whitehead_v_involution,
    word_str,
)


# -- word handling ---------------------------------------------------------


def test_parse_and_str_round_trip():
    assert parse_word("abAB") == (1, 2, -1, -2)
    assert word_str((1, 2, -1, -2)) == "abAB"
    with pytest.raises(InvalidWord):
        parse_word("a b")


def test_cyclic_reduction():
    assert cyclically_reduce("aBbA a".replace(" ", "")).letters == (1,)
    assert cyclically_reduce("Bab").letters == (1,)  # cyclic conjugation
    with pytest.raises(PeriodicWord):
        cyclically_reduce("Baab")  # reduces to the proper power aa
    with pytest.raises(EmptyAfterReduction):
        cyclically_reduce("aA")
    with pytest.raises(PeriodicWord):
        cyclically_reduce("abab")


def test_conjugacy_up_to_inversion():
    w1 = cyclically_reduce("abAB")
    w2 = cyclically_reduce("bABa")
    w3 = cyclically_reduce("baBA")  # the inverse
    assert conjugate_up_to_inversion(w1, w2)
    assert conjugate_up_to_inversion(w1, w3)
    assert not conjugate_up_to_inversion(w1, cyclically_reduce("ab"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([1, 2, -1, -2, 3, -3]), min_size=1, max_size=10))
def test_reduction_is_idempotent(letters):
    try:
        w = cyclically_reduce(letters)
    except (EmptyAfterReduction, PeriodicWord):
        return
    assert cyclically_reduce(w.letters) == CyclicWord(w.letters, w.label)


# -- Whitehead graphs ------------------------------------------------------


def word_fixture():
    return [
        cyclically_reduce("a", "la"),
        cyclically_reduce("b", "lb"),
        cyclically_reduce("abAB", "lc"),
    ]


def test_k4_whitehead_golden():
    W = whitehead_graph(2, word_fixture())
    assert is_isomorphic(W.graph, complete_graph(4))
    by_label = {}
    for e, lab in W.edge_labels.items():
        by_label.setdefault(lab, []).append(e)
    assert len(by_label["la"]) == 1 and len(by_label["lb"]) == 1
    assert len(by_label["lc"]) == 4
    # the diagonals join inverse letters
    assert set(W.graph.ends(by_label["la"][0])) == {"a", "A"}
    assert set(W.graph.ends(by_label["lb"][0])) == {"b", "B"}
    # the commutator edges form a 4-cycle on all four letters
    cyc = by_label["lc"]
    degree = {}
    for e in cyc:
        for v in W.graph.ends(e):
            degree[v] = degree.get(v, 0) + 1
    assert degree == {"a": 2, "A": 2, "b": 2, "B": 2}


def test_whitehead_rejects_bad_input():
    with pytest.raises(InvalidWord):
        whitehead_graph(1, [cyclically_reduce("a")])
    with pytest.raises(InvalidWord):
        whitehead_graph(2, [cyclically_reduce("abc")])
    with pytest.raises(ConjugateWords):
        whitehead_graph(2, [cyclically_reduce("ab"), cyclically_reduce("BA")])


def test_v_involution_valid_and_isolated_vertex():
    W = whitehead_graph(2, word_fixture())
    vsys = whitehead_v_involution(W)
    assert vs_validate(vsys) == []
    assert vsys.a["a"] == "A" and vsys.a["B"] == "b"
    W2 = whitehead_graph(2, [cyclically_reduce("a")])
    with pytest.raises(IsolatedVertex):
        whitehead_v_involution(W2)


def test_extended_graph_copies_and_lifted_system():
    specs = [
        PeripheralSpec(cyclically_reduce("a", "la"), 2),
        PeripheralSpec(cyclically_reduce("b", "lb"), 3),
        PeripheralSpec(cyclically_reduce("abAB", "lc"), 2),
    ]
    W, vsys = extended_whitehead_graph(2, specs)
    # one copy of each a/c edge, two copies of the b edge
    assert len(W.graph.edges) == 1 + 2 + 4
    assert vs_validate(vsys) == []
    labels = sorted(set(W.edge_labels.values()))
    assert labels == [("la", 1), ("lb", 1), ("lb", 2), ("lc", 1)]


def test_extended_all_two_isomorphic_to_base():
    specs = [PeripheralSpec(w, 2) for w in word_fixture()]
    W, _ = extended_whitehead_graph(2, specs)
    base = whitehead_graph(2, word_fixture())
    assert is_isomorphic(W.graph, base.graph)


def test_rigidity_proxy():
    assert check_rigidity_proxy(whitehead_graph(2, word_fixture()))
    assert not check_rigidity_proxy(whitehead_graph(2, [cyclically_reduce("ab")]))
    assert is_two_connected(whitehead_graph(2, word_fixture()).graph)
