"""Acceptance suite: the golden examples and counted property criteria.

Each test also enforces its wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from generators import random_sum_pair, random_theta_sum, random_two_connected, random_vsystem
from oracles import is_isomorphic
from tog.jsj_frontend import golden_g2, golden_racg1, synthesize
from tog.multigraph import complete_graph, is_two_connected, theta_graph
from tog.rcs import (
    analyze_point,
    compose_cell_maps,
    expand,
    expand_to_depth,
    init,
    project,
    reflection_system,
)
from tog.twin_theta import essential_twin, theta_sum_decomposition
from tog.vsystem import (
    bar,
    has_nonorientable_line,
    lines,
    lines_sharing_ends,
    theta_standard_system,
    validate as vs_validate,
)
from tog.words_whitehead import (
    cyclically_reduce,
    whitehead_graph,
    whitehead_v_involution,
)


class budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"budget exceeded: {elapsed:.2f}s"


def k4_words():
    return [
        cyclically_reduce("a", "la"),
        cyclically_reduce("b", "lb"),
        cyclically_reduce("abAB", "lc"),
    ]


def test_01_whitehead_golden_k4():
    with budget(1):
        W = whitehead_graph(2, k4_words())
        assert is_isomorphic(W.graph, complete_graph(4))
        by_label = {}
        for e, lab in W.edge_labels.items():
            by_label.setdefault(lab, []).append(e)
        # exactly 4 commutator edges forming a 4-cycle on the letters
        assert len(by_label["lc"]) == 4
        cyc_deg = {}
        for e in by_label["lc"]:
            for v in W.graph.ends(e):
                cyc_deg[v] = cyc_deg.get(v, 0) + 1
        assert cyc_deg == {"a": 2, "A": 2, "b": 2, "B": 2}
        # two diagonal edges labelled by a and b
        assert len(by_label["la"]) == 1 and len(by_label["lb"]) == 1
        assert set(W.graph.ends(by_label["la"][0])) == {"a", "A"}
        assert set(W.graph.ends(by_label["lb"][0])) == {"b", "B"}


def test_02_jsj_golden_g2():
    with budget(1):
        sys_, _ = synthesize(golden_g2())
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


def test_03_jsj_golden_racg():
    with budget(1):
        sys_, ledger = synthesize(golden_racg1())
        ks = sorted(len(c.edges) for c in sys_.components)
        assert ks == [3, 4, 4]
        for k, comp in zip(
            [len(c.edges) for c in sys_.components], sys_.components
        ):
            assert is_isomorphic(comp, theta_graph(k))
        sizes = sorted(len(b["edges"]) for b in ledger.blocks.values())
        assert sizes == [1, 1, 2, 2, 5]
        expected = set()
        for b in ledger.blocks.values():
            pm = [(e, o) for e in b["edges"] for o in (0, 1)]
            expected.update((o1, o2) for o1 in pm for o2 in pm)
        assert set(sys_.econnections) == expected


def test_04_connected_sum_two_connectivity():
    with budget(30):
        rng = random.Random(20260824)
        for _ in range(200):
            g1 = random_two_connected(rng, 12)
            g2 = random_two_connected(rng, 12)
            res = random_sum_pair(rng, g1, g2)
            assert is_two_connected(res.graph)


def test_05_theta_sum_round_trip():
    with budget(60):
        rng = random.Random(471)
        for _ in range(100):
            g, sizes = random_theta_sum(rng)
            tree = theta_sum_decomposition(g)
            assert sorted(tree.summands) == sizes


def test_06_k4_is_not_a_twin_graph():
    with budget(1):
        g = complete_graph(4)
        for v in g.vertex_ids():
            assert essential_twin(g, v) is None


def test_07_orientability_agreement():
    with budget(30):
        rng = random.Random(93)
        for _ in range(500):
            vs = random_vsystem(rng, 8)
            assert vs_validate(vs) == []
            ls = lines(vs)
            orbit_answer = any(
                any(bar(x) in ln.orbit for x in ln.orbit) for ln in ls
            )
            assert has_nonorientable_line(vs) == orbit_answer
            assert orbit_answer == any(not ln.orientable for ln in ls)


def test_08_line_census():
    with budget(1):
        for k in (3, 4, 5):
            vs = theta_standard_system(k)
            ls = lines(vs)
            assert len(ls) == k
            assert all(len(ln.edge_class) == 1 for ln in ls)
            groups = lines_sharing_ends(vs)
            assert len(groups) == 1 and len(groups[0]) == k
        vs = whitehead_v_involution(whitehead_graph(2, k4_words()))
        ls = lines(vs)
        assert len(ls) == 3
        assert sorted(len(ln.edge_class) for ln in ls) == [1, 1, 4]
        assert all(ln.orientable for ln in ls)
        assert all(len(grp) == 1 for grp in lines_sharing_ends(vs))


def test_09_expansion_coherence():
    with budget(30):
        sys_ = reflection_system(theta_graph(3))
        pus = [expand_to_depth(init(sys_, 0, 2), d) for d in range(4)]
        # functoriality
        m10 = project(pus[1], pus[0])
        m21 = project(pus[2], pus[1])
        m32 = project(pus[3], pus[2])
        m20 = project(pus[2], pus[0])
        m30 = project(pus[3], pus[0])
        assert compose_cell_maps(m10, m21) == m20
        assert compose_cell_maps(m20, m32) == m30
        # 2-connectivity at every depth
        for pu in pus:
            assert is_two_connected(pu.graph)
        # essential-vertex lift: degree 3 at every depth
        trace = analyze_point(pus, ("n", "c0:u"))
        assert [e["degree"] for e in trace.entries] == [3, 3, 3, 3]
        # stable interior point: degree 2 at every depth
        trace2 = analyze_point(pus, ("n", "c0:e1", Fraction(1, 5)))
        assert [e["degree"] for e in trace2.entries] == [2, 2, 2, 2]


def test_10_expand_determinism_on_g2():
    with budget(10):
        sys_, _ = synthesize(golden_g2())
        # an edge of g2 has 8 partners, more than the resolution shows
        with pytest.warns(UserWarning, match="below partner count"):
            out1 = json.dumps(
                expand(sys_, root=0, depth=2, resolution=2).to_json_dict(),
                sort_keys=True, indent=2,
            )
        with pytest.warns(UserWarning, match="below partner count"):
            out2 = json.dumps(
                expand(sys_, root=0, depth=2, resolution=2).to_json_dict(),
                sort_keys=True, indent=2,
            )
        assert out1 == out2
        assert len(out1) > 0
