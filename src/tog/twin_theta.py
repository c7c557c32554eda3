"""Twin-pair analysis and decomposition of twin graphs into thick theta sums.

A twin pair is a pair of points whose common degree equals the number of
components of the complement of the pair. A twin graph is a 2-connected graph
in which every point has a twin; away from the circle these are exactly the
finite connected sums of thick theta graphs, and theta_sum_decomposition
recovers the summand sizes by repeatedly splitting off a theta summand at an
essential twin pair whose complement has at most one component containing
essential vertices.

The essential twin pairs are found once, each with its count of complement
components that hold an essential vertex, by the lowpoint DFS that finds it.
A split at {x, y} cuts off a connected piece whose only essential vertices are
x and y; it meets the remainder only at two cut points, which a join edge then
connects. So the remainder's twin pairs are the old ones minus {x, y}, and
only one count drops: that of the pair {a, b} where the arcs out of the piece
end, which loses the component that held just x and y. Only the split blows up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .multigraph import (
    Interior,
    Multigraph,
    PointLocus,
    SurgeryError,
    Vertex,
    blow_up,
    complement_components,
    components,
    cut_counts,
    is_two_connected,
)


class NotTwinGraph(SurgeryError):
    pass


class IsCircle(SurgeryError):
    pass


@dataclass(frozen=True)
class TwinReport:
    pair: tuple[PointLocus, PointLocus]
    common_degree: Optional[int]
    component_count: int
    is_twin: bool


def _locus_degree(g: Multigraph, x: PointLocus) -> int:
    if isinstance(x, Vertex):
        return g.degree(x.vertex)
    return 2


def is_twin_pair(g: Multigraph, x: PointLocus, y: PointLocus) -> TwinReport:
    """Check whether two distinct points of a 2-connected graph are twins."""
    if x == y:
        raise SurgeryError("twin pair loci must be distinct")
    if not is_two_connected(g):
        raise SurgeryError("twin analysis requires a 2-connected graph")
    dx, dy = _locus_degree(g, x), _locus_degree(g, y)
    count, _ = complement_components(g, [x, y])
    common = dx if dx == dy else None
    return TwinReport((x, y), common, count, common is not None and common == count)


def essential_twin(g: Multigraph, x: str) -> Optional[str]:
    """The unique twin vertex of an essential vertex x, if one exists."""
    if not is_two_connected(g):
        raise SurgeryError("twin analysis requires a 2-connected graph")
    if g.degree(x) < 3:
        raise SurgeryError("essential_twin requires a vertex of degree >= 3")
    return _twin_of(g, x, set(essential_vertices(g)))[0]


def _twin_of(g: Multigraph, x: str, essential: set[str]) -> tuple[Optional[str], int]:
    """The twin y of an essential vertex x of a 2-connected graph g, and how
    many components of the complement of {x, y} hold an essential vertex.

    The twin of a vertex of degree >= 3 must itself be a vertex y of the same
    degree. The complement of {x, y} is (g - x) - y, counted by one cut-point
    census of g - x, plus one open arc per edge between x and y; the arcs
    hold no vertex, so the census also counts the essential components.
    """
    links = g._incidence()
    d = len(links[x])
    _, pieces, held = cut_counts(g, x, essential)
    arcs = Counter(g.ends(e)[1 - i] for e, i in links[x])
    found = sorted(y for y, n in pieces.items() if len(links[y]) == d and n + arcs[y] == d)
    if len(found) > 1:
        raise SurgeryError(f"vertex {x!r} has more than one twin: {found}")
    return (found[0], held[found[0]]) if found else (None, 0)


def essential_vertices(g: Multigraph) -> list[str]:
    return [v for v in g.vertex_ids() if g.degree(v) != 2]


def _twin_pairs(g: Multigraph) -> Optional[dict[tuple[str, str], int]]:
    """The essential twin pairs (x < y) of a 2-connected graph g, in sorted
    order, each with the number of components of its complement that hold an
    essential vertex; None if some essential vertex has no twin.

    An essential vertex has at most one twin: each complement component takes
    one of the d edge-ends at x, so if y were also the twin of some z != x,
    the component of g - {y, z} holding x would take d - 1 >= 2 ends at y.
    So the twin of a vertex needs no search of its own.
    """
    essential = {v for v, ends in g._incidence().items() if len(ends) != 2}
    counts: dict[tuple[str, str], int] = {}
    paired: set[str] = set()
    for x in sorted(essential):
        if x in paired:
            continue
        y, held = _twin_of(g, x, essential)
        if y is None:
            return None
        paired.add(y)
        counts[x, y] = held  # y > x, or x would have been paired already
    return counts


def is_twin_graph(g: Multigraph) -> bool:
    """True iff g is 2-connected and every essential vertex has a twin.

    Degree-2 points of a 2-connected graph always have twins, so only the
    essential vertices need checking; those have degree >= 3, since a vertex
    of degree 0 or 1 would be isolated or end a bridge.
    """
    return is_two_connected(g) and _twin_pairs(g) is not None


@dataclass
class SplitRecord:
    """One split of the decomposition: a theta summand cut off at two arcs.

    cut_edges are the two edges of the parent graph (one at each twin vertex,
    leading into the essential component) that were severed at their midpoints;
    tpiece is the theta-side piece including the closing join edge tjoin, and
    cjoin closes the remainder. divisor_pairs records, per cut edge, the
    (theta-side, remainder-side) divisor vertices, i.e. the bijection along
    which re-gluing reverses the split.
    """

    summand: int
    pair: tuple[str, str]
    cut_edges: tuple[str, str]
    tpiece: Multigraph
    tjoin: str
    cjoin: str
    divisor_pairs: dict[str, tuple[str, str]]


@dataclass
class ThetaSumTree:
    summands: list[int]
    records: list[SplitRecord]
    base: Multigraph

    def replay(self) -> Multigraph:
        """Reverse the splits; reproduces the decomposed graph exactly."""
        cur = self.base
        for rec in reversed(self.records):
            cur = _unsplit(rec, cur)
        return cur

    def to_json_dict(self) -> dict:
        return {
            "schema": "tog/1",
            "summands": list(self.summands),
            "record": [
                {
                    "summand": rec.summand,
                    "pair": list(rec.pair),
                    "cut_edges": list(rec.cut_edges),
                    "bijection": {e: list(p) for e, p in sorted(rec.divisor_pairs.items())},
                }
                for rec in self.records
            ],
        }


def _exit(g: Multigraph, x: str, y: str) -> tuple[str, str]:
    """The one edge at x whose arc through degree-2 vertices does not end at
    y, and the essential vertex where that arc ends."""
    exits = []
    for e, i in g.link(x):
        f, w = e, g.ends(e)[1 - i]
        while g.degree(w) == 2:
            f, j = next((h, j) for h, j in g.link(w) if h != f)
            w = g.ends(f)[1 - j]
        if w != y:
            exits.append((e, w))
    if len(exits) != 1:
        raise SurgeryError("essential component not attached by a single edge")
    return exits[0]


def _unsplit(rec: SplitRecord, cpiece: Multigraph) -> Multigraph:
    """Glue a theta-side piece back onto the remainder, reversing one split."""
    vertices = set(rec.tpiece.vertices) | set(cpiece.vertices)
    edges = {**rec.tpiece.edges, **cpiece.edges}
    del edges[rec.tjoin]
    del edges[rec.cjoin]
    for e in rec.cut_edges:
        a0, a1 = f"{e}.a0", f"{e}.a1"
        t = edges[a0][0]
        h = edges[a1][1]
        dt, dh = edges[a0][1], edges[a1][0]
        del edges[a0]
        del edges[a1]
        vertices.discard(dt)
        vertices.discard(dh)
        edges[e] = (t, h)
    return Multigraph(vertices, edges)


def _peel(g: Multigraph, counts: dict[tuple[str, str], int], step: int):
    """Split off the theta summand at the first pair of counts with at most one
    essential complement component: its size, its split record (None when g is
    that theta) and the remainder. counts is updated to the remainder's: the
    pair leaves, and the pair {a, b} ending the arcs out of x and y loses the
    complement component whose only essential vertices were x and y."""
    x, y = next((p for p, n in counts.items() if n <= 1), (None, None))
    if x is None:
        raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")
    k = g.degree(x)
    if counts.pop((x, y)) == 0:
        return k, None, g
    # the edges at x and y leading into the essential component
    (e_x, a), (e_y, b) = _exit(g, x, y), _exit(g, y, x)
    half = Fraction(1, 2)
    rs = blow_up(g, [Interior(e_x, half), Interior(e_y, half)])
    scomps = components(rs.graph)
    swhere = {v: i for i, comp in enumerate(scomps) for v in comp}
    theta_side = swhere[x]
    if len(scomps) != 2:
        raise SurgeryError("cutting the two arcs did not split the graph in two")

    tjoin, cjoin = f"tj{step}", f"cj{step}"
    tverts = {v for v in rs.graph.vertices if swhere[v] == theta_side}
    cverts = set(rs.graph.vertices) - tverts
    tedges = {e: ends for e, ends in rs.graph.edges.items() if ends[0] in tverts}
    cedges = {e: ends for e, ends in rs.graph.edges.items() if ends[0] in cverts}

    pairs = {}  # per cut edge, its (theta-side, remainder-side) divisors
    for e in (e_x, e_y):
        side = {desc[1]: d for d, desc in rs.divisors[Interior(e, half)].items()}
        t, h = side["tail"], side["head"]
        pairs[e] = (t, h) if t in tverts else (h, t)
    (tx, cx), (ty, cy) = pairs[e_x], pairs[e_y]
    tedges[tjoin] = (tx, ty)
    cedges[cjoin] = (cx, cy)
    tpiece = Multigraph(tverts, tedges)
    cpiece = Multigraph(cverts, cedges)

    ab = (min(a, b), max(a, b))
    if ab in counts:
        counts[ab] -= 1
    return k, SplitRecord(k, (x, y), (e_x, e_y), tpiece, tjoin, cjoin, pairs), cpiece


def theta_sum_decomposition(g: Multigraph) -> ThetaSumTree:
    """Decompose a twin graph (not a circle) into thick theta summand sizes."""
    counts = _twin_pairs(g) if is_two_connected(g) else None
    if counts is None:
        raise NotTwinGraph("input is not a twin graph")
    if not essential_vertices(g):
        raise IsCircle("input is homeomorphic to the circle")

    summands, records, current = [], [], g
    while True:
        k, rec, current = _peel(current, counts, len(records))
        summands.append(k)
        if rec is None:
            return ThetaSumTree(summands, records, current)
        records.append(rec)
