"""Twin-pair analysis and decomposition of twin graphs into thick theta sums.

A twin pair is a pair of points whose common degree equals the number of
components of the complement of the pair. A twin graph is a 2-connected graph
in which every point has a twin; away from the circle these are exactly the
finite connected sums of thick theta graphs, and theta_sum_decomposition
recovers the summand sizes by repeatedly splitting off a theta summand at an
essential twin pair whose complement has at most one component containing
essential vertices.

The essential twin pairs are computed once. A split at {x, y} cuts off a
connected piece whose only essential vertices are x and y; it meets the
remainder only at the two cut points, which a single join edge then connects.
So for essential u, v of the remainder, the degrees and the components of the
complement of {u, v} are unchanged: its twin pairs are the old ones minus {x, y}.

Each peel reads the essential components of the complement of a candidate
pair, and the edges into them, from a union-find; only the split blows up.
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
    _complement,
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
    return _twin_of(g, x)


def _twin_of(g: Multigraph, x: str) -> Optional[str]:
    """The twin of an essential vertex x of a 2-connected graph g.

    The twin of a vertex of degree >= 3 must itself be a vertex y of the same
    degree. The complement of {x, y} is (g - x) - y, counted by one cut-point
    census of g - x, plus one open arc per edge between x and y.
    """
    d = g.degree(x)
    _, pieces = cut_counts(g, x)
    arcs = Counter(g.ends(e)[1 - i] for e, i in g.link(x))
    found = [
        y
        for y in g.vertex_ids()
        if y != x and g.degree(y) == d and pieces[y] + arcs[y] == d
    ]
    if len(found) > 1:
        raise SurgeryError(f"vertex {x!r} has more than one twin: {found}")
    return found[0] if found else None


def essential_vertices(g: Multigraph) -> list[str]:
    return [v for v in g.vertex_ids() if g.degree(v) != 2]


def _twin_pairs(g: Multigraph) -> Optional[list[tuple[str, str]]]:
    """The sorted essential twin pairs (x < y) of a 2-connected graph g, or
    None if some essential vertex has no twin."""
    pairs = []
    for x in essential_vertices(g):
        y = _twin_of(g, x)
        if y is None:
            return None
        if x < y:
            pairs.append((x, y))
    return pairs


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


def _essential_component_data(g: Multigraph, x: str, y: str, essential: list[str]):
    """The union-find roots of g minus {x, y}, and the roots of the
    components that hold essential vertices."""
    root = _complement(g, [Vertex(x), Vertex(y)])[0]
    return root, {root[v] for v in essential if v not in (x, y)}


def _inner_twin_pair(g: Multigraph, twins: list[tuple[str, str]]):
    """The first of the twin pairs with at most one essential complement
    component, the roots of that complement, and the root of its essential
    component (None if it has none)."""
    essential = essential_vertices(g)
    for x, y in twins:
        root, ess = _essential_component_data(g, x, y, essential)
        if len(ess) <= 1:
            return x, y, root, next(iter(ess), None)
    raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")


def _edge_into(g: Multigraph, root: dict[str, str], target: str, vx: str) -> str:
    """The one edge at vx whose far end lies in the component rooted at target."""
    hits = [e for e, i in g.link(vx) if root.get(g.ends(e)[1 - i]) == target]
    if len(hits) != 1:
        raise SurgeryError("essential component not attached by a single edge")
    return hits[0]


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


def theta_sum_decomposition(g: Multigraph) -> ThetaSumTree:
    """Decompose a twin graph (not a circle) into thick theta summand sizes."""
    twins = _twin_pairs(g) if is_two_connected(g) else None
    if twins is None:
        raise NotTwinGraph("input is not a twin graph")
    if not essential_vertices(g):
        raise IsCircle("input is homeomorphic to the circle")

    summands: list[int] = []
    records: list[SplitRecord] = []
    current = g
    step = 0
    while True:
        x, y, root, target = _inner_twin_pair(current, twins)
        k = current.degree(x)
        if target is None:
            summands.append(k)
            return ThetaSumTree(summands, records, current)

        # the edges at x and y leading into the essential component
        e_x, e_y = _edge_into(current, root, target, x), _edge_into(current, root, target, y)
        half = Fraction(1, 2)
        rs = blow_up(current, [Interior(e_x, half), Interior(e_y, half)])
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

        pairs = {}
        tdiv, cdiv = [], []
        for e in (e_x, e_y):
            dd = rs.divisors[Interior(e, half)]
            dside = {desc[1]: d for d, desc in dd.items()}
            d_tail, d_head = dside["tail"], dside["head"]
            if d_tail in tverts:
                pairs[e] = (d_tail, d_head)
                tdiv.append(d_tail)
                cdiv.append(d_head)
            else:
                pairs[e] = (d_head, d_tail)
                tdiv.append(d_head)
                cdiv.append(d_tail)
        tedges[tjoin] = (tdiv[0], tdiv[1])
        cedges[cjoin] = (cdiv[0], cdiv[1])
        tpiece = Multigraph(tverts, tedges)
        cpiece = Multigraph(cverts, cedges)

        records.append(SplitRecord(k, (x, y), (e_x, e_y), tpiece, tjoin, cjoin, pairs))
        summands.append(k)
        twins.remove((x, y))
        current = cpiece
        step += 1
