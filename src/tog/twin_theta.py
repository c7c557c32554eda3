"""Twin-pair analysis and decomposition of twin graphs into thick theta sums.

A twin pair is a pair of points whose common degree equals the number of
components of the complement of the pair. A twin graph is a 2-connected graph
in which every point has a twin; away from the circle these are exactly the
finite connected sums of thick theta graphs, and theta_sum_decomposition
recovers the summand sizes by repeatedly splitting off a theta summand at an
essential twin pair whose complement has at most one component containing
essential vertices.
"""

from __future__ import annotations

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


def essential_twin(g: Multigraph, x: str, _checked: bool = False) -> Optional[str]:
    """The unique twin vertex of an essential vertex x, if one exists.

    The twin of a vertex of degree >= 3 must itself be a vertex of the same
    degree, so an exhaustive scan over equal-degree vertices suffices.
    """
    if not _checked and not is_two_connected(g):
        raise SurgeryError("twin analysis requires a 2-connected graph")
    d = g.degree(x)
    if d < 3:
        raise SurgeryError("essential_twin requires a vertex of degree >= 3")
    found = []
    for y in g.vertex_ids():
        if y == x or g.degree(y) != d:
            continue
        count, _ = complement_components(g, [Vertex(x), Vertex(y)])
        if count == d:
            found.append(y)
    if len(found) > 1:
        raise SurgeryError(f"vertex {x!r} has more than one twin: {found}")
    return found[0] if found else None


def essential_vertices(g: Multigraph) -> list[str]:
    return [v for v in g.vertex_ids() if g.degree(v) != 2]


def is_twin_graph(g: Multigraph) -> bool:
    """True iff g is 2-connected and every essential vertex has a twin.

    Degree-2 points of a 2-connected graph always have twins, so only the
    essential vertices need checking.
    """
    if not is_two_connected(g):
        return False
    for v in essential_vertices(g):
        if g.degree(v) < 3:
            return False
        if essential_twin(g, v, _checked=True) is None:
            return False
    return True


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


def _essential_component_data(g: Multigraph, x: str, y: str):
    """Components of g minus {x, y}, with divisor membership and essential census."""
    r = blow_up(g, [Vertex(x), Vertex(y)])
    comps = components(r.graph)
    where = {}
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    ess = set(essential_vertices(g)) - {x, y}
    ess_comps = sorted({where[v] for v in ess})
    return r, comps, where, ess_comps


def _inner_twin_pair(g: Multigraph) -> tuple[str, str, list[int]]:
    """An essential twin pair with at most one essential complement component."""
    pairs = []
    for x in sorted(essential_vertices(g)):
        y = essential_twin(g, x, _checked=True)
        if y is not None and x < y:
            pairs.append((x, y))
    for x, y in sorted(pairs):
        _, _, _, ess_comps = _essential_component_data(g, x, y)
        if len(ess_comps) <= 1:
            return x, y, ess_comps
    raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")


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
    if not is_twin_graph(g):
        raise NotTwinGraph("input is not a twin graph")
    if not essential_vertices(g):
        raise IsCircle("input is homeomorphic to the circle")

    summands: list[int] = []
    records: list[SplitRecord] = []
    current = g
    step = 0
    while True:
        x, y, ess_comps = _inner_twin_pair(current)
        k = current.degree(x)
        if not ess_comps:
            summands.append(k)
            return ThetaSumTree(summands, records, current)

        # locate the edges at x and y leading into the essential component
        r, comps, where, _ = _essential_component_data(current, x, y)
        target = ess_comps[0]

        def edge_into(vx: str) -> str:
            hits = [
                desc[1]
                for d, desc in r.divisors[Vertex(vx)].items()
                if where[d] == target
            ]
            if len(hits) != 1:
                raise SurgeryError("essential component not attached by a single edge")
            return hits[0]

        e_x, e_y = edge_into(x), edge_into(y)
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
        current = cpiece
        step += 1
