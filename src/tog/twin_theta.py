"""Twin-pair analysis and decomposition of twin graphs into thick theta sums.

A twin pair is a pair of points whose common degree equals the number of
components of the complement of the pair. A twin graph is a 2-connected graph
in which every point has a twin; away from the circle these are exactly the
finite connected sums of thick theta graphs, and theta_sum_decomposition
recovers the summand sizes by repeatedly splitting off a theta summand at an
essential twin pair whose complement has at most one component containing
essential vertices.

The essential twin pairs are found once, each by one lowpoint DFS. Each of
the d components of the complement of twins {x, y} of degree d takes one of
the d edge-ends at x, and it holds no essential vertex iff it is an arc from
x to y through degree-2 vertices. So at most one component holds an
essential vertex iff at most one arc out of x does not end at y, and a peel
is chosen by walking arcs. A split at {x, y} cuts off a connected piece whose
only essential vertices are x and y; it meets the remainder only at two cut
points, which a join edge then connects. So the remainder's twin pairs are
the old ones minus {x, y}. Nothing is blown up: the decomposition copies the
input's incidence and edge tables once, and each split walks the piece it
cuts off, deletes it from the tables and adds the remainder's halves of the
two cut edges and its join edge. The halves come from the edge cutter of
blow_up, at the midpoints of the cut edges, and every new id from its minter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .multigraph import (
    Multigraph,
    PointLocus,
    SurgeryError,
    Vertex,
    complement_components,
    cut_counts,
    cut_edge,
    ids_in_use,
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
    """The twin y of an essential vertex x of a 2-connected graph g, if any.

    The twin of a vertex of degree >= 3 must itself be a vertex y of the same
    degree. The complement of {x, y} is (g - x) - y, counted by one cut-point
    census of g - x, plus one open arc per edge between x and y.
    """
    links = g._incidence()
    d = len(links[x])
    _, pieces = cut_counts(g, x)
    arcs = Counter(g.ends(e)[1 - i] for e, i in links[x])
    found = sorted(y for y, n in pieces.items() if len(links[y]) == d and n + arcs[y] == d)
    if len(found) > 1:
        raise SurgeryError(f"vertex {x!r} has more than one twin: {found}")
    return found[0] if found else None


def essential_vertices(g: Multigraph) -> list[str]:
    return [v for v in g.vertex_ids() if g.degree(v) != 2]


def _twin_pairs(g: Multigraph) -> Optional[list[tuple[str, str]]]:
    """The essential twin pairs (x < y) of a 2-connected graph g, in sorted
    order; None if some essential vertex has no twin.

    An essential vertex has at most one twin: each complement component takes
    one of the d edge-ends at x, so if y were also the twin of some z != x,
    the component of g - {y, z} holding x would take d - 1 >= 2 ends at y.
    So the twin of a vertex needs no search of its own.
    """
    pairs: list[tuple[str, str]] = []
    paired: set[str] = set()
    for x in essential_vertices(g):
        if x in paired:
            continue
        y = _twin_of(g, x)
        if y is None:
            return None
        paired.add(y)
        pairs.append((x, y))  # y > x, or x would have been paired already
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


def _arc(links: dict, edges: dict, e: str, i: int) -> tuple[list[str], str]:
    """The edges of the arc that leaves its start along end i of edge e and
    runs through degree-2 vertices, and the vertex where it ends."""
    path, w = [e], edges[e][1 - i]
    while len(links[w]) == 2:
        e, i = next((f, j) for f, j in links[w] if f != e)
        path.append(e)
        w = edges[e][1 - i]
    return path, w


def _exits(links: dict, edges: dict, x: str, y: str) -> list[str]:
    """The edges at x whose arcs through degree-2 vertices do not end at y."""
    return [e for e, i in links[x] if _arc(links, edges, e, i)[1] != y]


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


_HALF = Fraction(1, 2)


def _peel(links: dict, edges: dict, pairs: list[tuple[str, str]], step: int):
    """Split off the theta summand at the first of the twin pairs with at most
    one essential complement component, which is dropped from pairs. links and
    edges, the remainder's incidence and edge tables, lose the summand's cells
    and gain the remainder's halves of the cut edges and its join edge. Returns
    the summand's size and its split record (None when the tables hold it)."""
    for n, (x, y) in enumerate(pairs):
        x_exits = _exits(links, edges, x, y)
        if len(x_exits) <= 1:
            break
    else:
        raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")
    del pairs[n]
    k = len(links[x])
    if not x_exits:
        return k, None
    # the edges at x and y leading into the essential component
    y_exits = _exits(links, edges, y, x)
    if len(y_exits) != 1:
        raise SurgeryError("essential component not attached by a single edge")
    (e_x,), (e_y,) = x_exits, y_exits
    fresh, _ = ids_in_use(links, edges)
    tjoin, cjoin = fresh(f"tj{step}", "edge"), fresh(f"cj{step}", "edge")
    # the two arcs of each cut edge, cut and minted as blow_up does, in sorted order
    halves = {e: cut_edge(e, *edges[e], [_HALF], (), fresh)[1] for e in sorted((e_x, e_y))}

    # the summand: the d - 1 arcs from x to y, then the halves of the cut edges
    tedges = {f: edges[f] for e, i in links[x] if e != e_x for f in _arc(links, edges, e, i)[0]}
    tverts = {v for ends in tedges.values() for v in ends}
    for v in tverts:
        del links[v]
    for f in tedges:
        del edges[f]
    divisor_pairs = {}  # per cut edge, its (theta-side, remainder-side) divisors
    for v, e in ((x, e_x), (y, e_y)):
        j = 1 if edges.pop(e)[0] == v else 0  # the end of e and of cf away from v
        (tf, tends, *_), (cf, cends, *_) = halves[e] if j else halves[e][::-1]
        td, cd = tends[j], cends[1 - j]
        tedges[tf], edges[cf] = tends, cends
        tverts.add(td)
        far = links[cends[j]]
        far[far.index((e, j))] = (cf, j)
        links[cd] = [(cf, 1 - j)]
        divisor_pairs[e] = (td, cd)
    (tx, cx), (ty, cy) = divisor_pairs[e_x], divisor_pairs[e_y]
    tedges[tjoin] = (tx, ty)
    edges[cjoin] = (cx, cy)
    links[cx].append((cjoin, 0))
    links[cy].append((cjoin, 1))
    tpiece = Multigraph(tverts, tedges)
    return k, SplitRecord(k, (x, y), (e_x, e_y), tpiece, tjoin, cjoin, divisor_pairs)


def theta_sum_decomposition(g: Multigraph) -> ThetaSumTree:
    """Decompose a twin graph (not a circle) into thick theta summand sizes."""
    pairs = _twin_pairs(g) if is_two_connected(g) else None
    if pairs is None:
        raise NotTwinGraph("input is not a twin graph")
    if not essential_vertices(g):
        raise IsCircle("input is homeomorphic to the circle")

    links = {v: list(ends) for v, ends in g._incidence().items()}
    edges = dict(g._edges)
    summands, records = [], []
    while True:
        k, rec = _peel(links, edges, pairs, len(records))
        summands.append(k)
        if rec is None:
            return ThetaSumTree(summands, records, Multigraph(links, edges))
        records.append(rec)
