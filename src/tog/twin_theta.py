"""Twin graphs and their decomposition into thick theta sums.

A twin pair is a pair of points whose common degree equals the number of
components of the complement of the pair. A twin graph is a 2-connected graph
in which every point has a twin; away from the circle these are exactly the
finite connected sums of thick theta graphs, and theta_sum_decomposition
recovers the summand sizes by splitting off one leaf of the connected-sum tree
at a time.

An arc is a path that leaves an essential vertex and runs through degree-2
vertices to the next essential vertex. A leaf pair is an essential vertex x of
degree d and a vertex y of the same degree at which at least d - 1 of the arcs
out of x end. In a 2-connected graph it is a twin pair: the complement of
{x, y} is the d - 1 arcs between them and the rest, which is connected, holds
an essential vertex and meets x and y by one arc each, their exits (there is
no rest when all d arcs end at y, and the graph is a theta). A split at a
leaf pair cuts both exits at the midpoints of their first edges and closes
each side with a join edge. The remainder is again 2-connected, and its
essential vertices have the twins they had, so it is a twin graph iff the
graph was; a twin graph has a leaf pair, so a graph whose leaf pairs run out
before one theta remains is not a twin graph.

Each peel splits at the least leaf pair, in sorted order, from a heap. Each
arc is walked once from each end, and only where it ends is kept. A split
walks the d - 1 arcs from x to y; the exits become one arc from a to b, so a's
arc to x now ends at b and b's arc to y at a, and only a and b are tested for
a new leaf pair. A vertex is in at most one leaf pair, and only the split at a
leaf pair removes either of its vertices or changes an arc between them, so a
leaf pair stays one until it is split.

Nothing is blown up: the decomposition copies the input's incidence and edge
tables once, and each split deletes the summand's arcs from them and adds the
remainder's halves of the two cut edges and its join edge. The halves come
from the edge cutter of blow_up, and every new id from its minter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .multigraph import Multigraph, SurgeryError, cut_edge, ids_in_use, is_two_connected


class NotTwinGraph(SurgeryError):
    pass


class IsCircle(SurgeryError):
    pass


def essential_vertices(g: Multigraph) -> list[str]:
    return [v for v in g.vertex_ids() if g.degree(v) != 2]


def is_twin_graph(g: Multigraph) -> bool:
    """True iff g is 2-connected and every essential vertex has a twin.

    Degree-2 points of a 2-connected graph always have twins, so only the
    essential vertices need checking. Leaf pairs peel g down to one theta iff
    they do, whatever the names; so the peel runs on a copy renamed to v<i>
    and e<i>, in which no id that a split mints is taken.
    """
    ids = {v: f"v{i}" for i, v in enumerate(g.vertex_ids())}
    edges = {f"e{i}": (ids[t], ids[h]) for i, (t, h) in enumerate(g._edges.values())}
    try:
        theta_sum_decomposition(Multigraph(ids.values(), edges))
    except NotTwinGraph:
        return False
    except IsCircle:
        pass
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
        """Reverse the splits; reproduces the decomposed graph exactly.

        Every record, last first, is glued into one vertex set and one edge
        table: its piece's cells go in, both join edges go out, and each cut
        edge runs again from the tail of its first arc to the head of its
        second in place of the two arcs and their divisors."""
        vertices, edges = set(self.base._vertices), dict(self.base._edges)
        for rec in reversed(self.records):
            vertices |= rec.tpiece._vertices
            edges.update(rec.tpiece._edges)
            del edges[rec.tjoin], edges[rec.cjoin]
            for e in rec.cut_edges:
                (t, dt), (dh, h) = edges.pop(f"{e}.a0"), edges.pop(f"{e}.a1")
                vertices -= {dt, dh}
                edges[e] = (t, h)
        return Multigraph(vertices, edges)

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
    """The arc that leaves its first vertex by end i of edge e: its edges, on
    through degree-2 vertices, and the vertex where it ends."""
    path, w = [e], edges[e][1 - i]
    while len(ends := links[w]) == 2:
        e, i = ends[1] if ends[0][0] == e else ends[0]
        path.append(e)
        w = edges[e][1 - i]
    return path, w


def _leaf_pair(far: dict, x: str) -> Optional[tuple[str, str]]:
    """The leaf pair at the essential vertex x, sorted, or None: x and the
    vertex y of its degree d at which at least d - 1 of the arcs out of x end
    (if d - 1 of d >= 3 arcs end at y, one of the first two does)."""
    ends, d = far[x], len(far[x])
    y = ends[0] if ends.count(ends[0]) >= d - 1 else ends[1]
    if ends.count(y) < d - 1 or len(far[y]) != d:
        return None
    return (x, y) if x < y else (y, x)


def _leaf_pairs(links: dict, edges: dict) -> tuple[dict, list[tuple[str, str]]]:
    """Where the arcs out of each essential vertex end, and the leaf pairs as a heap."""
    far = {x: [_arc(links, edges, *end)[1] for end in ends] for x, ends in links.items()
           if len(ends) != 2}
    return far, sorted({p for x in far if (p := _leaf_pair(far, x))})


_HALF = Fraction(1, 2)


def _peel(links: dict, edges: dict, far: dict, heap: list, step: int):
    """Split off the theta summand at the least leaf pair {x, y}. links and
    edges, the remainder's incidence and edge tables, lose the summand's cells
    and gain the remainder's halves of the cut edges and its join edge; far
    and heap, as _leaf_pairs gives them, follow. Returns the summand's size
    and its split record (None when the tables hold it); raises NotTwinGraph
    when no leaf pair is left."""
    while heap:
        x, y = heappop(heap)
        if x in far:
            break  # else a pair split before, pushed twice
    else:
        raise NotTwinGraph("input is not a twin graph")
    fx, fy = far.pop(x), far.pop(y)
    k = len(fx)
    exits = [(w, e) for w, (e, _) in zip(fx, links[x]) if w != y]
    if not exits:
        return k, None
    # the exits of x and y, the arcs leading into the essential component
    ((a, e_x),), ((b, e_y),) = exits, [(w, e) for w, (e, _) in zip(fy, links[y]) if w != x]
    fresh, _ = ids_in_use(links, edges)
    tjoin, cjoin = fresh(f"tj{step}", "edge"), fresh(f"cj{step}", "edge")
    # the two arcs of each cut edge, cut and minted as blow_up does, in sorted order
    halves = {e: cut_edge(e, *edges[e], [_HALF], (), fresh)[1] for e in sorted((e_x, e_y))}

    # the summand: the d - 1 arcs from x to y, then the halves of the cut edges
    tedges = {f: edges[f] for w, end in zip(fx, links[x]) if w == y
              for f in _arc(links, edges, *end)[0]}
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
        ends = links[cends[j]]
        ends[ends.index((e, j))] = (cf, j)
        links[cd] = [(cf, 1 - j)]
        divisor_pairs[e] = (td, cd)
    (tx, cx), (ty, cy) = divisor_pairs[e_x], divisor_pairs[e_y]
    tedges[tjoin] = (tx, ty)
    edges[cjoin] = (cx, cy)
    links[cx].append((cjoin, 0))
    links[cy].append((cjoin, 1))
    # the exits now form one arc from a to b through the join edge
    far[a][far[a].index(x)] = b
    far[b][far[b].index(y)] = a
    for v in (a, b):
        if pair := _leaf_pair(far, v):
            heappush(heap, pair)
    tpiece = Multigraph(tverts, tedges)
    return k, SplitRecord(k, (x, y), (e_x, e_y), tpiece, tjoin, cjoin, divisor_pairs)


def theta_sum_decomposition(g: Multigraph) -> ThetaSumTree:
    """Decompose a twin graph (not a circle) into thick theta summand sizes.

    A graph that is not a twin graph raises NotTwinGraph, even where a split
    would first mint a taken id: the verdict on a collision comes from
    is_twin_graph."""
    if not is_two_connected(g):
        raise NotTwinGraph("input is not a twin graph")
    links = {v: list(ends) for v, ends in g._incidence().items()}
    edges = dict(g._edges)
    far, heap = _leaf_pairs(links, edges)
    if not far:
        raise IsCircle("input is homeomorphic to the circle")
    summands, records = [], []
    try:
        while True:
            k, rec = _peel(links, edges, far, heap, len(records))
            summands.append(k)
            if rec is None:
                return ThetaSumTree(summands, records, Multigraph(links, edges))
            records.append(rec)
    except NotTwinGraph:
        raise
    except SurgeryError:
        if not is_twin_graph(g):
            raise NotTwinGraph("input is not a twin graph") from None
        raise
