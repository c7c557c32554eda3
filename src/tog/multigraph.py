"""Finite multigraphs and the point-level surgery calculus.

Graphs may have loop edges and parallel edges. Every edge carries a fixed
reference orientation (the order of its endpoint pair at creation); interior
points of edges are addressed by exact rational positions in (0,1) measured
along that orientation.

The operations here are the building blocks for everything else in the
package: blow-up at a set of point loci, the inverse blow-down, connected
sums along divisor bijections, complement components, and one lowpoint
DFS that counts cut points and decides 2-connectivity. One minter,
ids_in_use, makes every id of a blow-up, and one cutter, cut_edge, cuts each
edge, for blow_up, complement counts and the theta-sum peel alike. Complement
components come from the union-find of components, with no blow-up built.
All operations are pure; all iteration orders are sorted so that outputs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Container, Iterable, Mapping, Optional


class SurgeryError(ValueError):
    """Raised when a surgery operation's preconditions are violated."""


@dataclass(frozen=True, order=True)
class Vertex:
    """A point locus at a vertex."""

    vertex: str


@dataclass(frozen=True, order=True)
class Interior:
    """A point locus in the interior of an edge.

    position is measured along the edge's reference orientation and must lie
    strictly between 0 and 1.
    """

    edge: str
    position: Fraction

    def __post_init__(self):
        pos = Fraction(self.position)
        object.__setattr__(self, "position", pos)
        if not (0 < pos < 1):
            raise SurgeryError(f"interior position {pos} not in (0,1)")


PointLocus = Vertex | Interior


def _pos_token(p: Fraction) -> str:
    return f"{p.numerator}_{p.denominator}"


class Multigraph:
    """A finite multigraph with string ids.

    edges maps edge id -> (v, w); the tuple order is the edge's reference
    orientation (tail, head). Loops (v == w) are allowed. The graph is
    immutable, so its incidence table is built once, on first use.
    """

    __slots__ = ("_vertices", "_edges", "_links")

    def __init__(self, vertices: Iterable[str], edges: Mapping[str, tuple[str, str]]):
        self._vertices = frozenset(vertices)
        self._edges = dict(edges)
        self._links: Optional[dict[str, list[tuple[str, int]]]] = None
        for e, (v, w) in self._edges.items():
            if v not in self._vertices or w not in self._vertices:
                raise SurgeryError(f"edge {e!r} references missing vertex")

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edges(self) -> dict[str, tuple[str, str]]:
        return dict(self._edges)

    def vertex_ids(self) -> list[str]:
        return sorted(self._vertices)

    def edge_ids(self) -> list[str]:
        return sorted(self._edges)

    def ends(self, e: str) -> tuple[str, str]:
        return self._edges[e]

    def is_loop(self, e: str) -> bool:
        v, w = self._edges[e]
        return v == w

    def _incidence(self) -> dict[str, list[tuple[str, int]]]:
        if self._links is None:
            links: dict[str, list[tuple[str, int]]] = {v: [] for v in self._vertices}
            for e in self.edge_ids():
                t, h = self._edges[e]
                links[t].append((e, 0))
                links[h].append((e, 1))
            self._links = links
        return self._links

    def link(self, v: str) -> list[tuple[str, int]]:
        """Edge-ends at v, as sorted (edge id, end index) pairs; a loop contributes both ends."""
        return list(self._incidence().get(v, ()))

    def degree(self, v: str) -> int:
        return len(self._incidence().get(v, ()))

    def relabel(self, prefix: str) -> "Multigraph":
        """A copy with every vertex and edge id prefixed."""
        return Multigraph(
            (prefix + v for v in self._vertices),
            {prefix + e: (prefix + v, prefix + w) for e, (v, w) in self._edges.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._vertices, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def to_json_dict(self) -> dict:
        return {
            "schema": "tog/1",
            "vertices": self.vertex_ids(),
            "edges": [{"id": e, "ends": list(self._edges[e])} for e in self.edge_ids()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multigraph":
        if not isinstance(data, dict):
            raise SurgeryError(f"a graph must be a JSON object, got {type(data).__name__}")
        if data.get("schema") != "tog/1":
            raise SurgeryError("missing or unsupported schema tag (expected 'tog/1')")
        vertices = data.get("vertices", [])
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise SurgeryError("'vertices' must be a list of strings")
        if len(set(vertices)) != len(vertices):
            raise SurgeryError("'vertices' lists a vertex more than once")
        edges = {}
        for rec in data.get("edges", []):
            e, ends = rec["id"], rec["ends"]
            if type(e) is not str:
                raise SurgeryError(f"edge id {e!r} must be a string")
            if e in edges:
                raise SurgeryError(f"edge id {e!r} is used more than once")
            if not isinstance(ends, list) or len(ends) != 2:
                raise SurgeryError(f"edge {e!r} must have exactly two ends")
            edges[e] = (ends[0], ends[1])
        return cls(vertices, edges)

    def to_dot(
        self,
        name: str = "g",
        vertex_attrs: Optional[Mapping[str, str]] = None,
        edge_attrs: Optional[Mapping[str, str]] = None,
    ) -> str:
        """DOT text with preformatted attributes by id, their values quoted by
        dot_quote as the ids are here; an edge's default is its id as label."""
        vertex_attrs, edge_attrs = vertex_attrs or {}, edge_attrs or {}
        lines = [f"graph {name} {{"]
        for v in self.vertex_ids():
            attrs = vertex_attrs.get(v)
            q = dot_quote(v)
            lines.append(f"  {q};" if attrs is None else f"  {q} [{attrs}];")
        for e in self.edge_ids():
            t, h = self._edges[e]
            attrs = edge_attrs.get(e, f"label={dot_quote(e)}")
            lines.append(f"  {dot_quote(t)} -- {dot_quote(h)} [{attrs}];")
        lines.append("}")
        return "\n".join(lines)


def dot_quote(s: str) -> str:
    """s as a DOT quoted string: a backslash, then a double quote, escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class BlowUpResult:
    """Result of blowing up a graph at a set of point loci.

    divisors maps each locus to {divisor vertex id: end descriptor}, where the
    descriptor is ("end", edge, index) for vertex loci and ("side", "tail"|"head")
    for interior loci. arc_map records, for every edge of the result deriving
    from an input edge, the originating edge and the covered position interval.
    aux_midpoints lists auxiliary degree-2 vertices inserted on isolated open
    arcs so that every component has a vertex.
    """

    graph: Multigraph
    divisors: dict[PointLocus, dict[str, tuple]]
    arc_map: dict[str, tuple[str, tuple[Fraction, Fraction]]]
    aux_midpoints: frozenset[str]


def _roots(g: Multigraph, vertex_loci: Container[str], cut: Container[str]) -> dict[str, str]:
    """One union-find (Tarjan 1975): each vertex of g outside vertex_loci maps
    to its component's root, joined through every edge not in cut whose ends
    both survive."""
    parent = {v: v for v in g._vertices if v not in vertex_loci}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, (t, h) in g._edges.items():
        if t in parent and h in parent and e not in cut:
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
    return {v: find(v) for v in parent}


def components(g: Multigraph) -> list[frozenset[str]]:
    """Connected components as a sorted list of vertex sets."""
    groups: dict[str, set[str]] = {}
    for v, r in _roots(g, (), ()).items():
        groups.setdefault(r, set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=lambda s: min(s))


def _check_loci(g: Multigraph, loci: Iterable[PointLocus]):
    """The loci as a list, the vertex loci, and the cut positions by edge;
    raises on a duplicate or a missing cell."""
    loci = list(loci)
    if len(set(loci)) != len(loci):
        raise SurgeryError("duplicate loci")
    vertex_loci: set[str] = set()
    interior: dict[str, list[Fraction]] = {}
    for x in loci:
        if isinstance(x, Vertex):
            if x.vertex not in g._vertices:
                raise SurgeryError(f"vertex {x.vertex!r} not in graph")
            vertex_loci.add(x.vertex)
        else:
            if x.edge not in g._edges:
                raise SurgeryError(f"edge {x.edge!r} not in graph")
            interior.setdefault(x.edge, []).append(x.position)
    return loci, vertex_loci, interior


_ZERO, _ONE = Fraction(0), Fraction(1)
_WHOLE = (_ZERO, _ONE)


def ids_in_use(vertices: Container[str], edges: Container[str]):
    """The minter of blow-up ids: fresh(name, kind) returns name unless it is
    a given id or minted before, of its namespace (vertex kinds share one;
    "edge" has its own). Returns fresh and the set of vertex ids minted."""
    minted: set[str] = set()
    made: set[str] = set()  # new edge ids

    def fresh(name: str, kind: str) -> str:
        old, new = (edges, made) if kind == "edge" else (vertices, minted)
        if name in old or name in new:
            raise SurgeryError(f"id collision for {kind} {name!r}")
        new.add(name)
        return name

    return fresh, minted


def cut_edge(e: str, t: str, h: str, cuts: list[Fraction], vertex_loci: Container[str], fresh):
    """Cut edge e = (t, h) at the sorted positions cuts and at its ends in
    vertex_loci, minting through fresh the divisors along e, then arc by arc
    its id and, for an isolated open arc, its .mid, .m0 and .m1. Returns the
    arc ends in order along e (a divisor at each locus, else t or h) and the
    arcs (id, (tail, head), (lo, hi), mid): id is e unless e is cut inside,
    and mid is None unless both ends are divisors."""
    ends = [fresh(f"{t}@{e}.0", "divisor vertex") if t in vertex_loci else t]
    for p in cuts:
        token = _pos_token(p)
        ends += (fresh(f"{e}@{token}t", "divisor vertex"), fresh(f"{e}@{token}h", "divisor vertex"))
    ends.append(fresh(f"{h}@{e}.1", "divisor vertex") if h in vertex_loci else h)
    bounds, arcs = [_ZERO, *cuts, _ONE], []
    for i in range(len(cuts) + 1):
        arc = fresh(f"{e}.a{i}", "edge") if cuts else e
        mid = None
        if (i or t in vertex_loci) and (i < len(cuts) or h in vertex_loci):  # both ends divisors
            mid = fresh(f"{arc}.mid", "auxiliary vertex")
            fresh(f"{arc}.m0", "edge")
            fresh(f"{arc}.m1", "edge")
        arcs.append((arc, (ends[2 * i], ends[2 * i + 1]), (bounds[i], bounds[i + 1]), mid))
    return ends, arcs


def blow_up(g: Multigraph, loci: Iterable[PointLocus]) -> BlowUpResult:
    """Replace each locus by its blow-up divisor.

    A vertex locus x becomes deg(x) divisor vertices, one per edge-end at x.
    An interior locus splits its edge into two arcs ending at two divisor
    vertices. Blow-ups at distinct loci commute; the result only depends on
    the locus set. A new id that is already taken raises.
    """
    loci, vertex_loci, interior = _check_loci(g, loci)
    new_vertices: set[str] = set(g._vertices) - vertex_loci
    new_edges: dict[str, tuple[str, str]] = {}
    divisors: dict[PointLocus, dict[str, tuple]] = {x: {} for x in loci}
    arc_map: dict[str, tuple[str, tuple[Fraction, Fraction]]] = {}
    aux: set[str] = set()
    fresh, minted = ids_in_use(new_vertices, g._edges)

    for e, (t, h) in sorted(g._edges.items()):
        cuts = interior.get(e)
        if cuts is None and t not in vertex_loci and h not in vertex_loci:
            new_edges[e] = (t, h)
            arc_map[e] = (e, _WHOLE)
            continue
        cuts = sorted(cuts or ())
        ends, arcs = cut_edge(e, t, h, cuts, vertex_loci, fresh)
        if t in vertex_loci:
            divisors[Vertex(t)][ends[0]] = ("end", e, 0)
        if h in vertex_loci:
            divisors[Vertex(h)][ends[-1]] = ("end", e, 1)
        for j, p in enumerate(cuts):
            divisors[Interior(e, p)][ends[2 * j + 1]] = ("side", "tail")
            divisors[Interior(e, p)][ends[2 * j + 2]] = ("side", "head")
        for arc, (a, b), (lo, hi), mid_v in arcs:
            if mid_v is None:
                new_edges[arc] = (a, b)
                arc_map[arc] = (e, (lo, hi))
            else:  # isolated open arc: two edges through its auxiliary midpoint
                aux.add(mid_v)
                mid = (lo + hi) / 2
                new_edges[f"{arc}.m0"], new_edges[f"{arc}.m1"] = (a, mid_v), (mid_v, b)
                arc_map[f"{arc}.m0"], arc_map[f"{arc}.m1"] = (e, (lo, mid)), (e, (mid, hi))

    new_vertices |= minted
    graph = Multigraph(new_vertices, new_edges)
    return BlowUpResult(graph, divisors, arc_map, frozenset(aux))


def blow_down(r: BlowUpResult, keep: Iterable[PointLocus] = ()) -> Multigraph:
    """Collapse blow-up divisors back to points.

    With empty `keep` this reconstructs the original graph (identical ids).
    With a subset of the original loci kept, the result equals blow_up of the
    reconstruction at exactly the kept loci.
    """
    keep = list(keep)
    for x in keep:
        if x not in r.divisors:
            raise SurgeryError(f"locus {x} was not blown up in this result")

    divisor_vertices = {d for dd in r.divisors.values() for d in dd}
    plain = set(r.graph.vertices) - divisor_vertices - set(r.aux_midpoints)
    orig_vertices = plain | {x.vertex for x in r.divisors if isinstance(x, Vertex)}

    # reconstruct each original edge's endpoints from its position-0 / position-1 arcs
    by_edge: dict[str, list[tuple[Fraction, Fraction, str]]] = {}
    for arc, (orig, (lo, hi)) in r.arc_map.items():
        by_edge.setdefault(orig, []).append((lo, hi, arc))
    orig_edges: dict[str, tuple[str, str]] = {}
    vertex_of_divisor = {
        d: x.vertex
        for x, dd in r.divisors.items()
        if isinstance(x, Vertex)
        for d in dd
    }
    for orig, arcs in by_edge.items():
        arcs.sort()
        if arcs[0][0] != 0 or arcs[-1][1] != 1:
            raise SurgeryError(f"arc record of edge {orig!r} does not cover (0,1)")
        first = arcs[0][2]
        last = arcs[-1][2]
        t = r.graph.ends(first)[0]
        h = r.graph.ends(last)[1]
        t = vertex_of_divisor.get(t, t)
        h = vertex_of_divisor.get(h, h)
        if t not in orig_vertices or h not in orig_vertices:
            raise SurgeryError(f"divisor map inconsistent at edge {orig!r}")
        orig_edges[orig] = (t, h)

    g = Multigraph(orig_vertices, orig_edges)
    if not keep:
        return g
    return blow_up(g, keep).graph


@dataclass
class ConnectedSumResult:
    """A connected sum with projections back to the summands.

    projections[i] maps each cell (('vertex', id) or ('edge', id)) of the
    result to the corresponding cell or point locus of summand i.
    """

    graph: Multigraph
    seam: list[str]
    projections: tuple[dict, dict]


def connected_sum(
    g1: Multigraph,
    x1: PointLocus,
    g2: Multigraph,
    x2: PointLocus,
    ell: Mapping[str, str],
) -> ConnectedSumResult:
    """Glue blow-ups of g1 at x1 and g2 at x2 along the divisor bijection ell.

    ell maps divisor vertex ids of blow_up(g1, {x1}) to divisor vertex ids of
    blow_up(g2, {x2}). Identified divisor pairs become degree-2 vertices named
    s0, s1, ... in sorted order of the side-1 divisor.
    """
    r1 = blow_up(g1, [x1])
    r2 = blow_up(g2, [x2])
    d1 = r1.divisors[x1]
    d2 = r2.divisors[x2]
    if set(ell.keys()) != set(d1) or set(ell.values()) != set(d2) or len(ell) != len(d1):
        raise SurgeryError("ell is not a bijection between the two divisors")

    rename1: dict[str, str] = {v: "L:" + v for v in r1.graph.vertices}
    rename2: dict[str, str] = {v: "R:" + v for v in r2.graph.vertices}
    seam = []
    for i, p in enumerate(sorted(ell)):
        s = f"s{i}"
        seam.append(s)
        rename1[p] = s
        rename2[ell[p]] = s

    vertices = set(rename1.values()) | set(rename2.values())
    edges: dict[str, tuple[str, str]] = {}
    for e, (v, w) in r1.graph._edges.items():
        edges["L:" + e] = (rename1[v], rename1[w])
    for e, (v, w) in r2.graph._edges.items():
        edges["R:" + e] = (rename2[v], rename2[w])
    graph = Multigraph(vertices, edges)

    def build_projection(r: BlowUpResult, x: PointLocus, rename: dict, tag: str) -> dict:
        proj: dict = {}
        div = set(r.divisors[x])
        arc_into = {h: a for a, (t, h) in r.graph._edges.items() if h in r.aux_midpoints}
        for v in r.graph.vertices:
            key = ("vertex", rename[v])
            if v in div:
                proj[key] = ("locus", x)
            elif v in r.aux_midpoints:
                orig, (lo, hi) = r.arc_map[arc_into[v]]
                proj[key] = ("locus", Interior(orig, hi))
            else:
                proj[key] = ("vertex", v)
        for e in r.graph.edge_ids():
            orig, interval = r.arc_map[e]
            proj[("edge", tag + e)] = ("edge", orig, interval)
        return proj

    proj1 = build_projection(r1, x1, rename1, "L:")
    proj2 = build_projection(r2, x2, rename2, "R:")
    # cells of the other side project to the surgery locus
    in_seam = set(seam)
    for v in graph.vertices:
        if v.startswith("R:") or v in in_seam:
            proj1.setdefault(("vertex", v), ("locus", x1))
        if v.startswith("L:") or v in in_seam:
            proj2.setdefault(("vertex", v), ("locus", x2))
    for e in graph.edge_ids():
        if e.startswith("R:"):
            proj1.setdefault(("edge", e), ("locus", x1))
        if e.startswith("L:"):
            proj2.setdefault(("edge", e), ("locus", x2))

    return ConnectedSumResult(graph, seam, (proj1, proj2))


def _complement(g: Multigraph, loci: Iterable[PointLocus]) -> tuple[dict[str, str], dict[str, str]]:
    """The components of g minus the loci, read off g's own tables.

    Returns (root, reach): root maps each surviving vertex to its component's
    root, and reach maps each divisor id that blow_up would create to the
    root its arc reaches, or to the mid id of the isolated open arc it
    bounds. The arcs and ids come from blow_up's cutter and minter, so loci
    and id collisions, of vertices and of edges, raise as in blow_up.
    """
    _, vertex_loci, interior = _check_loci(g, loci)
    root = _roots(g, vertex_loci, interior)
    fresh, _ = ids_in_use(root, g._edges)
    touched = {e for v in vertex_loci for e, _ in g._incidence()[v]}.union(interior)
    reach: dict[str, str] = {}
    for e in sorted(touched):
        cuts = sorted(interior.get(e, ()))
        for _, (a, b), _, mid in cut_edge(e, *g._edges[e], cuts, vertex_loci, fresh)[1]:
            if mid is not None:
                reach[a] = reach[b] = mid
            elif a in root:
                reach[b] = root[a]
            else:
                reach[a] = root[b]
    return root, reach


def complement_components(
    g: Multigraph, loci: Iterable[PointLocus]
) -> tuple[int, dict[str, int]]:
    """pi_0 of the complement of the loci, with the divisor-to-component map.

    Returns (component count, iota) where iota assigns each divisor vertex of
    the blow-up the index of its component, with the components sorted by
    their least blow-up vertex id (divisors and auxiliary midpoints count).
    """
    root, reach = _complement(g, loci)
    least: dict[str, str] = {}
    # an isolated arc's key is its midpoint id, itself a blow-up vertex
    for v, k in chain(root.items(), reach.items(), ((k, k) for k in reach.values())):
        if k not in least or v < least[k]:
            least[k] = v
    index = {k: i for i, k in enumerate(sorted(least, key=least.__getitem__))}
    return len(index), {d: index[k] for d, k in reach.items()}


def cut_counts(g: Multigraph, skip: Optional[str] = None) -> tuple[int, dict[str, int]]:
    """Cut-vertex census of g minus the vertex skip, by one lowpoint DFS.

    Returns (reached, pieces): reached is the number of vertices the search
    from the least vertex reaches, and pieces[v] is the number of components
    of (g - skip) - v, for every other vertex v (Hopcroft-Tarjan 1973). Loops
    are ignored; parallel edges are told apart by edge id, so only the tree
    edge itself leads back to a vertex's parent.
    """
    links, ends_of = g._incidence(), g._edges
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    pieces: dict[str, int] = {}
    reached = searches = 0
    for root in g.vertex_ids():
        if root == skip or root in disc:
            continue
        searches += 1
        disc[root] = low[root] = len(disc)
        pieces[root] = 0  # the root splits into one piece per DFS child
        stack = [(root, None, iter(links[root]))]
        while stack:
            v, via, ends = stack[-1]
            for e, i in ends:
                w = ends_of[e][1 - i]
                if w == v or w == skip or e == via:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    pieces[w] = 1  # the part holding the parent
                    stack.append((w, e, iter(links[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        pieces[u] += 1
        if searches == 1:
            reached = len(disc)
    return reached, {v: n + searches - 1 for v, n in pieces.items()}


def is_two_connected(g: Multigraph) -> bool:
    """True iff g is nonempty, connected, has >= 2 vertices and no cutpoint.

    No cutpoint means: the blow-up at every single vertex stays connected and
    no edge is a bridge (interior points of a bridge are cutpoints). Parallel
    edges are never bridges; loops force a cutpoint at their vertex. Without
    a separating vertex, the only possible bridge is a lone edge between two
    vertices.
    """
    if not g.vertices or len(g.vertices) < 2:
        return False
    if any(v == w for v, w in g._edges.values()):
        return False  # the loop's vertex is a cutpoint
    reached, pieces = cut_counts(g)
    return reached == len(g.vertices) and max(pieces.values()) == 1 and len(g._edges) > 1


def theta_graph(k: int, prefix: str = "") -> Multigraph:
    """The theta graph with two vertices and k parallel edges."""
    if k < 2:
        raise SurgeryError("theta graph needs at least 2 edges")
    u, w = prefix + "u", prefix + "w"
    return Multigraph([u, w], {f"{prefix}e{i}": (u, w) for i in range(1, k + 1)})


def complete_graph(n: int, prefix: str = "") -> Multigraph:
    vs = [f"{prefix}v{i}" for i in range(1, n + 1)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            edges[f"{prefix}e{i + 1}{j + 1}"] = (vs[i], vs[j])
    return Multigraph(vs, edges)
