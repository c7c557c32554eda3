"""Connecting V-systems: link gluing data, lines, and orientability.

A connecting V-system is a loop-free essential graph with a degree-preserving
vertex involution a and, for each vertex v, a bijection alpha_v from the
edge-ends at v to the edge-ends at a(v), with alpha_{a(v)} inverse to
alpha_v. Following an oriented edge across the gluing prescribed at its head
yields a successor permutation of oriented edges; its orbits, with mirror
orbits identified, are the lines of the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import Multigraph, SurgeryError, components

OrientedEdge = tuple[str, int]  # (edge id, orientation); 0 = reference direction
End = tuple[str, int]  # (edge id, end index)


def bar(eps: OrientedEdge) -> OrientedEdge:
    return (eps[0], 1 - eps[1])


def tail_vertex(g: Multigraph, eps: OrientedEdge) -> str:
    t, h = g.ends(eps[0])
    return t if eps[1] == 0 else h


def head_vertex(g: Multigraph, eps: OrientedEdge) -> str:
    t, h = g.ends(eps[0])
    return h if eps[1] == 0 else t


def head_end(eps: OrientedEdge) -> End:
    return (eps[0], 1 if eps[1] == 0 else 0)


def away_from_end(end: End) -> OrientedEdge:
    """The oriented edge pointing away from the given end."""
    e, i = end
    return (e, 0) if i == 0 else (e, 1)


@dataclass
class ConnectingVSystem:
    graph: Multigraph
    a: dict[str, str]
    alpha: dict[str, dict[End, End]]

    def oriented_edges(self) -> list[OrientedEdge]:
        return [(e, o) for e in self.graph.edge_ids() for o in (0, 1)]

    def to_json_dict(self) -> dict:
        return {
            "schema": "tog/1",
            "graph": self.graph.to_json_dict(),
            "a": [[v, self.a[v]] for v in sorted(self.a)],
            "alpha": {
                v: [[list(p), list(q)] for p, q in sorted(m.items())]
                for v, m in sorted(self.alpha.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConnectingVSystem":
        if data.get("schema") != "tog/1":
            raise SurgeryError("missing or unsupported schema tag (expected 'tog/1')")
        graph = Multigraph.from_json_dict(data["graph"])
        return cls(graph, *decode_gluing(data))


def decode_gluing(data: dict) -> tuple[dict[str, str], dict[str, dict[End, End]]]:
    """The involution a and the link bijections alpha of a tog/1 document."""
    a = {v: w for v, w in data["a"]}
    if not isinstance(data["alpha"], dict):
        raise SurgeryError("'alpha' must be an object")
    alpha = {
        v: {(p[0], p[1]): (q[0], q[1]) for p, q in entries}
        for v, entries in data["alpha"].items()
    }
    return a, alpha


def validate(vs: ConnectingVSystem) -> list[str]:
    """Definition checks; returns a list of violations (empty means valid)."""
    g = vs.graph
    out = []
    for e in g.edge_ids():
        if g.is_loop(e):
            out.append(f"LoopEdge: {e}")
    for v in g.vertex_ids():
        if g.degree(v) == 0:
            out.append(f"IsolatedVertex: {v}")
    if set(vs.a) != set(g.vertices):
        out.append("InvolutionDomain: a is not defined on exactly the vertex set")
        return out
    for v in g.vertex_ids():
        w = vs.a[v]
        if w not in g.vertices:
            out.append(f"InvolutionRange: a({v}) = {w} not a vertex")
            continue
        if vs.a[w] != v:
            out.append(f"NotInvolution: a(a({v})) = {vs.a[w]}")
        if g.degree(v) != g.degree(w):
            out.append(f"DegreeMismatch: deg({v}) != deg(a({v}))")
    if out:
        return out
    for v in g.vertex_ids():
        w = vs.a[v]
        link_v = set(g.link(v))
        link_w = set(g.link(w))
        m = vs.alpha.get(v)
        if m is None:
            out.append(f"MissingAlpha: {v}")
            continue
        if set(m.keys()) != link_v or set(m.values()) != link_w or len(set(m.values())) != len(m):
            out.append(f"AlphaNotBijective: alpha_{v} is not a bijection Lk({v}) -> Lk({w})")
            continue
        mw = vs.alpha.get(w, {})
        inv = {q: p for p, q in m.items()}
        if mw != inv:
            out.append(f"AlphaNotInverse: alpha_{w} != alpha_{v}^-1")
    return out


def successor(vs: ConnectingVSystem, eps: OrientedEdge) -> OrientedEdge:
    """The next oriented edge of the line through eps.

    At the head v of eps, the gluing matches the arriving end with
    alpha_v of it, an end at a(v); the line continues along that end's edge,
    oriented away from a(v).
    """
    v = head_vertex(vs.graph, eps)
    q = vs.alpha[v][head_end(eps)]
    return away_from_end(q)


def predecessor(vs: ConnectingVSystem, eps: OrientedEdge) -> OrientedEdge:
    return bar(successor(vs, bar(eps)))


@dataclass(frozen=True)
class Line:
    """A line, represented by one period of its successor orbit.

    For an orientable line the orbit and its mirror are disjoint and the
    stored orbit is the orientation class containing the least oriented edge;
    for a nonorientable line the orbit contains both orientations of its
    edges. period is the orbit length.
    """

    orbit: tuple[OrientedEdge, ...]
    orientable: bool

    @property
    def period(self) -> int:
        return len(self.orbit)

    @property
    def edge_class(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.orbit)


def _mirror(orbit: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    return tuple(bar(x) for x in reversed(orbit))


def _rotate_to_least(orbit: tuple[OrientedEdge, ...]) -> tuple[OrientedEdge, ...]:
    i = orbit.index(min(orbit))
    return orbit[i:] + orbit[:i]


def lines(vs: ConnectingVSystem) -> list[Line]:
    """Successor orbits with mirror orbits merged; sorted by representative."""
    seen: set[OrientedEdge] = set()
    out = []
    for eps in vs.oriented_edges():
        if eps in seen:
            continue
        orbit = [eps]
        cur = successor(vs, eps)
        while cur != eps:
            orbit.append(cur)
            cur = successor(vs, cur)
        orbit_t = tuple(orbit)
        seen.update(orbit_t)
        mirror = _mirror(orbit_t)
        if set(mirror) & set(orbit_t):
            out.append(Line(_rotate_to_least(orbit_t), orientable=False))
        else:
            seen.update(mirror)
            best = orbit_t if min(orbit_t) <= min(mirror) else mirror
            out.append(Line(_rotate_to_least(best), orientable=True))
    return sorted(out, key=lambda ln: ln.orbit)


def has_nonorientable_line(vs: ConnectingVSystem) -> bool:
    """Fixed-point criterion: some v with a(v) = v and alpha_v fixing an end."""
    for v in vs.graph.vertex_ids():
        if vs.a[v] != v:
            continue
        for p, q in vs.alpha[v].items():
            if p == q:
                return True
    return False


def _vertex_profile(
    vs: ConnectingVSystem, orbit: tuple[OrientedEdge, ...]
) -> tuple[tuple[str, str], ...]:
    g = vs.graph
    return tuple((tail_vertex(g, eps), head_vertex(g, eps)) for eps in orbit)


def _share_ends(vs: ConnectingVSystem, l1: Line, l2: Line) -> bool:
    """Synchronized joint-orbit check: can the two lines be aligned so their
    (tail, head) vertex pairs agree at every step over a full common period?"""
    import math

    p1, p2 = l1.period, l2.period
    lcm = math.lcm(p1, p2)
    prof1 = _vertex_profile(vs, l1.orbit)
    for orbit2 in (l2.orbit, _mirror(l2.orbit)):
        prof2 = _vertex_profile(vs, orbit2)
        for s in range(p2):
            if all(prof1[t % p1] == prof2[(t + s) % p2] for t in range(lcm)):
                return True
    return False


def lines_sharing_ends(vs: ConnectingVSystem) -> list[list[Line]]:
    """Group lines whose induced geodesics coincide (shared end pairs)."""
    ls = lines(vs)
    n = len(ls)
    shared = [(i, j) for i in range(n) for j in range(i + 1, n) if _share_ends(vs, ls[i], ls[j])]
    groups = components(Multigraph(range(n), dict(enumerate(shared))))
    return sorted(([ls[i] for i in sorted(c)] for c in groups), key=lambda grp: grp[0].orbit)


def theta_standard_system(k: int, prefix: str = "") -> ConnectingVSystem:
    """The standard system of the theta graph with k edges.

    The involution swaps the two vertices and the link bijections are
    tautological: each edge-end at one vertex maps to the other end of the
    same edge. Every line consists of appearances of a single edge.
    """
    from .multigraph import theta_graph

    g = theta_graph(k, prefix)
    u, w = prefix + "u", prefix + "w"
    a = {u: w, w: u}
    alpha = {
        u: {(e, 0): (e, 1) for e in g.edge_ids()},
        w: {(e, 1): (e, 0) for e in g.edge_ids()},
    }
    return ConnectingVSystem(g, a, alpha)


def lines_report(vs: ConnectingVSystem) -> dict:
    ls = lines(vs)
    groups = lines_sharing_ends(vs)
    index = {ln.orbit: i for i, ln in enumerate(ls)}
    return {
        "schema": "tog/1",
        "lines": [
            {
                "orbit": [[e, o] for e, o in ln.orbit],
                "period": ln.period,
                "orientable": ln.orientable,
                "edge_class": sorted(ln.edge_class),
            }
            for ln in ls
        ],
        "end_pair_groups": [sorted(index[ln.orbit] for ln in grp) for grp in groups],
        "has_nonorientable_line": has_nonorientable_line(vs),
    }
