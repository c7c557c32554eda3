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

from .multigraph import Multigraph, SurgeryError, theta_graph

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


def least_rotation(seq) -> tuple:
    """The lexicographically least rotation of a nonempty sequence."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def primitive_period(seq) -> int:
    """The least d such that seq is its first d items repeated."""
    seq, n = tuple(seq), len(seq)
    return next((d for d in range(1, n) if n % d == 0 and seq == seq[:d] * (n // d)), n)


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
            **encode_gluing(self),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConnectingVSystem":
        if data.get("schema") != "tog/1":
            raise SurgeryError("missing or unsupported schema tag (expected 'tog/1')")
        graph = Multigraph.from_json_dict(data["graph"])
        return cls(graph, *decode_gluing(data))


def encode_gluing(vs: ConnectingVSystem) -> dict:
    """The "a" and "alpha" entries of a tog/1 document; inverse of decode_gluing."""
    return {
        "a": [[v, vs.a[v]] for v in sorted(vs.a)],
        "alpha": {
            v: [[list(p), list(q)] for p, q in sorted(m.items())]
            for v, m in sorted(vs.alpha.items())
        },
    }


def decode_end(x) -> tuple[str, int]:
    """An edge-end or oriented edge of a tog/1 document: an [edge id, int] pair."""
    if type(x) is not list or len(x) != 2 or type(x[0]) is not str or type(x[1]) is not int:
        raise SurgeryError(f"end {x!r} must be an [edge id, index] pair")
    return (x[0], x[1])


def decode_gluing(data: dict) -> tuple[dict[str, str], dict[str, dict[End, End]]]:
    """The involution a and the link bijections alpha of a tog/1 document."""
    for pair in data["a"]:
        if type(pair) is not list or len(pair) != 2 or not all(type(c) is str for c in pair):
            raise SurgeryError(f"'a' entry {pair!r} must be a pair of cell ids")
    a = {v: w for v, w in data["a"]}
    if not isinstance(data["alpha"], dict):
        raise SurgeryError("'alpha' must be an object")
    alpha = {
        v: {decode_end(p): decode_end(q) for p, q in entries}
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
    # (e, i) is both end i of e and e leaving it: eps arrives by end bar(eps)
    return vs.alpha[head_vertex(vs.graph, eps)][bar(eps)]


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
            out.append(Line(least_rotation(orbit_t), orientable=False))
        else:
            seen.update(mirror)
            best = orbit_t if min(orbit_t) <= min(mirror) else mirror
            out.append(Line(least_rotation(best), orientable=True))
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


def _profile_key(vs: ConnectingVSystem, orbit: tuple[OrientedEdge, ...]) -> tuple:
    """The least rotation of the primitive root of orbit's vertex profile."""
    prof = _vertex_profile(vs, orbit)
    return least_rotation(prof[:primitive_period(prof)])


def lines_sharing_ends(vs: ConnectingVSystem) -> list[list[Line]]:
    """Group lines whose induced geodesics coincide (shared end pairs).

    Two lines share ends iff the primitive root of one's vertex profile is a
    rotation of the other's or of its mirror's, so the lesser key names a group.
    """
    groups: dict[tuple, list[Line]] = {}
    for ln in lines(vs):  # sorted, so the groups come out sorted by first orbit
        key = min(_profile_key(vs, ln.orbit), _profile_key(vs, _mirror(ln.orbit)))
        groups.setdefault(key, []).append(ln)
    return list(groups.values())


def theta_standard_system(k: int) -> ConnectingVSystem:
    """The standard system of the theta graph with k edges.

    The involution swaps the two vertices and the link bijections are
    tautological: each edge-end at one vertex maps to the other end of the
    same edge. Every line consists of appearances of a single edge.
    """
    g = theta_graph(k)
    a = {"u": "w", "w": "u"}
    alpha = {
        "u": {(e, 0): (e, 1) for e in g.edge_ids()},
        "w": {(e, 1): (e, 0) for e in g.edge_ids()},
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
