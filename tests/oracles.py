"""Slow, definitional oracles that the fast kernels are tested against.

networkx is a test-only dependency: it is imported here, by the isomorphism
oracle, and nowhere in ``tog``.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from tog.multigraph import Multigraph, SurgeryError, Vertex, blow_up, complement_components, components


def smoothed(g: Multigraph) -> Multigraph:
    """Remove degree-2 vertices by merging their incident edges.

    The result is homeomorphic to g. Circle components are left with a single
    vertex carrying a loop. Edge ids in the result are not meaningful.
    """
    vertices = set(g.vertices)
    edges = dict(g.edges)
    changed = True
    while changed:
        changed = False
        for v in sorted(vertices):
            incident = []
            for e, (t, h) in edges.items():
                if t == v:
                    incident.append((e, 0))
                if h == v:
                    incident.append((e, 1))
            if len(incident) != 2:
                continue
            (e1, i1), (e2, i2) = sorted(incident)
            if e1 == e2:
                continue  # loop at v: a circle component, keep one vertex
            a = edges[e1][1 - i1]
            b = edges[e2][1 - i2]
            del edges[e1]
            del edges[e2]
            edges[f"({e1}|{e2})"] = (a, b)
            vertices.remove(v)
            changed = True
            break
    return Multigraph(vertices, edges)


def is_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Isomorphism of multigraphs, respecting edge multiplicities and loops."""

    def to_nx(g: Multigraph) -> nx.MultiGraph:
        G = nx.MultiGraph()
        G.add_nodes_from(g.vertex_ids())
        G.add_edges_from(g.ends(e) for e in g.edge_ids())
        return G

    return nx.is_isomorphic(to_nx(g1), to_nx(g2))


def is_homeomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Isomorphism after smoothing away degree-2 vertices."""
    return is_isomorphic(smoothed(g1), smoothed(g2))


def two_connected_by_definition(g: Multigraph) -> bool:
    """Definitional check: connected, >= 2 vertices, no bridge (parallel
    edges are never bridges), and the blow-up at every vertex connected."""
    if not g.vertices or len(g.vertices) < 2:
        return False
    if len(components(g)) != 1:
        return False
    parallel = {}
    for e in g.edge_ids():
        parallel.setdefault(frozenset(g.ends(e)), []).append(e)
    for pair, es in parallel.items():
        if len(pair) == 1 or len(es) > 1:
            continue
        rest = g.edges
        del rest[es[0]]
        if len(components(Multigraph(g.vertices, rest))) > 1:
            return False
    for v in g.vertex_ids():
        if len(components(blow_up(g, [Vertex(v)]).graph)) > 1:
            return False
    return True


def scan_twin(g: Multigraph, x: str) -> Optional[str]:
    """Definitional twin of x: every equal-degree y whose complement pair
    {x, y} has deg x components, counted on the blow-up."""
    d = g.degree(x)
    found = [
        y
        for y in g.vertex_ids()
        if y != x
        and g.degree(y) == d
        and complement_components(g, [Vertex(x), Vertex(y)])[0] == d
    ]
    if len(found) > 1:
        raise SurgeryError(f"vertex {x!r} has more than one twin: {found}")
    return found[0] if found else None
