"""Slow, definitional oracles that the fast kernels are tested against.

networkx is a test-only dependency: it is imported here, by the isomorphism
oracle, and nowhere in ``tog``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import networkx as nx

from tog.multigraph import Multigraph, SurgeryError, Vertex, blow_up, complement_components, components
from tog.rcs import CellTarget, PartialUnion, Site, _resolve_site_locus, schedule_sites
from tog.vsystem import ConnectingVSystem, Line, _mirror, _vertex_profile


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


def share_ends(vs: ConnectingVSystem, l1: Line, l2: Line) -> bool:
    """Synchronized joint-orbit check: can the two lines be aligned so their
    (tail, head) vertex pairs agree at every step over a full common period?"""
    p1, p2 = l1.period, l2.period
    lcm = math.lcm(p1, p2)
    prof1 = _vertex_profile(vs, l1.orbit)
    for orbit2 in (l2.orbit, _mirror(l2.orbit)):
        prof2 = _vertex_profile(vs, orbit2)
        for s in range(p2):
            if all(prof1[t % p1] == prof2[(t + s) % p2] for t in range(lcm)):
                return True
    return False


def project_by_incidence(deep: PartialUnion, shallow: PartialUnion) -> dict[tuple, CellTarget]:
    """The blow-down cell map, found from the deep graph's incidences: each
    edge by its arc record, each surviving copy vertex by its id prefix, and
    each seam vertex of a shallow node by the collapsed child whose edges
    meet it."""
    for node, info in shallow.nodes.items():
        dinfo = deep.nodes.get(node)
        if dinfo is None or dinfo.parent != info.parent:
            raise SurgeryError("shallow tree is not a prefix of the deep tree")

    def containing_arc(node: str, e0: str, lo: Fraction, hi: Fraction) -> str:
        for ce, a, b in shallow.arcs[(node, e0)]:
            if a <= lo and hi <= b:
                return ce
        raise SurgeryError("deep arc not contained in any shallow arc")

    def branch_locus(node: str) -> CellTarget:
        info = deep.nodes[node]
        if info.parent is None:
            raise SurgeryError(f"node {node} is not below the shallow tree")
        if info.parent in shallow.nodes:
            return _resolve_site_locus(shallow, info.via)
        return branch_locus(info.parent)

    deep_arc_info = {}
    incident: dict[str, list[str]] = {}
    for (node, e0), chain in deep.arcs.items():
        for ce, lo, hi in chain:
            deep_arc_info[ce] = (node, e0, lo, hi)
    for e, (t, h) in deep.edges.items():
        incident.setdefault(t, []).append(e)
        incident.setdefault(h, []).append(e)

    cell_map: dict[tuple, CellTarget] = {}
    for e in deep.edges:
        node, e0, lo, hi = deep_arc_info[e]
        if node in shallow.nodes:
            cell_map[("edge", e)] = ("edge", containing_arc(node, e0, lo, hi))
        else:
            cell_map[("edge", e)] = branch_locus(node)
    for v in deep.vertices:
        if v in shallow.vertices:
            cell_map[("vertex", v)] = ("vertex", v)
            continue
        node = v.split("|", 1)[0]
        if node in shallow.nodes:
            children = [deep_arc_info[e][0] for e in incident.get(v, ())]
            child = next((n for n in children if n not in shallow.nodes), None)
            if child is None:
                raise SurgeryError(f"cannot locate collapsing branch for vertex {v}")
            cell_map[("vertex", v)] = branch_locus(child)
        else:
            cell_map[("vertex", v)] = branch_locus(node)
    return cell_map


def frontier_by_bookkeeping(pu: PartialUnion) -> list[Site]:
    """The unexpanded sites, kept as a list: every site a copy had when it was
    added, all but the vertex it was glued at, less every via in the tree,
    sorted by node, V before E, then cell, position and partner."""
    made, vias = [], set()
    for node, info in pu.nodes.items():
        vs, es = pu.rcs.component_cells(info.component)
        via = info.via
        skip = pu.rcs.vsys.a[via.vertex] if via is not None and via.kind == "V" else None
        made += [Site("V", node, info.depth, vertex=v) for v in vs if v != skip]
        for e in es:
            made += [
                Site("E", node, info.depth, edge=e, position=pos, partner=partner)
                for pos, partner in schedule_sites(pu.rcs, e, pu.resolution)
            ]
        if via is not None:
            vias.add(via)

    def sort_key(s: Site):
        if s.kind == "V":
            return (s.node, 0, s.vertex, Fraction(0), "")
        return (s.node, 1, s.edge, s.position, s.partner[0])

    return sorted((s for s in made if s not in vias), key=sort_key)
