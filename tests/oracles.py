"""Slow, definitional oracles that the fast kernels are tested against.

networkx is a test-only dependency: it is imported here, by the isomorphism
oracle, and nowhere in ``tog``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import networkx as nx

from tog.multigraph import (
    Interior,
    Multigraph,
    PointLocus,
    SurgeryError,
    Vertex,
    _complement,
    blow_up,
    components,
    is_two_connected,
)
from tog.rcs import CellTarget, PartialUnion, Site, _resolve_site_locus, schedule_sites
from tog.twin_theta import (
    IsCircle,
    NotTwinGraph,
    SplitRecord,
    ThetaSumTree,
    _exits,
    _twin_pairs,
    essential_vertices,
)
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


def complement_components_by_blow_up(
    g: Multigraph, loci: list[PointLocus]
) -> tuple[int, dict[str, int]]:
    """pi_0 of the complement of the loci, counted on the blow-up: the
    components sorted by least vertex, and each divisor's component index."""
    r = blow_up(g, loci)
    comps = components(r.graph)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    return len(comps), {d: where[d] for dd in r.divisors.values() for d in dd}


def inner_census_by_blow_up(g: Multigraph, x: str, y: str):
    """Which components of the blow-up at {x, y} hold essential vertices.

    Returns (whether at most one does, entries). entries is None unless
    exactly one does; then it holds the edge at x and the edge at y whose
    divisor lies in that component, each None unless it is the only one."""
    r = blow_up(g, [Vertex(x), Vertex(y)])
    where = {v: i for i, comp in enumerate(components(r.graph)) for v in comp}
    ess = {where[v] for v in g.vertex_ids() if g.degree(v) != 2 and v not in (x, y)}
    if len(ess) != 1:
        return len(ess) <= 1, None
    (target,) = ess
    entries = []
    for vx in (x, y):
        hits = [end[1] for d, end in r.divisors[Vertex(vx)].items() if where[d] == target]
        entries.append(hits[0] if len(hits) == 1 else None)
    return True, tuple(entries)


def essential_component_data(g: Multigraph, x: str, y: str):
    """The union-find roots of g minus {x, y}, and the roots of the
    components that hold essential vertices."""
    root = _complement(g, [Vertex(x), Vertex(y)])[0]
    essential = [v for v in g.vertex_ids() if g.degree(v) != 2 and v not in (x, y)]
    return root, {root[v] for v in essential}


def edge_into(g: Multigraph, root: dict[str, str], target: str, vx: str) -> str:
    """The one edge at vx whose far end lies in the component rooted at target."""
    hits = [e for e, i in g.link(vx) if root.get(g.ends(e)[1 - i]) == target]
    if len(hits) != 1:
        raise SurgeryError("essential component not attached by a single edge")
    return hits[0]


def peel_by_scan(g: Multigraph, twins: list[tuple[str, str]]):
    """The pair a peel splits at, found by one union-find per candidate:
    the first of the twin pairs with at most one essential complement
    component. Returns the pair and the edges at x and y into that component,
    or None for the edges when there is none."""
    for x, y in twins:
        root, ess = essential_component_data(g, x, y)
        if len(ess) <= 1:
            if not ess:
                return (x, y), None
            (target,) = ess
            return (x, y), (edge_into(g, root, target, x), edge_into(g, root, target, y))
    raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")


def peel_by_blow_up(g: Multigraph, pairs: list[tuple[str, str]], step: int):
    """One peel as a blow-up: the split at the first of the twin pairs that
    passes the arc test cuts both exit edges at 1/2 with blow_up and reads
    the summand off the components. Returns the summand's size, its split
    record (None when g is that theta) and the remainder."""
    for n, (x, y) in enumerate(pairs):
        x_exits = _exits(g._incidence(), g._edges, x, y)
        if len(x_exits) <= 1:
            break
    else:
        raise SurgeryError("no essential twin pair with an inner component (not a twin graph?)")
    del pairs[n]
    k = g.degree(x)
    if not x_exits:
        return k, None, g
    y_exits = _exits(g._incidence(), g._edges, y, x)
    if len(y_exits) != 1:
        raise SurgeryError("essential component not attached by a single edge")
    (e_x,), (e_y,) = x_exits, y_exits
    tjoin, cjoin = f"tj{step}", f"cj{step}"
    for e in (tjoin, cjoin):
        if e in g._edges:
            raise SurgeryError(f"id collision for edge {e!r}")
    half = Fraction(1, 2)
    rs = blow_up(g, [Interior(e_x, half), Interior(e_y, half)])
    scomps = components(rs.graph)
    if len(scomps) != 2:
        raise SurgeryError("cutting the two arcs did not split the graph in two")
    tverts = next(comp for comp in scomps if x in comp)
    cverts = set(rs.graph.vertices) - tverts
    tedges = {e: ends for e, ends in rs.graph.edges.items() if ends[0] in tverts}
    cedges = {e: ends for e, ends in rs.graph.edges.items() if ends[0] in cverts}
    divisor_pairs = {}
    for e in (e_x, e_y):
        side = {desc[1]: d for d, desc in rs.divisors[Interior(e, half)].items()}
        t, h = side["tail"], side["head"]
        divisor_pairs[e] = (t, h) if t in tverts else (h, t)
    (tx, cx), (ty, cy) = divisor_pairs[e_x], divisor_pairs[e_y]
    tedges[tjoin] = (tx, ty)
    cedges[cjoin] = (cx, cy)
    tpiece = Multigraph(tverts, tedges)
    record = SplitRecord(k, (x, y), (e_x, e_y), tpiece, tjoin, cjoin, divisor_pairs)
    return k, record, Multigraph(cverts, cedges)


def decomposition_by_blow_up(g: Multigraph) -> ThetaSumTree:
    """theta_sum_decomposition with every split a blow-up of the whole
    remainder and a components() call."""
    pairs = _twin_pairs(g) if is_two_connected(g) else None
    if pairs is None:
        raise NotTwinGraph("input is not a twin graph")
    if not essential_vertices(g):
        raise IsCircle("input is homeomorphic to the circle")
    summands, records, current = [], [], g
    while True:
        k, rec, current = peel_by_blow_up(current, pairs, len(records))
        summands.append(k)
        if rec is None:
            return ThetaSumTree(summands, records, current)
        records.append(rec)


def scan_twin(g: Multigraph, x: str) -> Optional[str]:
    """Definitional twin of x: every equal-degree y whose complement pair
    {x, y} has deg x components, counted on the blow-up."""
    d = g.degree(x)
    found = [
        y
        for y in g.vertex_ids()
        if y != x
        and g.degree(y) == d
        and complement_components_by_blow_up(g, [Vertex(x), Vertex(y)])[0] == d
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


def expansion_dict(pu: PartialUnion) -> dict:
    """The expansion artifact of pu, built as a dict from the tree, the
    frontier and provenance(); write_canonical must write its canonical text."""
    prov_v, prov_e = pu.provenance()
    tree = {}
    for node, info in sorted(pu.nodes.items()):
        tree[node] = {
            "parent": info.parent,
            "depth": info.depth,
            "component": info.component,
            "via": None if info.via is None else info.via.to_json(),
        }
    return {
        "schema": "tog/1",
        "graph": pu.graph.to_json_dict(),
        "tree": tree,
        "frontier": [s.to_json() for s in pu.frontier],
        "provenance": {
            "vertices": {v: {"node": n, "cell": c} for v, (n, c) in prov_v.items()},
            "edges": {
                e: {"node": n, "cell": c, "interval": [lo, hi]}
                for e, (n, c, lo, hi) in prov_e.items()
            },
        },
    }
