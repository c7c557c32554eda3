"""Graphical connecting systems and the finite expansion engine.

A graphical connecting system is a disjoint union of connected loop-free
graphs equipped with a connecting V-system and a set A of E-connections
(ordered pairs of oriented edges, closed under swapping and under reversing
both orientations, covering every oriented edge, and linking the components
transitively). Such a system determines a regular tree of graphs; this module
materializes its finite approximations, the reduced partial unions, by
breadth-first iterated connected sums, with full provenance, a deterministic
site scheduler, and blow-down projections between approximation levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .multigraph import Multigraph, SurgeryError, components as graph_components
from .vsystem import ConnectingVSystem, End, OrientedEdge, bar
from . import vsystem as _vsystem


class ResourceCapExceeded(RuntimeError):
    """Raised when an expansion would exceed the configured copy cap."""


def _frac_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


@dataclass
class GraphicalConnectingSystem:
    """(Gamma, a, A): components, V-system over their union, E-connections.

    Component cells live in the union under the prefix "<name>:"; the
    V-system and the E-connection pairs are given in union coordinates.
    Per-component cells and the partner lists of A are indexed once, here.
    """

    names: list[str]
    components: list[Multigraph]
    union: Multigraph
    vsys: ConnectingVSystem
    econnections: frozenset[tuple[OrientedEdge, OrientedEdge]]

    def __post_init__(self):
        vs, es = self.union.vertex_ids(), self.union.edge_ids()
        self._cells = {
            n: ([v for v in vs if v.startswith(n + ":")], [e for e in es if e.startswith(n + ":")])
            for n in self.names
        }
        partners: dict[OrientedEdge, list[OrientedEdge]] = {}
        for e1, e2 in self.econnections:
            partners.setdefault(e1, []).append(e2)
        self._partners = {e: sorted(ps) for e, ps in partners.items()}

    @classmethod
    def build(
        cls,
        named_components: Sequence[tuple[str, Multigraph]],
        a: dict[str, str],
        alpha: dict[str, dict[End, End]],
        econnections: Iterable[tuple[OrientedEdge, OrientedEdge]],
    ) -> "GraphicalConnectingSystem":
        names = [n for n, _ in named_components]
        if len(set(names)) != len(names):
            raise SurgeryError("duplicate component names")
        comps = [g for _, g in named_components]
        vertices: set[str] = set()
        edges: dict[str, tuple[str, str]] = {}
        for n, g in named_components:
            pg = g.relabel(n + ":")
            vertices |= pg.vertices
            edges.update(pg.edges)
        union = Multigraph(vertices, edges)
        vsys = ConnectingVSystem(union, dict(a), {v: dict(m) for v, m in alpha.items()})
        return cls(names, comps, union, vsys, frozenset(econnections))

    def component_of(self, cell: str) -> str:
        return cell.split(":", 1)[0]

    def component_index(self, name: str) -> int:
        return self.names.index(name)

    def component_cells(self, name: str) -> tuple[list[str], list[str]]:
        """Sorted (vertices, edges) of a component in the union; read-only."""
        return self._cells[name]

    def partners_of(self, eps: OrientedEdge) -> list[OrientedEdge]:
        """The sorted set O_eps of A-partners of an oriented edge; read-only."""
        return self._partners.get(eps, [])

    def to_json_dict(self) -> dict:
        return {
            "schema": "tog/1",
            "components": [
                {"name": n, "graph": g.to_json_dict()}
                for n, g in zip(self.names, self.components)
            ],
            "a": [[v, self.vsys.a[v]] for v in sorted(self.vsys.a)],
            "alpha": {
                v: [[list(p), list(q)] for p, q in sorted(m.items())]
                for v, m in sorted(self.vsys.alpha.items())
            },
            "econnections": sorted(
                [list(e1), list(e2)] for e1, e2 in self.econnections
            ),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphicalConnectingSystem":
        if data.get("schema") != "tog/1":
            raise SurgeryError("missing or unsupported schema tag (expected 'tog/1')")
        named = [
            (rec["name"], Multigraph.from_json_dict(rec["graph"]))
            for rec in data["components"]
        ]
        a = {v: w for v, w in data["a"]}
        alpha = {
            v: {(p[0], p[1]): (q[0], q[1]) for p, q in entries}
            for v, entries in data["alpha"].items()
        }
        A = frozenset(
            ((e1[0], e1[1]), (e2[0], e2[1])) for e1, e2 in data["econnections"]
        )
        return cls.build(named, a, alpha, A)


def validate(rcs: GraphicalConnectingSystem) -> list[str]:
    """Definition checks; returns a list of violations (empty means valid)."""
    out = []
    for n, g in zip(rcs.names, rcs.components):
        if not g.vertices:
            out.append(f"EmptyComponent: {n}")
        elif len(graph_components(g)) != 1:
            out.append(f"DisconnectedComponent: {n}")
        if not g.edges:
            out.append(f"EdgelessComponent: {n}")
    out.extend(_vsystem.validate(rcs.vsys))

    oriented = set(rcs.vsys.oriented_edges())
    for e1, e2 in rcs.econnections:
        if e1 not in oriented or e2 not in oriented:
            out.append(f"UnknownEdgeInA: ({e1}, {e2})")
            return out
    A = rcs.econnections
    for e1, e2 in A:
        if (e2, e1) not in A:
            out.append(f"NotSwapClosed: ({e1}, {e2})")
        if (bar(e1), bar(e2)) not in A:
            out.append(f"NotBarClosed: ({e1}, {e2})")
    covered = {e1 for e1, _ in A} | {e2 for _, e2 in A}
    for eps in sorted(oriented):
        if eps not in covered:
            out.append(f"UncoveredOrientedEdge: {eps}")

    # transitivity: components must be linked by a-links or A-links
    idx = {n: i for i, n in enumerate(rcs.names)}
    parent = list(range(len(rcs.names)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(c1: str, c2: str):
        r1, r2 = find(idx[c1]), find(idx[c2])
        if r1 != r2:
            parent[r1] = r2

    for v, w in rcs.vsys.a.items():
        link(rcs.component_of(v), rcs.component_of(w))
    for e1, e2 in A:
        link(rcs.component_of(e1[0]), rcs.component_of(e2[0]))
    if len(rcs.names) > 0 and len({find(i) for i in range(len(rcs.names))}) != 1:
        out.append("TransitivityFailure: components not linked by a-links or A-links")
    return out


def reflection_system(g: Multigraph, name: str = "c0") -> GraphicalConnectingSystem:
    """The reflection connecting system: a = id, alpha = id, A = diagonal."""
    pg = g.relabel(name + ":")
    a = {v: v for v in pg.vertices}
    alpha = {v: {end: end for end in pg.link(v)} for v in pg.vertices}
    A = {((e, o), (e, o)) for e in pg.edge_ids() for o in (0, 1)}
    return GraphicalConnectingSystem.build([(name, g)], a, alpha, A)


@dataclass(frozen=True)
class Site:
    """An unexpanded gluing site on one copy (tree node) of a component.

    V-sites sit at a vertex (union coordinates); E-sites sit at an interior
    position of an edge, with the A-partner assigned by the scheduler for the
    edge's reference orientation (the partner for the reversed orientation is
    the bar of the assigned one).
    """

    kind: str  # "V" or "E"
    node: str
    depth: int
    vertex: Optional[str] = None
    edge: Optional[str] = None
    position: Optional[Fraction] = None
    partner: Optional[OrientedEdge] = None

    def sort_key(self):
        if self.kind == "V":
            return (self.node, 0, self.vertex, Fraction(0), "")
        return (self.node, 1, self.edge, self.position, self.partner[0])

    def to_json(self) -> dict:
        if self.kind == "V":
            return {"kind": "V", "node": self.node, "depth": self.depth, "vertex": self.vertex}
        return {
            "kind": "E",
            "node": self.node,
            "depth": self.depth,
            "edge": self.edge,
            "position": _frac_str(self.position),
            "partner": list(self.partner),
        }


def schedule_sites(
    rcs: GraphicalConnectingSystem, edge: str, r: int
) -> list[tuple[Fraction, OrientedEdge]]:
    """The r scheduled E-sites of an edge: positions k/(r+1), partners cycling
    round-robin through the sorted partner set of the reference orientation.

    Bar-compatibility is by derivation: the partner of the reversed
    orientation at the same locus is the bar of the assigned partner.
    """
    partners = rcs.partners_of((edge, 0))
    if not partners:
        raise SurgeryError(f"edge {edge!r} has no A-partners")
    if r < len(partners):
        warnings.warn(
            f"resolution {r} below partner count {len(partners)} for edge {edge!r}; "
            "some partners are not represented at this resolution"
        )
    return [
        (Fraction(k, r + 1), partners[(k - 1) % len(partners)]) for k in range(1, r + 1)
    ]


@dataclass
class NodeInfo:
    parent: Optional[str]
    depth: int
    component: str  # component name
    via: Optional[Site]  # the parent-side site whose expansion created this node


class PartialUnion:
    """A finite reduced partial union with provenance and a site frontier.

    The graph is built by iterated connected sums: one copy of a component
    per tree node, glued at expanded sites. Cell ids are "<node>|<cell>" for
    cells inherited from a component copy; surgery vertices carry derived
    deterministic ids. arcs tracks, per (node, original edge), the current
    arcs covering (0,1) in original-edge coordinates.
    """

    def __init__(self, rcs: GraphicalConnectingSystem, resolution: int, cap: int = 10000):
        self.rcs = rcs
        self.resolution = resolution
        self.cap = cap
        self.vertices: set[str] = set()
        self.edges: dict[str, tuple[str, str]] = {}
        self.nodes: dict[str, NodeInfo] = {}
        self.frontier: list[Site] = []
        self.vertex_cell: dict[tuple[str, str], Optional[str]] = {}
        self.consumed_by: dict[tuple[str, str], tuple[str, str]] = {}
        self.arcs: dict[tuple[str, str], list[tuple[str, Fraction, Fraction]]] = {}
        self.child_count: dict[str, int] = {}
        # static per (system, resolution), so shared by every copy
        self._schedules: dict[str, list[tuple[Fraction, OrientedEdge]]] = {}
        self._graph_cache: Optional[Multigraph] = None

    # -- construction ------------------------------------------------------

    def copy(self) -> "PartialUnion":
        pu = PartialUnion(self.rcs, self.resolution, self.cap)
        pu.vertices = set(self.vertices)
        pu.edges = dict(self.edges)
        pu.nodes = dict(self.nodes)
        pu.frontier = list(self.frontier)
        pu.vertex_cell = dict(self.vertex_cell)
        pu.consumed_by = dict(self.consumed_by)
        pu.arcs = {k: list(v) for k, v in self.arcs.items()}
        pu.child_count = dict(self.child_count)
        pu._schedules = self._schedules
        return pu

    @property
    def graph(self) -> Multigraph:
        if self._graph_cache is None:
            self._graph_cache = Multigraph(self.vertices, self.edges)
        return self._graph_cache

    def _dirty(self):
        self._graph_cache = None

    def _add_copy(self, node: str, comp_name: str, depth: int, skip_vertex: Optional[str]):
        if len(self.nodes) >= self.cap:
            raise ResourceCapExceeded(
                f"copy cap of {self.cap} component copies exceeded"
            )
        vs, es = self.rcs.component_cells(comp_name)
        for v in vs:
            self.vertices.add(f"{node}|{v}")
            self.vertex_cell[(node, v)] = f"{node}|{v}"
        for e in es:
            t, h = self.rcs.union.ends(e)
            self.edges[f"{node}|{e}"] = (f"{node}|{t}", f"{node}|{h}")
            self.arcs[(node, e)] = [(f"{node}|{e}", Fraction(0), Fraction(1))]
        self.nodes[node] = NodeInfo(None, depth, comp_name, None)
        self.child_count[node] = 0
        for v in vs:
            if v != skip_vertex:
                self.frontier.append(Site("V", node, depth, vertex=v))
        for e in es:
            sched = self._schedules.get(e)
            if sched is None:
                sched = self._schedules[e] = schedule_sites(self.rcs, e, self.resolution)
            for pos, partner in sched:
                self.frontier.append(
                    Site("E", node, depth, edge=e, position=pos, partner=partner)
                )
        self._dirty()

    def _current_end(self, node: str, end: End) -> tuple[str, int]:
        """The current (edge, end index) realizing an original edge-end."""
        e0, i = end
        chain = self.arcs[(node, e0)]
        if i == 0:
            arc = chain[0]
            if arc[1] != 0:
                raise SurgeryError(f"end {end} of node {node} no longer exists")
            return (arc[0], 0)
        arc = chain[-1]
        if arc[2] != 1:
            raise SurgeryError(f"end {end} of node {node} no longer exists")
        return (arc[0], 1)

    def _new_child(self, node: str) -> str:
        k = self.child_count[node]
        self.child_count[node] = k + 1
        return f"{node}.{k}"

    # -- expansion ---------------------------------------------------------

    def _expand_v(self, s: Site) -> str:
        rcs = self.rcs
        v = s.vertex
        w = rcs.vsys.a[v]
        m = self._new_child(s.node)
        self._add_copy(m, rcs.component_of(w), s.depth + 1, skip_vertex=w)
        self.nodes[m] = NodeInfo(s.node, s.depth + 1, rcs.component_of(w), s)

        vv = self.vertex_cell[(s.node, v)]
        v1 = self.vertex_cell[(m, w)]
        for p in sorted(rcs.union.link(v)):
            q = rcs.vsys.alpha[v][p]
            ce, ci = self._current_end(s.node, p)
            fe, fi = self._current_end(m, q)
            merged = f"{vv}&{p[0]}.{p[1]}"
            self.vertices.add(merged)
            ends = list(self.edges[ce])
            ends[ci] = merged
            self.edges[ce] = (ends[0], ends[1])
            ends = list(self.edges[fe])
            ends[fi] = merged
            self.edges[fe] = (ends[0], ends[1])
        self.vertices.discard(vv)
        self.vertices.discard(v1)
        self.vertex_cell[(s.node, v)] = None
        self.vertex_cell[(m, w)] = None
        self.consumed_by[(s.node, v)] = (m, w)
        self._dirty()
        return m

    def _expand_e(self, s: Site) -> str:
        rcs = self.rcs
        f0, o = s.partner
        m = self._new_child(s.node)
        self._add_copy(m, rcs.component_of(f0), s.depth + 1, skip_vertex=None)
        self.nodes[m] = NodeInfo(s.node, s.depth + 1, rcs.component_of(f0), s)

        chain = self.arcs[(s.node, s.edge)]
        hit = None
        for idx, (ce, lo, hi) in enumerate(chain):
            if lo < s.position < hi:
                hit = idx
                break
        if hit is None:
            raise SurgeryError(f"site position {s.position} on {s.edge} already consumed")
        ce, lo, hi = chain[hit]
        u0, u1 = self.edges[ce]
        st = f"{s.node}|{s.edge}@{_frac_str(s.position)}t"
        sh = f"{s.node}|{s.edge}@{_frac_str(s.position)}h"
        self.vertices.add(st)
        self.vertices.add(sh)
        cel, cer = f"{ce}l", f"{ce}r"
        del self.edges[ce]
        self.edges[cel] = (u0, st)
        self.edges[cer] = (sh, u1)
        chain[hit : hit + 1] = [(cel, lo, s.position), (cer, s.position, hi)]

        q = Fraction(1, 2 * (self.resolution + 1))
        qpos = q if o == 0 else 1 - q
        pf = f"{m}|{f0}"
        p0, p1 = self.edges[pf]
        pfl, pfr = f"{pf}l", f"{pf}r"
        del self.edges[pf]
        if o == 0:
            # partner's near-tail side is its reference-tail side
            self.edges[pfl] = (p0, st)
            self.edges[pfr] = (sh, p1)
        else:
            self.edges[pfl] = (p0, sh)
            self.edges[pfr] = (st, p1)
        self.arcs[(m, f0)] = [(pfl, Fraction(0), qpos), (pfr, qpos, Fraction(1))]
        self._dirty()
        return m

    def to_json_dict(self) -> dict:
        prov_v = {}
        for (node, v), cur in sorted(self.vertex_cell.items()):
            if cur is not None:
                prov_v[cur] = {"node": node, "cell": v}
        prov_e = {}
        for (node, e0), chain in sorted(self.arcs.items()):
            for ce, lo, hi in chain:
                if ce in self.edges:
                    prov_e[ce] = {
                        "node": node,
                        "cell": e0,
                        "interval": [_frac_str(lo), _frac_str(hi)],
                    }
        tree = {}
        for node, info in sorted(self.nodes.items()):
            tree[node] = {
                "parent": info.parent,
                "depth": info.depth,
                "component": info.component,
                "via": None if info.via is None else info.via.to_json(),
            }
        return {
            "schema": "tog/1",
            "graph": self.graph.to_json_dict(),
            "tree": tree,
            "frontier": [s.to_json() for s in sorted(self.frontier, key=Site.sort_key)],
            "provenance": {"vertices": prov_v, "edges": prov_e},
        }


def init(rcs: GraphicalConnectingSystem, root: int, resolution: int, cap: int = 10000) -> PartialUnion:
    """One copy of the root component with its full site frontier."""
    if not (0 <= root < len(rcs.names)):
        raise SurgeryError(f"invalid root component index {root}")
    violations = validate(rcs)
    if violations:
        raise SurgeryError("invalid connecting system: " + "; ".join(violations))
    pu = PartialUnion(rcs, resolution, cap)
    pu._add_copy("n", rcs.names[root], 0, skip_vertex=None)
    return pu


def expand_site(pu: PartialUnion, s: Site) -> PartialUnion:
    """Adjoin a fresh partner copy at the site by connected sum."""
    if s not in pu.frontier:
        raise SurgeryError("site stale: not in the current frontier")
    out = pu.copy()
    out.frontier.remove(s)
    if s.kind == "V":
        out._expand_v(s)
    else:
        out._expand_e(s)
    return out


def expand_to_depth(pu: PartialUnion, d: int) -> PartialUnion:
    """Breadth-first expansion of every site at tree depth < d."""
    out = pu.copy()
    for level in range(d):
        todo = sorted((s for s in out.frontier if s.depth == level), key=Site.sort_key)
        remaining = [s for s in out.frontier if s.depth != level]
        out.frontier = remaining
        for s in todo:
            if s.kind == "V":
                out._expand_v(s)
            else:
                out._expand_e(s)
    return out


def expand(
    rcs: GraphicalConnectingSystem,
    root: int = 0,
    depth: int = 2,
    resolution: int = 2,
    cap: int = 10000,
) -> PartialUnion:
    return expand_to_depth(init(rcs, root, resolution, cap), depth)


# -- projections -----------------------------------------------------------

CellTarget = tuple  # ("vertex", id) | ("edge", id) | ("interior", edge id, Fraction)


def _attachment_site(deep: PartialUnion, shallow: PartialUnion, node: str) -> Site:
    """The shallow-tree site whose expansion leads toward the given deep node."""
    cur = node
    while deep.nodes[cur].parent is not None and cur not in shallow.nodes:
        parent = deep.nodes[cur].parent
        if parent in shallow.nodes:
            return deep.nodes[cur].via
        cur = parent
    raise SurgeryError(f"node {node} is not below the shallow tree")


def _resolve_site_locus(shallow: PartialUnion, s: Site) -> CellTarget:
    if s.kind == "V":
        cur = shallow.vertex_cell[(s.node, s.vertex)]
        if cur is None:
            raise SurgeryError("attachment vertex consumed in the shallow union")
        return ("vertex", cur)
    for ce, lo, hi in shallow.arcs[(s.node, s.edge)]:
        if lo < s.position < hi:
            return ("interior", ce, s.position)
    raise SurgeryError("attachment position is a cut point of the shallow union")


def project(deep: PartialUnion, shallow: PartialUnion) -> dict[tuple, CellTarget]:
    """The blow-down cell map from a deeper partial union to a shallower one.

    Cells surviving in the shallow union map to themselves (possibly to the
    coarser arc containing them); cells of collapsed branches map to the
    attachment locus of their branch. Interior positions are reported in
    original-edge coordinates, which makes these maps compose strictly.
    """
    for node, info in shallow.nodes.items():
        dinfo = deep.nodes.get(node)
        if dinfo is None or dinfo.parent != info.parent:
            raise SurgeryError("shallow tree is not a prefix of the deep tree")

    shallow_edges = shallow.edges
    shallow_vertices = shallow.vertices
    # arc lookup for refined-edge mapping
    def containing_arc(node: str, e0: str, lo: Fraction, hi: Fraction) -> str:
        for ce, a, b in shallow.arcs[(node, e0)]:
            if a <= lo and hi <= b:
                return ce
        raise SurgeryError("deep arc not contained in any shallow arc")

    cell_map: dict[tuple, CellTarget] = {}
    locus_cache: dict[str, CellTarget] = {}

    def branch_locus(node: str) -> CellTarget:
        if node not in locus_cache:
            site = _attachment_site(deep, shallow, node)
            locus_cache[node] = _resolve_site_locus(shallow, site)
        return locus_cache[node]

    deep_arc_info = {}
    edge_node = {}
    incident: dict[str, list[str]] = {}
    for (node, e0), chain in deep.arcs.items():
        for ce, lo, hi in chain:
            deep_arc_info[ce] = (node, e0, lo, hi)
            edge_node[ce] = node
    for e, (t, h) in deep.edges.items():
        incident.setdefault(t, []).append(e)
        incident.setdefault(h, []).append(e)

    for e, (t, h) in deep.edges.items():
        node, e0, lo, hi = deep_arc_info[e]
        if node in shallow.nodes:
            cell_map[("edge", e)] = ("edge", containing_arc(node, e0, lo, hi))
        else:
            cell_map[("edge", e)] = branch_locus(node)

    for v in deep.vertices:
        if v in shallow_vertices:
            cell_map[("vertex", v)] = ("vertex", v)
            continue
        # surgery vertices live on the boundary between a node and its child;
        # plain cells carry their node in the id prefix
        node = v.split("|", 1)[0]
        if node in shallow.nodes:
            # surgery vertex created while expanding a site of a shallow node
            # whose child is not in the shallow tree: it sits on the boundary
            # with that child, so some incident edge belongs to the child
            child = None
            for e in incident.get(v, ()):
                n2 = edge_node[e]
                if n2 not in shallow.nodes:
                    child = n2
                    break
            if child is None:
                raise SurgeryError(f"cannot locate collapsing branch for vertex {v}")
            cell_map[("vertex", v)] = branch_locus(child)
        else:
            cell_map[("vertex", v)] = branch_locus(node)
    return cell_map


def compose_cell_maps(
    outer: dict[tuple, CellTarget], inner: dict[tuple, CellTarget]
) -> dict[tuple, CellTarget]:
    """Compose deep->mid (inner) with mid->shallow (outer)."""
    out: dict[tuple, CellTarget] = {}
    for cell, target in inner.items():
        if target[0] == "vertex":
            out[cell] = outer[("vertex", target[1])]
        elif target[0] == "edge":
            out[cell] = outer[("edge", target[1])]
        else:
            _, e, pos = target
            t2 = outer[("edge", e)]
            if t2[0] == "edge":
                out[cell] = ("interior", t2[1], pos)
            else:
                out[cell] = t2
    return out


# -- point tracking --------------------------------------------------------


@dataclass
class PointTrace:
    """Per-depth record of a tracked point: its current cell and degree."""

    locus: tuple
    entries: list[dict]


def lift_vertex(pu: PartialUnion, node: str, v: str) -> tuple[str, str, str]:
    """Follow the degree-preserving lift of an essential vertex.

    While the tracked vertex has been consumed by a V-expansion, the lift
    moves to the unique same-degree vertex of the fresh summand not involved
    in that gluing. Returns (node, component cell, current graph vertex id).
    """
    rcs = pu.rcs
    while pu.vertex_cell.get((node, v)) is None:
        if (node, v) not in pu.consumed_by:
            raise SurgeryError(f"vertex ({node}, {v}) unknown or untracked")
        child, glued = pu.consumed_by[(node, v)]
        deg = rcs.union.degree(v)
        comp = pu.nodes[child].component
        vs, _ = rcs.component_cells(comp)
        candidates = [u for u in vs if u != glued and rcs.union.degree(u) == deg]
        if len(candidates) != 1:
            raise SurgeryError(
                f"ambiguous lift: {len(candidates)} degree-{deg} candidates in {comp}"
            )
        node, v = child, candidates[0]
    return node, v, pu.vertex_cell[(node, v)]


def resolve_locus(pu: PartialUnion, node: str, cell: str, position: Optional[Fraction] = None):
    """Resolve a tracked locus to a current graph cell.

    A vertex locus follows its essential lift; an interior locus resolves to
    the current arc containing the position (or the splice vertex at it).
    """
    if position is None:
        n2, v2, cur = lift_vertex(pu, node, cell)
        return ("vertex", cur)
    for ce, lo, hi in pu.arcs[(node, cell)]:
        if lo < position < hi:
            return ("interior", ce, position)
    raise SurgeryError(f"position {position} on ({node}, {cell}) is a cut point")


def degree_of_target(pu: PartialUnion, target) -> int:
    if target[0] == "vertex":
        return pu.graph.degree(target[1])
    return 2


def analyze_point(
    pus: Sequence[PartialUnion],
    locus: tuple,
    pair_with: Optional[tuple] = None,
) -> PointTrace:
    """Degree trace of a tracked locus across a sequence of partial unions.

    locus is (node, cell) for a vertex or (node, edge, position) for an
    interior point. With pair_with, also reports the component count of the
    complement of the two tracked points at each depth.
    """
    from .multigraph import Interior, Vertex, complement_components

    entries = []
    for pu in pus:
        tgt = resolve_locus(pu, *locus)
        entry = {"target": tgt, "degree": degree_of_target(pu, tgt)}
        if pair_with is not None:
            tgt2 = resolve_locus(pu, *pair_with)

            def as_locus(t):
                if t[0] == "vertex":
                    return Vertex(t[1])
                return Interior(t[1], t[2])

            count, _ = complement_components(pu.graph, [as_locus(tgt), as_locus(tgt2)])
            entry["pair_components"] = count
        entries.append(entry)
    return PointTrace(locus, entries)
