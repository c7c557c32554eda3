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

import itertools
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _enc
from typing import Callable, Iterable, Optional, Sequence

from .multigraph import Interior, Multigraph, SurgeryError, Vertex, complement_components
from .multigraph import components as graph_components
from .vsystem import ConnectingVSystem, End, OrientedEdge, bar
from . import vsystem as _vsystem


class ResourceCapExceeded(RuntimeError):
    """Raised when an expansion would exceed the configured copy cap."""


class InvalidSystem(SurgeryError):
    """A connecting system that fails ``validate``; ``violations`` lists why."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid connecting system: " + "; ".join(violations))
        self.violations = violations


def _frac_str(p: Fraction) -> str:
    return "%d/%d" % p.as_integer_ratio()


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
        self._cells = {
            n: ([f"{n}:{v}" for v in g.vertex_ids()], [f"{n}:{e}" for e in g.edge_ids()])
            for n, g in zip(self.names, self.components)
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
        # derived ids are "<name>:<cell>", "<node>|<cell>", "<v>&<end>" and "<e>@<pos>"
        for n, g in named_components:
            if any(c in n for c in ":|&@"):
                raise SurgeryError(f"component name {n!r} contains one of ':|&@'")
            for cell in (*g.vertices, *g.edges):
                if any(c in cell for c in "|&@"):
                    raise SurgeryError(f"cell {cell!r} of component {n!r} contains one of '|&@'")
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
            **_vsystem.encode_gluing(self.vsys),
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
        a, alpha = _vsystem.decode_gluing(data)
        A = frozenset(
            (_vsystem.decode_end(e1), _vsystem.decode_end(e2)) for e1, e2 in data["econnections"]
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

    # transitivity: components must be linked by a-links or A-links; a link
    # naming an unknown component is left to the V-system check
    names = set(rcs.names)
    links = [*rcs.vsys.a.items(), *((e1[0], e2[0]) for e1, e2 in A)]
    ends = [(rcs.component_of(p), rcs.component_of(q)) for p, q in links]
    linked = Multigraph(names, {k: cs for k, cs in enumerate(ends) if names.issuperset(cs)})
    if names and len(graph_components(linked)) != 1:
        out.append("TransitivityFailure: components not linked by a-links or A-links")
    return out


def reflection_system(g: Multigraph, name: str = "c0") -> GraphicalConnectingSystem:
    """The reflection connecting system: a = id, alpha = id, A = diagonal."""
    pg = g.relabel(name + ":")
    a = {v: v for v in pg.vertices}
    alpha = {v: {end: end for end in pg.link(v)} for v in pg.vertices}
    A = {((e, o), (e, o)) for e in pg.edge_ids() for o in (0, 1)}
    return GraphicalConnectingSystem.build([(name, g)], a, alpha, A)


@dataclass(frozen=True, slots=True)
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


def _arc_at(chain: list[tuple[str, int, int]], pos) -> Optional[int]:
    """Index of the arc of chain whose open interval holds pos (over D), or None."""
    for i, (_, lo, hi) in enumerate(chain):
        if lo < pos < hi:
            return i
    return None


def _seams(rcs: GraphicalConnectingSystem, s: Site) -> list[str]:
    """The seam vertices that expanding s creates: one per end in the link of
    a V-site's vertex, in link order; (tail side, head side) of an E-site."""
    if s.kind == "V":
        return [f"{s.node}|{s.vertex}&{e}.{i}" for e, i in rcs.union.link(s.vertex)]
    at = f"{s.node}|{s.edge}@{_frac_str(s.position)}"
    return [f"{at}t", f"{at}h"]


@dataclass(slots=True)
class NodeInfo:
    parent: Optional[str]
    depth: int
    component: str  # component name
    via: Optional[Site]  # the parent-side site whose expansion created this node


# -- canonical text: the layout of json.dumps(sort_keys=True, indent=2) -------
# nl is the newline and indent of a value's own brackets.

_BATCH = 1024  # the most items _write_block joins into one write


def _write_block(write: Callable[[str], object], brackets: str, items: Iterable[str], nl: str) -> None:
    """Write a JSON array ("[]") or object ("{}") of already-encoded items or
    members, _BATCH of them per write, so that no block is kept in memory whole."""
    items, sep = iter(items), "," + nl + "  "
    lead, batch = brackets[0] + nl + "  ", list(itertools.islice(items, _BATCH))
    while batch:
        write(lead + sep.join(batch))
        lead, batch = sep, list(itertools.islice(items, _BATCH))
    write(nl + brackets[1] if lead == sep else brackets)


def _site_pieces(site: Site, nl: str) -> tuple[str, str, str]:
    """(pre, mid, post): the text of site.to_json() at indent nl, with any
    depth and node in place of site's, is pre + depth + mid + node + post."""
    text = json.dumps(dict(site.to_json(), depth=0, node=""), sort_keys=True, indent=2)
    pre, rest = text.replace("\n", nl).split('"depth": 0', 1)  # the first key
    mid, post = rest.split('"node": ""', 1)  # inside a string, a quote is escaped
    return pre + '"depth": ', mid + '"node": ', post


class _Template:
    """What every copy of a component shares, built on first use once per
    init and shared by every union expanded from that init's union: the id
    suffixes that _add_copy stamps onto a node id (each edge with the indices
    of its ends in vertices), and the sites in frontier order, keyed by
    vertex or by (edge, schedule index), each as (site with no node, its
    _site_pieces as a frontier entry, and as a tree via)."""

    def __init__(self, rcs: GraphicalConnectingSystem, comp: str, r: int):
        vs, es = rcs.component_cells(comp)
        at = {v: i for i, v in enumerate(vs)}
        self.vertices = ["|" + v for v in vs]
        self.edges = [(e, "|" + e, *(at[x] for x in rcs.union.ends(e))) for e in es]
        sites = {v: Site("V", "", 0, vertex=v) for v in vs}
        for e in es:
            for i, (pos, partner) in enumerate(schedule_sites(rcs, e, r)):
                sites[(e, i)] = Site("E", "", 0, edge=e, position=pos, partner=partner)
        self.sites = {key: (s, _site_pieces(s, "\n    "), _site_pieces(s, "\n      "))
                      for key, s in sites.items()}


class PartialUnion:
    """A finite reduced partial union with provenance and a site frontier.

    The graph is built by iterated connected sums: one copy of a component
    per tree node, glued at expanded sites. A copy's cells "<node>|<cell>" are
    stamped from its component's _Template; _seams names the seam vertices of
    a gluing. The k-th child of a node is "<node>.<k>", k < child_count[node];
    a site is expanded iff it is a child's via, and sites() reads the frontier
    from the tree. Copy vertex (node, v) is alive while "<node>|<v>" is a
    vertex. arcs holds, per (node, original edge), the current arcs covering
    its (0,1), which are exactly the current edges, each once. Arc ends are
    integers over D = 2(r+1): a site sits at 2k, a partner splits at 1 or
    D - 1; provenance() spells them "p/q" from a table. write_canonical renders
    sites from the templates, with no Site or Fraction, a bounded batch per write.
    """

    def __init__(self, rcs: GraphicalConnectingSystem, resolution: int, cap: int = 10000):
        self.rcs = rcs
        self.resolution = resolution
        self.cap = cap
        self.vertices: set[str] = set()
        self.edges: dict[str, tuple[str, str]] = {}
        self.nodes: dict[str, NodeInfo] = {}
        self.arcs: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
        self.child_count: dict[str, int] = {}
        self._denominator = 2 * (resolution + 1)
        self._pq = [_frac_str(Fraction(i, self._denominator)) for i in range(self._denominator + 1)]
        # static per (system, resolution), so shared by every copy
        self._templates: dict[str, _Template] = {}
        self._graph_cache: Optional[Multigraph] = None

    # -- construction ------------------------------------------------------

    def copy(self) -> "PartialUnion":
        pu = PartialUnion(self.rcs, self.resolution, self.cap)
        pu.vertices = set(self.vertices)
        pu.edges = dict(self.edges)
        pu.nodes = dict(self.nodes)
        pu.arcs = {k: list(v) for k, v in self.arcs.items()}
        pu.child_count = dict(self.child_count)
        pu._templates = self._templates
        return pu

    @property
    def graph(self) -> Multigraph:
        if self._graph_cache is None:
            self._graph_cache = Multigraph(self.vertices, self.edges)
        return self._graph_cache

    def _template(self, comp_name: str) -> _Template:
        t = self._templates.get(comp_name)
        if t is None:
            t = self._templates[comp_name] = _Template(self.rcs, comp_name, self.resolution)
        return t

    def _add_copy(self, node: str, comp_name: str, via: Optional[Site]):
        """Add a copy of a component as a tree node; via is the parent-side
        site whose expansion creates it (None for the root)."""
        depth = 0 if via is None else via.depth + 1
        if len(self.nodes) >= self.cap:
            raise ResourceCapExceeded(
                f"copy cap of {self.cap} component copies exceeded"
            )
        t = self._template(comp_name)
        vs = [node + v for v in t.vertices]
        self.vertices.update(vs)
        for e, ce, ti, hi in t.edges:
            ce = node + ce
            self.edges[ce] = (vs[ti], vs[hi])
            self.arcs[(node, e)] = [(ce, 0, self._denominator)]
        self.nodes[node] = NodeInfo(None if via is None else via.node, depth, comp_name, via)
        self.child_count[node] = 0

    def _key(self, s: Site):
        """The template key of a site: its vertex, or (edge, schedule index)."""
        if s.kind == "V":
            return s.vertex
        p = s.position
        return (s.edge, p.numerator * (self.resolution + 1) // p.denominator - 1)

    def _unexpanded(self, node: str) -> list[tuple]:
        """The template entries of a copy's unexpanded sites, in frontier order:
        the V-sites of its component's vertices but the one it was glued at,
        then each edge's scheduled E-sites, less the vias of its children."""
        info = self.nodes[node]
        sites = self._template(info.component).sites
        via = info.via
        skip = {self.rcs.vsys.a[via.vertex]} if via is not None and via.kind == "V" else set()
        n_children = self.child_count[node]
        if n_children + len(skip) == len(sites):
            return []  # all expanded
        skip.update(self._key(self.nodes[f"{node}.{k}"].via) for k in range(n_children))
        return [site for key, site in sites.items() if key not in skip]

    def sites(self, node: str) -> list[Site]:
        """The unexpanded sites of a copy, in frontier order."""
        d = self.nodes[node].depth
        return [Site(s.kind, node, d, s.vertex, s.edge, s.position, s.partner)
                for s, _, _ in self._unexpanded(node)]

    @property
    def frontier(self) -> list[Site]:
        """Every unexpanded site, by node in sorted order."""
        return [s for node in sorted(self.nodes) for s in self.sites(node)]

    def _current_end(self, node: str, end: End) -> tuple[str, int]:
        """The current (edge, end index) realizing an original edge-end."""
        e0, i = end
        chain = self.arcs[(node, e0)]
        ce, lo, hi = chain[0] if i == 0 else chain[-1]
        if (lo, hi)[i] != i * self._denominator:  # the end arc must still reach position i
            raise SurgeryError(f"end {end} of node {node} no longer exists")
        return (ce, i)

    def _new_child(self, node: str) -> str:
        k = self.child_count[node]
        self.child_count[node] = k + 1
        return f"{node}.{k}"

    # -- expansion ---------------------------------------------------------

    def _expand(self, s: Site) -> str:
        """Glue a fresh partner copy at s; returns the new node."""
        self._graph_cache = None
        return self._expand_v(s) if s.kind == "V" else self._expand_e(s)

    def _expand_v(self, s: Site) -> str:
        rcs = self.rcs
        v = s.vertex
        w = rcs.vsys.a[v]
        m = self._new_child(s.node)
        self._add_copy(m, rcs.component_of(w), s)

        for p, merged in zip(rcs.union.link(v), _seams(rcs, s)):
            q = rcs.vsys.alpha[v][p]
            ce, ci = self._current_end(s.node, p)
            fe, fi = self._current_end(m, q)
            self.vertices.add(merged)
            for e, i in ((ce, ci), (fe, fi)):
                t, h = self.edges[e]
                self.edges[e] = (merged, h) if i == 0 else (t, merged)
        self.vertices.discard(f"{s.node}|{v}")
        self.vertices.discard(f"{m}|{w}")
        return m

    def _expand_e(self, s: Site) -> str:
        rcs = self.rcs
        f0, o = s.partner
        m = self._new_child(s.node)
        self._add_copy(m, rcs.component_of(f0), s)

        chain = self.arcs[(s.node, s.edge)]
        D = self._denominator
        pos = s.position.numerator * D // s.position.denominator  # a site sits at 2k
        hit = _arc_at(chain, pos)
        if hit is None:
            raise SurgeryError(f"site position {s.position} on {s.edge} already consumed")
        ce, lo, hi = chain[hit]
        pf = f"{m}|{f0}"
        cel, cer, pfl, pfr = f"{ce}l", f"{ce}r", f"{pf}l", f"{pf}r"
        if not self.edges.keys().isdisjoint((cel, cer, pfl, pfr)):
            raise SurgeryError(f"split arcs of {ce!r} or {pf!r} would reuse an edge id")
        u0, u1 = self.edges.pop(ce)
        st, sh = _seams(rcs, s)
        self.vertices.update((st, sh))
        self.edges[cel] = (u0, st)
        self.edges[cer] = (sh, u1)
        chain[hit : hit + 1] = [(cel, lo, pos), (cer, pos, hi)]

        # the partner's near-tail side is its reference-tail side iff o == 0
        p0, p1 = self.edges.pop(pf)
        near, far = (st, sh) if o == 0 else (sh, st)
        self.edges[pfl] = (p0, near)
        self.edges[pfr] = (far, p1)
        qpos = 1 if o == 0 else D - 1
        self.arcs[(m, f0)] = [(pfl, 0, qpos), (pfr, qpos, D)]
        return m

    def provenance(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """(vertices, edges): the (node, component cell) of each surviving copy
        vertex (seam vertices have none), and the (node, cell, interval start,
        interval end) of each edge, the interval ends as "p/q" strings."""
        prov_v = {}
        for node, info in self.nodes.items():
            for v in self.rcs.component_cells(info.component)[0]:
                cur = f"{node}|{v}"
                if cur in self.vertices:
                    prov_v[cur] = (node, v)
        pq = self._pq
        prov_e = {ce: (node, e0, pq[lo], pq[hi])
                  for (node, e0), chain in self.arcs.items() for ce, lo, hi in chain}
        return prov_v, prov_e

    def to_json_dict(self) -> dict:
        """The artifact that write_canonical writes, as JSON values."""
        parts: list[str] = []
        self.write_canonical(parts.append)
        return json.loads("".join(parts))

    def _frontier_text(self, nodes: list[str]) -> Iterable[str]:
        """The frontier entries of the artifact, as text."""
        for node in nodes:
            d, n = self.nodes[node].depth, _enc(node)
            for _, (pre, mid, post), _ in self._unexpanded(node):
                yield f"{pre}{d}{mid}{n}{post}"

    def _tree_text(self, nodes: list[str]) -> Iterable[str]:
        """The tree members of the artifact, as text."""
        k = "\n      "
        for node in nodes:
            info = self.nodes[node]
            parent = via = "null"
            if info.via is not None:
                parent = _enc(info.parent)
                sites = self._template(self.nodes[info.parent].component).sites
                pre, mid, post = sites[self._key(info.via)][2]
                via = f"{pre}{info.via.depth}{mid}{parent}{post}"
            yield (f'{_enc(node)}: {{{k}"component": {_enc(info.component)},{k}"depth": {info.depth},'
                   f'{k}"parent": {parent},{k}"via": {via}\n    }}')

    def write_canonical(self, write: Callable[[str], object]) -> None:
        """Write the expansion artifact as JSON text with sorted keys and
        two-space indent, without a trailing newline: the bytes of
        ``json.dumps(expansion_dict(self), sort_keys=True, indent=2)`` for the
        definitional ``expansion_dict`` of the tests. One sorted walk writes
        each section in key order through _write_block."""
        vertices, edges = self.vertices, self.edges
        if not vertices.issuperset(itertools.chain.from_iterable(edges.values())):
            bad = next(e for e, ends in edges.items() if not vertices.issuperset(ends))
            raise SurgeryError(f"edge {bad!r} references missing vertex")
        nodes, eids = sorted(self.nodes), sorted(edges)
        write('{\n  "frontier": ')
        _write_block(write, "[]", self._frontier_text(nodes), "\n  ")
        write(',\n  "graph": {\n    "edges": ')
        _write_block(write, "[]", (
            f'{{\n        "ends": [\n          {_enc(t)},\n          {_enc(h)}\n        ],'
            f'\n        "id": {_enc(e)}\n      }}'
            for e in eids for t, h in (edges[e],)
        ), "\n    ")
        write(',\n    "schema": "tog/1",\n    "vertices": ')
        _write_block(write, "[]", map(_enc, sorted(vertices)), "\n    ")
        prov_v, prov_e = self.provenance()
        write('\n  },\n  "provenance": {\n    "edges": ')
        _write_block(write, "{}", (
            f'{_enc(e)}: {{\n        "cell": {_enc(c)},'
            f'\n        "interval": [\n          "{lo}",\n          "{hi}"\n        ],'
            f'\n        "node": {_enc(n)}\n      }}'
            for e in eids for n, c, lo, hi in (prov_e[e],)
        ), "\n    ")
        write(',\n    "vertices": ')
        _write_block(write, "{}", (
            f'{_enc(v)}: {{\n        "cell": {_enc(c)},\n        "node": {_enc(n)}\n      }}'
            for v, (n, c) in sorted(prov_v.items())
        ), "\n    ")
        write('\n  },\n  "schema": "tog/1",\n  "tree": ')
        _write_block(write, "{}", self._tree_text(nodes), "\n  ")
        write("\n}")


def init(rcs: GraphicalConnectingSystem, root: int, resolution: int, cap: int = 10000) -> PartialUnion:
    """One copy of the root component with its full site frontier."""
    violations = validate(rcs)
    if violations:
        raise InvalidSystem(violations)
    if not (0 <= root < len(rcs.names)):
        raise SurgeryError(f"invalid root component index {root}")
    pu = PartialUnion(rcs, resolution, cap)
    pu._add_copy("n", rcs.names[root], None)
    return pu


def expand_site(pu: PartialUnion, s: Site) -> PartialUnion:
    """Adjoin a fresh partner copy at the site by connected sum."""
    if s.node not in pu.nodes or s not in pu.sites(s.node):
        raise SurgeryError("site stale: not in the current frontier")
    out = pu.copy()
    out._expand(s)
    return out


def expand_to_depth(pu: PartialUnion, d: int) -> PartialUnion:
    """Breadth-first expansion of every site at tree depth < d."""
    out = pu.copy()
    for level in range(d):
        nodes = sorted(n for n, info in out.nodes.items() if info.depth == level)
        todo = [s for n in nodes for s in out.sites(n)]
        for s in todo:
            out._expand(s)
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


def _resolve_site_locus(shallow: PartialUnion, s: Site) -> CellTarget:
    if s.kind == "V":
        cur = f"{s.node}|{s.vertex}"
        if cur not in shallow.vertices:
            raise SurgeryError("attachment vertex consumed in the shallow union")
        return ("vertex", cur)
    return resolve_locus(shallow, s.node, s.edge, s.position)


def project(deep: PartialUnion, shallow: PartialUnion) -> dict[tuple, CellTarget]:
    """The blow-down cell map from a deeper partial union to a shallower one.

    Cells surviving in the shallow union map to themselves (possibly to the
    coarser arc containing them); cells of collapsed branches map to the
    attachment locus of their branch. Interior positions are reported in
    original-edge coordinates, which makes these maps compose strictly.
    """
    if deep.resolution != shallow.resolution:  # arc ends are over one denominator
        raise SurgeryError("the two unions have different resolutions")
    for node, info in shallow.nodes.items():
        dinfo = deep.nodes.get(node)
        if dinfo is None or dinfo.parent != info.parent:
            raise SurgeryError("shallow tree is not a prefix of the deep tree")

    def containing_arc(node: str, e0: str, lo: int, hi: int) -> str:
        for ce, a, b in shallow.arcs[(node, e0)]:
            if a <= lo and hi <= b:
                return ce
        raise SurgeryError("deep arc not contained in any shallow arc")

    cell_map: dict[tuple, CellTarget] = {}
    locus_cache: dict[str, CellTarget] = {}

    def branch_locus(node: str) -> CellTarget:
        """The shallow locus where the collapsed branch through node attaches,
        found by walking up, not by recursion: a closure that calls itself
        holds itself, and with it both unions, in a reference cycle."""
        path = []
        while node not in locus_cache:
            info = deep.nodes[node]
            if info.parent is None:
                raise SurgeryError(f"node {node} is not below the shallow tree")
            if info.parent in shallow.nodes:
                locus_cache[node] = _resolve_site_locus(shallow, info.via)
            else:
                path.append(node)
                node = info.parent
        for n in path:
            locus_cache[n] = locus_cache[node]
        return locus_cache[node]

    # every deep edge is one arc of its node's chain (the PartialUnion invariant)
    for (node, e0), chain in deep.arcs.items():
        if node in shallow.nodes:
            for ce, lo, hi in chain:
                cell_map[("edge", ce)] = ("edge", containing_arc(node, e0, lo, hi))
        else:
            locus = branch_locus(node)
            for ce, _, _ in chain:
                cell_map[("edge", ce)] = locus
    # a vertex the shallow union lacks is a copy vertex of a collapsed node,
    # which names its node, or a seam of the gluing that created one
    seam_node = {
        seam: node
        for node, info in deep.nodes.items()
        if node not in shallow.nodes
        for seam in _seams(deep.rcs, info.via)
    }
    for v in deep.vertices:  # keys reuse deep's id strings
        if v in shallow.vertices:
            cell_map[("vertex", v)] = ("vertex", v)
        else:
            cell_map[("vertex", v)] = branch_locus(seam_node.get(v) or v.split("|", 1)[0])
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
    while f"{node}|{v}" not in pu.vertices:
        # the child glued at the V-site (node, v); an E-site's vertex is None
        children = (f"{node}.{k}" for k in range(pu.child_count.get(node, 0)))
        child = next((c for c in children if pu.nodes[c].via.vertex == v), None)
        if child is None:
            raise SurgeryError(f"vertex ({node}, {v}) unknown or untracked")
        glued = rcs.vsys.a[v]
        deg = rcs.union.degree(v)
        comp = pu.nodes[child].component
        vs, _ = rcs.component_cells(comp)
        candidates = [u for u in vs if u != glued and rcs.union.degree(u) == deg]
        if len(candidates) != 1:
            raise SurgeryError(
                f"ambiguous lift: {len(candidates)} degree-{deg} candidates in {comp}"
            )
        node, v = child, candidates[0]
    return node, v, f"{node}|{v}"


def resolve_locus(pu: PartialUnion, node: str, cell: str, position: Optional[Fraction] = None):
    """Resolve a tracked locus to a current graph cell.

    A vertex locus follows its essential lift; an interior locus resolves to
    the current arc containing the position (or the splice vertex at it).
    """
    if position is None:
        return ("vertex", lift_vertex(pu, node, cell)[2])
    chain = pu.arcs.get((node, cell))
    if chain is None:
        raise SurgeryError(f"({node}, {cell}) is not an edge of the partial union")
    hit = _arc_at(chain, position * pu._denominator)
    if hit is None:
        raise SurgeryError(f"position {position} on ({node}, {cell}) is a cut point")
    return ("interior", chain[hit][0], position)


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
    entries = []
    for pu in pus:
        tgt = resolve_locus(pu, *locus)
        entry = {"target": tgt, "degree": pu.graph.degree(tgt[1]) if tgt[0] == "vertex" else 2}
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
