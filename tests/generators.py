"""Randomized fixture generators shared by the property and acceptance tests.

All generators take an explicit random.Random so that counted suites are
reproducible with fixed seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from tog.jsj_frontend import FlexibleOrbit, JsjInput, V2Rep
from tog.multigraph import (
    Interior,
    Multigraph,
    Vertex,
    blow_up,
    connected_sum,
    theta_graph,
)
from tog.vsystem import ConnectingVSystem


def random_two_connected(rng: random.Random, max_vertices: int = 12) -> Multigraph:
    """A random 2-connected multigraph: a cycle plus random chords and
    parallel edges (no loops)."""
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        edges[f"c{i}"] = (vertices[i], vertices[(i + 1) % n])
    extra = rng.randint(0, max(2, n))
    for k in range(extra):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue  # no loops
        edges[f"x{k}"] = (vertices[i], vertices[j])
    return Multigraph(vertices, edges)


def random_interior(rng: random.Random, g: Multigraph) -> Interior:
    e = rng.choice(g.edge_ids())
    pos = Fraction(rng.randint(1, 15), 16)
    return Interior(e, pos)


def random_sum_pair(rng: random.Random, g1: Multigraph, g2: Multigraph):
    """A connected sum of two 2-connected graphs at degree-matched loci."""
    # prefer an equal-degree vertex pair occasionally; default to interiors
    if rng.random() < 0.3:
        by_deg = {}
        for v in g2.vertex_ids():
            by_deg.setdefault(g2.degree(v), []).append(v)
        candidates = [
            (v, w)
            for v in g1.vertex_ids()
            for w in by_deg.get(g1.degree(v), [])
        ]
        if candidates:
            v, w = rng.choice(candidates)
            x1, x2 = Vertex(v), Vertex(w)
            r1, r2 = blow_up(g1, [x1]), blow_up(g2, [x2])
            d1 = sorted(r1.divisors[x1])
            d2 = sorted(r2.divisors[x2])
            rng.shuffle(d2)
            return connected_sum(g1, x1, g2, x2, dict(zip(d1, d2)))
    x1, x2 = random_interior(rng, g1), random_interior(rng, g2)
    r1, r2 = blow_up(g1, [x1]), blow_up(g2, [x2])
    d1 = sorted(r1.divisors[x1])
    d2 = sorted(r2.divisors[x2])
    if rng.random() < 0.5:
        d2 = list(reversed(d2))
    return connected_sum(g1, x1, g2, x2, dict(zip(d1, d2)))


def random_theta_sum(
    rng: random.Random, count: Optional[int] = None
) -> tuple[Multigraph, list[int]]:
    """A random iterated connected sum of thick theta graphs at degree-2
    interior points; returns the graph and the summand size multiset.

    count is the number of summands, drawn from 2..5 when not given.
    """
    if count is None:
        count = rng.randint(2, 5)
    sizes = [rng.randint(3, 6) for _ in range(count)]
    current = theta_graph(sizes[0], "t0")
    for i, k in enumerate(sizes[1:], start=1):
        nxt = theta_graph(k, f"t{i}")
        x1 = random_interior(rng, current)
        x2 = random_interior(rng, nxt)
        r1, r2 = blow_up(current, [x1]), blow_up(nxt, [x2])
        d1 = sorted(r1.divisors[x1])
        d2 = sorted(r2.divisors[x2])
        if rng.random() < 0.5:
            d2 = list(reversed(d2))
        current = connected_sum(current, x1, nxt, x2, dict(zip(d1, d2))).graph
    return current, sorted(sizes)


def random_valence_input(rng: random.Random) -> JsjInput:
    """A random valence-only JSJ input: 1-4 flexible orbits, each orientable
    at random, and 1-3 valence reps of valence 3-5. Every rep has one edge in
    orbit y0, so the components are linked; orbits that no rep uses are
    dropped. A sharp orientation is 0 or 1 on an orientable orbit and None
    on the others."""
    orbits = [FlexibleOrbit(f"y{i}", rng.random() < 0.5) for i in range(rng.randint(1, 4))]
    reps = []
    for r in range(rng.randint(1, 3)):
        k = rng.randint(3, 5)
        ys = [orbits[0]] + [rng.choice(orbits) for _ in range(k - 1)]
        rng.shuffle(ys)
        sharps = [(y.id, rng.randint(0, 1) if y.orientable else None) for y in ys]
        reps.append(V2Rep(f"z{r}", k, sharps))
    used = {y for rep in reps for y, _ in rep.edge_assignments}
    return JsjInput([y for y in orbits if y.id in used], reps)


def random_loopfree_graph(rng: random.Random, max_vertices: int = 8) -> Multigraph:
    """A random connected loop-free multigraph without isolated vertices."""
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    # random spanning tree keeps everything connected and non-isolated
    for i in range(1, n):
        edges[f"t{i}"] = (vertices[rng.randrange(i)], vertices[i])
    extra = rng.randint(0, n)
    for k in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        edges[f"x{k}"] = (vertices[i], vertices[j])
    return Multigraph(vertices, edges)


def random_vsystem(rng: random.Random, max_vertices: int = 8) -> ConnectingVSystem:
    """A random valid connecting V-system on a random loop-free graph.

    The involution a pairs vertices of equal degree (fixed points allowed);
    alpha_v is a random bijection of links, inverse-compatible by
    construction, and a random involution of the link at fixed vertices.
    """
    g = random_loopfree_graph(rng, max_vertices)
    by_deg: dict[int, list[str]] = {}
    for v in g.vertex_ids():
        by_deg.setdefault(g.degree(v), []).append(v)
    a: dict[str, str] = {}
    for deg, group in by_deg.items():
        group = list(group)
        rng.shuffle(group)
        while group:
            v = group.pop()
            if group and rng.random() < 0.7:
                w = group.pop()
                a[v], a[w] = w, v
            else:
                a[v] = v
    alpha: dict[str, dict] = {}
    for v in g.vertex_ids():
        if v in alpha:
            continue
        w = a[v]
        if w == v:
            ends = list(g.link(v))
            rng.shuffle(ends)
            m = {}
            while ends:
                p = ends.pop()
                if ends and rng.random() < 0.7:
                    q = ends.pop()
                    m[p], m[q] = q, p
                else:
                    m[p] = p
            alpha[v] = m
        else:
            src = list(g.link(v))
            dst = list(g.link(w))
            rng.shuffle(dst)
            m = dict(zip(src, dst))
            alpha[v] = m
            alpha[w] = {q: p for p, q in m.items()}
    return ConnectingVSystem(g, a, alpha)
