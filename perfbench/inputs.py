"""Seeded input generators owned by the benchmark.

Nothing here imports from the test suite, so an edit to the tests cannot
change what the benchmark feeds the program. Every generator takes an
explicit ``random.Random``; string seeds are hashed deterministically by
``random``, so a pool entry named ``"expand:theta3-d5-r1:2"`` is the same
input on every machine and every run.
"""

from __future__ import annotations

import json
import random
import string
import warnings
from fractions import Fraction

from tog.jsj_frontend import JsjInput, golden_g2, golden_racg1, synthesize
from tog.multigraph import Interior, Multigraph, blow_up, connected_sum, theta_graph
from tog.rcs import reflection_system
from tog.vsystem import ConnectingVSystem

NAME_LEN = 5
_ALPHABET = string.ascii_lowercase


# -- connecting systems and relabeling ---------------------------------------


def base_system_doc(name: str) -> dict:
    """The JSON document of one of the four base connecting systems."""
    if name.startswith("theta"):
        return reflection_system(theta_graph(int(name[5:]))).to_json_dict()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inp = golden_g2() if name == "g2" else golden_racg1()
        return synthesize(inp)[0].to_json_dict()


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct random names of one fixed length, free of id separators.

    A fixed length keeps every derived cell id (``<node>|<comp>:<cell>`` plus
    surgery suffixes) collision-free and keeps artifact sizes equal across
    relabelings of one system.
    """
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        s = "".join(rng.choice(_ALPHABET) for _ in range(NAME_LEN))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def relabel_system(doc: dict, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """Rename every component and cell of a system document at random.

    Returns the new document and the map from old to new union-coordinate
    cell ids (``comp:cell``). The renaming preserves the order of component
    names and, within a component, of cell names, so every sort the engine
    does (sites, links, the partner lists the scheduler cycles through)
    comes out the same: expansions have the same tree and counts, and only
    the ids in the artifact change.
    """
    comps = doc["components"]
    new_comps = sorted(fresh_names(rng, len(comps)))
    comp_map = dict(zip(sorted(c["name"] for c in comps), new_comps))
    cell_map = {}
    for c in comps:
        g = c["graph"]
        old = sorted(g["vertices"] + [e["id"] for e in g["edges"]])
        for x, y in zip(old, sorted(fresh_names(rng, len(old)))):
            cell_map[f"{c['name']}:{x}"] = f"{comp_map[c['name']]}:{y}"

    def local(c: str, x: str) -> str:
        return cell_map[f"{c}:{x}"].split(":", 1)[1]

    def end(p: list) -> list:
        return [cell_map[p[0]], p[1]]

    out = {
        "schema": "tog/1",
        "components": [
            {
                "name": comp_map[c["name"]],
                "graph": {
                    "schema": "tog/1",
                    "vertices": [local(c["name"], v) for v in c["graph"]["vertices"]],
                    "edges": [
                        {
                            "id": local(c["name"], e["id"]),
                            "ends": [local(c["name"], x) for x in e["ends"]],
                        }
                        for e in c["graph"]["edges"]
                    ],
                },
            }
            for c in comps
        ],
        "a": [[cell_map[v], cell_map[w]] for v, w in doc["a"]],
        "alpha": {
            cell_map[v]: [[end(p), end(q)] for p, q in entries]
            for v, entries in doc["alpha"].items()
        },
        "econnections": [[end(p), end(q)] for p, q in doc["econnections"]],
    }
    return out, cell_map


# -- theta sums ----------------------------------------------------------------


def _random_interior(rng: random.Random, g: Multigraph) -> Interior:
    return Interior(rng.choice(g.edge_ids()), Fraction(rng.randint(1, 15), 16))


def theta_sum(rng: random.Random, count: int) -> tuple[Multigraph, list[int]]:
    """An iterated connected sum of ``count`` thick theta graphs.

    Thicknesses cycle through 3..6 in a shuffled order, so every sum of one
    size has nearly the same edge count. Each new summand is glued at a point
    drawn uniformly over the whole current sum (a random edge, a random
    interior position), so the sums are tree-shaped rather than chains.
    Returns the graph and the sorted summand sizes.
    """
    ks = [3 + i % 4 for i in range(count)]
    rng.shuffle(ks)
    current = theta_graph(ks[0], "t0")
    for i, k in enumerate(ks[1:], start=1):
        nxt = theta_graph(k, f"t{i}")
        x1, x2 = _random_interior(rng, current), _random_interior(rng, nxt)
        d1 = sorted(blow_up(current, [x1]).divisors[x1])
        d2 = sorted(blow_up(nxt, [x2]).divisors[x2])
        if rng.random() < 0.5:
            d2.reverse()
        current = connected_sum(current, x1, nxt, x2, dict(zip(d1, d2))).graph
    return current, sorted(ks)


# -- small CLI documents -------------------------------------------------------


def random_two_connected(rng: random.Random) -> Multigraph:
    """A cycle with random chords and parallel edges, no loops."""
    n = rng.randint(4, 9)
    vs = fresh_names(rng, n)
    edges = {f"c{i}": (vs[i], vs[(i + 1) % n]) for i in range(n)}
    for k in range(rng.randint(1, n)):
        i, j = rng.sample(range(n), 2)
        edges[f"x{k}"] = (vs[i], vs[j])
    return Multigraph(vs, edges)


def random_vsystem(rng: random.Random) -> ConnectingVSystem:
    """A valid connecting V-system on a random connected loop-free graph.

    a pairs vertices of equal degree (some fixed points); alpha is a random
    bijection of links between paired vertices and a random involution of
    the link at a fixed vertex.
    """
    n = rng.randint(3, 7)
    vs = fresh_names(rng, n)
    edges = {f"t{i}": (vs[rng.randrange(i)], vs[i]) for i in range(1, n)}
    for k in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        edges[f"x{k}"] = (vs[i], vs[j])
    g = Multigraph(vs, edges)
    by_degree: dict[int, list[str]] = {}
    for v in g.vertex_ids():
        by_degree.setdefault(g.degree(v), []).append(v)
    a: dict[str, str] = {}
    for group in by_degree.values():
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
            dst = list(g.link(w))
            rng.shuffle(dst)
            alpha[v] = dict(zip(g.link(v), dst))
            alpha[w] = {q: p for p, q in alpha[v].items()}
    return ConnectingVSystem(g, a, alpha)


def _letter(x: int) -> str:
    c = "abc"[abs(x) - 1]
    return c if x > 0 else c.upper()


def _canonical_cyclic(w: tuple[int, ...]) -> tuple[int, ...]:
    rots = [w[i:] + w[:i] for i in range(len(w))]
    inv = tuple(-x for x in reversed(w))
    rots += [inv[i:] + inv[:i] for i in range(len(inv))]
    return min(rots)


def random_words(rng: random.Random, rank: int) -> list[str]:
    """Pairwise non-conjugate, cyclically reduced, non-periodic cyclic words
    that together use every generator of the given rank."""
    while True:
        words: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for _ in range(rng.randint(2, 3)):
            n = rng.randint(1, 4)
            w: list[int] = []
            while len(w) < n:
                x = rng.choice([i for i in range(-rank, rank + 1) if i])
                if w and x == -w[-1]:
                    continue
                if len(w) == n - 1 and len(w) >= 1 and x == -w[0]:
                    continue
                w.append(x)
            t = tuple(w)
            periodic = any(
                len(t) % p == 0 and t == t[:p] * (len(t) // p) for p in range(1, len(t))
            )
            key = _canonical_cyclic(t)
            if periodic or key in seen:
                continue
            seen.add(key)
            words.append(t)
        used = {abs(x) for w in words for x in w}
        if len(words) >= 2 and used == set(range(1, rank + 1)):
            return ["".join(_letter(x) for x in w) for w in words]


def jsj_input_doc(rng: random.Random, golden: str) -> dict:
    """A golden JSJ input with its orbit and representative ids renamed."""
    doc = (golden_g2() if golden == "g2" else golden_racg1()).to_json_dict()
    ids = [y["id"] for y in doc["flexible_orbits"]] + [r["id"] for r in doc["reps"]]
    rename = dict(zip(ids, fresh_names(rng, len(ids))))
    text = json.dumps(doc)
    for old, new in rename.items():
        text = text.replace(f'"{old}"', f'"{new}"')
    return JsjInput.from_json_dict(json.loads(text)).to_json_dict()
