"""Synthesis of a graphical connecting system from reduced JSJ data.

The input is purely combinatorial: the set of flexible orbits (with
orientability flags), and one representative entry per orbit of non-flexible
vertices — either a valence datum k >= 3 (contributing a theta graph with its
standard tautological V-system) or a rigid cluster given by a free basis rank
and peripheral words with multiplicities (contributing an extended Whitehead
graph with its canonical V-involution). Each edge of the disjoint union is
assigned to a flexible orbit; the blocks E_y of this assignment determine the
E-connections: the full square of oriented edges for a non-orientable orbit,
and the same-orientation closure of the chosen sharp orientations for an
orientable one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

from .multigraph import Multigraph, SurgeryError, theta_graph
from .rcs import GraphicalConnectingSystem
from . import rcs as _rcs
from .vsystem import OrientedEdge, bar, theta_standard_system
from .words_whitehead import (
    PeripheralSpec,
    check_rigidity_proxy,
    cyclically_reduce,
    extended_whitehead_graph,
    word_str,
)


class WhiteheadNotTwoConnected(SurgeryError):
    pass


class OrbitUnreferenced(SurgeryError):
    pass


class TransitivityFailure(SurgeryError):
    pass


class InvalidJsjInput(SurgeryError):
    pass


class OddPacketInMixedOrientationCase(SurgeryError):
    pass


@dataclass(frozen=True)
class FlexibleOrbit:
    id: str
    orientable: bool


@dataclass
class V2Rep:
    """A valence-k vertex representative: contributes a theta graph with k
    edges and the standard system. edge_assignments pairs the edges e1..ek in
    order with (orbit id, sharp orientation or None)."""

    id: str
    k: int
    edge_assignments: list[tuple[str, Optional[int]]]


@dataclass
class RigidClusterRep:
    """A rigid cluster representative: a free factor of the given rank with
    peripheral words, contributing the extended Whitehead graph. slots maps
    each refined label (xi, j), j = 1..n_xi - 1, to (orbit id, sharp)."""

    id: str
    rank: int
    peripherals: list[PeripheralSpec]
    slots: dict[tuple[str, int], tuple[str, Optional[int]]]


Rep = Union[V2Rep, RigidClusterRep]


def _typed(value, kind: type, what: str):
    """value, which must be exactly of type kind (so a bool is not an int)."""
    if type(value) is not kind:
        raise InvalidJsjInput(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _sharp(value) -> Optional[int]:
    """A sharp orientation: null, or exactly an int."""
    return None if value is None else _typed(value, int, "sharp orientation")


def _slot_label(value) -> tuple[str, int]:
    """A refined label [xi, j]: a list of a string and exactly an int."""
    if type(value) is not list or len(value) != 2:
        raise InvalidJsjInput(f"slot label must be a list [xi, j], got {value!r}")
    return _typed(value[0], str, "slot label xi"), _typed(value[1], int, "slot index j")


@dataclass
class JsjInput:
    flexible_orbits: list[FlexibleOrbit]
    reps: list[Rep]

    def to_json_dict(self) -> dict:
        reps = []
        for r in self.reps:
            if isinstance(r, V2Rep):
                reps.append(
                    {
                        "kind": "v2",
                        "id": r.id,
                        "k": r.k,
                        "edge_assignments": [[y, s] for y, s in r.edge_assignments],
                    }
                )
            else:
                reps.append(
                    {
                        "kind": "rigid",
                        "id": r.id,
                        "rank": r.rank,
                        "peripherals": [
                            {
                                "word": word_str(p.word.letters),
                                "label": p.word.label,
                                "multiplicity": p.multiplicity,
                            }
                            for p in r.peripherals
                        ],
                        "slots": [
                            [[xi, j], [y, s]]
                            for (xi, j), (y, s) in sorted(r.slots.items())
                        ],
                    }
                )
        return {
            "schema": "tog/1",
            "flexible_orbits": [
                {"id": y.id, "orientable": y.orientable} for y in self.flexible_orbits
            ],
            "reps": reps,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JsjInput":
        if data.get("schema") != "tog/1":
            raise SurgeryError("missing or unsupported schema tag (expected 'tog/1')")
        orbits = [
            FlexibleOrbit(
                _typed(rec["id"], str, "orbit id"), _typed(rec["orientable"], bool, "orientable")
            )
            for rec in data["flexible_orbits"]
        ]
        reps: list[Rep] = []
        for rec in data["reps"]:
            rid = _typed(rec["id"], str, "rep id")
            if rec["kind"] == "v2":
                reps.append(
                    V2Rep(
                        rid,
                        _typed(rec["k"], int, f"rep {rid} k"),
                        [
                            (_typed(y, str, "orbit id"), _sharp(s))
                            for y, s in rec["edge_assignments"]
                        ],
                    )
                )
            elif rec["kind"] == "rigid":
                periph = [
                    PeripheralSpec(
                        cyclically_reduce(
                            _typed(p["word"], str, "peripheral word"),
                            _typed(p["label"], str, "peripheral label"),
                        ),
                        _typed(p["multiplicity"], int, f"rep {rid} multiplicity"),
                    )
                    for p in rec["peripherals"]
                ]
                slots = {
                    _slot_label(label): (_typed(y, str, "orbit id"), _sharp(s))
                    for label, (y, s) in rec["slots"]
                }
                rank = _typed(rec["rank"], int, f"rep {rid} rank")
                reps.append(RigidClusterRep(rid, rank, periph, slots))
            else:
                raise InvalidJsjInput(f"unknown rep kind {rec['kind']!r}")
        return cls(orbits, reps)


@dataclass
class BlockLedger:
    """Per flexible orbit: the block E_y and, when orientable, E_y^#.

    rep_slots keeps, per rigid cluster and peripheral label, the list of
    (copy index, orbit id, sharp) triples, the data that packets() partitions.
    """

    blocks: dict[str, dict]
    rep_slots: dict[str, dict[str, list[tuple[int, str, Optional[int]]]]]

    def to_json_dict(self) -> dict:
        return {
            "schema": "tog/1",
            "blocks": {
                y: {
                    "orientable": b["orientable"],
                    "edges": sorted(b["edges"]),
                    "sharp": sorted([list(o) for o in b["sharp"]])
                    if b["orientable"]
                    else None,
                }
                for y, b in sorted(self.blocks.items())
            },
        }


def _assign(
    orbit_index: dict[str, FlexibleOrbit],
    orbit_id: str,
    sharp: Optional[int],
    context: str,
) -> int:
    if orbit_id not in orbit_index:
        raise InvalidJsjInput(f"{context}: unknown flexible orbit {orbit_id!r}")
    orientable = orbit_index[orbit_id].orientable
    if not orientable:
        if sharp is not None:
            raise InvalidJsjInput(
                f"{context}: orientation data supplied for non-orientable orbit {orbit_id!r}"
            )
        return 0
    if sharp is None:
        warnings.warn(
            f"{context}: sharp orientation omitted for orientable orbit "
            f"{orbit_id!r}; defaulting to the reference orientation (alternate "
            "choices yield isomorphic systems)"
        )
        return 0
    if sharp not in (0, 1):
        raise InvalidJsjInput(f"{context}: sharp orientation must be 0 or 1")
    return sharp


def synthesize(inp: JsjInput) -> tuple[GraphicalConnectingSystem, BlockLedger]:
    """Build the graphical connecting system determined by reduced JSJ data."""
    if len({y.id for y in inp.flexible_orbits}) != len(inp.flexible_orbits):
        raise InvalidJsjInput("duplicate flexible orbit ids")
    if len({r.id for r in inp.reps}) != len(inp.reps):
        raise InvalidJsjInput("duplicate rep ids")
    orbit_index = {y.id: y for y in inp.flexible_orbits}

    named_components: list[tuple[str, Multigraph]] = []
    a: dict[str, str] = {}
    alpha: dict[str, dict] = {}
    # per orbit: list of sharp-oriented edges in union coordinates
    sharp_sets: dict[str, list[OrientedEdge]] = {y.id: [] for y in inp.flexible_orbits}
    rep_slots: dict[str, dict[str, list[tuple[int, str, Optional[int]]]]] = {}

    for rep in inp.reps:
        pref = rep.id + ":"
        if isinstance(rep, V2Rep):
            if rep.k < 3:
                raise InvalidJsjInput(f"rep {rep.id}: valence must be at least 3")
            if len(rep.edge_assignments) != rep.k:
                raise InvalidJsjInput(
                    f"rep {rep.id}: need exactly {rep.k} edge assignments"
                )
            g = theta_graph(rep.k)
            vsys = theta_standard_system(rep.k)
            named_components.append((rep.id, g))
            edge_order = g.edge_ids()
            for e, (y, s) in zip(edge_order, rep.edge_assignments):
                o = _assign(orbit_index, y, s, f"rep {rep.id} edge {e}")
                sharp_sets[y].append((pref + e, o))
        else:
            if rep.rank < 2:
                raise InvalidJsjInput(f"rep {rep.id}: rank must be at least 2")
            W, vsys = extended_whitehead_graph(rep.rank, rep.peripherals)
            if not check_rigidity_proxy(W):
                raise WhiteheadNotTwoConnected(
                    f"rep {rep.id}: extended Whitehead graph is not 2-connected"
                )
            named_components.append((rep.id, W.graph))
            labels_present = {W.edge_labels[e] for e in W.graph.edge_ids()}
            if set(rep.slots) != labels_present:
                raise InvalidJsjInput(
                    f"rep {rep.id}: slots must cover exactly the refined labels "
                    f"{sorted(labels_present)}"
                )
            slot_record: dict[str, list[tuple[int, str, Optional[int]]]] = {}
            for e in W.graph.edge_ids():
                xi, j = W.edge_labels[e]
                y, s = rep.slots[(xi, j)]
                o = _assign(orbit_index, y, s, f"rep {rep.id} slot ({xi},{j})")
                sharp_sets[y].append((pref + e, o))
            for (xi, j), (y, s) in sorted(rep.slots.items()):
                slot_record.setdefault(xi, []).append((j, y, s))
            rep_slots[rep.id] = slot_record
        a.update({pref + v: pref + w for v, w in vsys.a.items()})
        alpha.update(
            {
                pref + v: {
                    (pref + p[0], p[1]): (pref + q[0], q[1]) for p, q in m.items()
                }
                for v, m in vsys.alpha.items()
            }
        )

    for y in inp.flexible_orbits:
        if not sharp_sets[y.id]:
            raise OrbitUnreferenced(f"flexible orbit {y.id!r} is never referenced")

    A: set[tuple[OrientedEdge, OrientedEdge]] = set()
    blocks: dict[str, dict] = {}
    for y in inp.flexible_orbits:
        sharp = sorted(sharp_sets[y.id])
        if y.orientable:
            for o1 in sharp:
                for o2 in sharp:
                    A.add((o1, o2))
                    A.add((bar(o1), bar(o2)))
        else:
            pm = [o for s in sharp for o in (s, bar(s))]
            for o1 in pm:
                for o2 in pm:
                    A.add((o1, o2))
        blocks[y.id] = {
            "orientable": y.orientable,
            "edges": sorted({e for e, _ in sharp}),
            "sharp": sharp,
        }

    sys = GraphicalConnectingSystem.build(named_components, a, alpha, A)
    violations = _rcs.validate(sys)
    trans = [v for v in violations if v.startswith("TransitivityFailure")]
    if trans:
        raise TransitivityFailure(trans[0])
    if violations:
        raise SurgeryError("synthesized system invalid: " + "; ".join(violations))
    return sys, BlockLedger(blocks, rep_slots)


def packets(
    ledger: BlockLedger,
    rep_id: str,
    xi: str,
    edge_group_orientable: bool = False,
) -> dict[str, dict]:
    """Partition the bunch of a peripheral label into packets by orbit.

    The bunch of xi consists of its n_xi - 1 parallel copies; a packet is the
    set of copies assigned to one flexible orbit. When the ambient edge group
    is declared orientable, a packet inside a non-orientable flexible orbit
    must have even cardinality (half in each orientation).
    """
    if rep_id not in ledger.rep_slots:
        raise SurgeryError(f"rep {rep_id!r} is not a rigid cluster in this ledger")
    if xi not in ledger.rep_slots[rep_id]:
        raise SurgeryError(f"label {xi!r} not present in rep {rep_id!r}")
    out: dict[str, dict] = {}
    for j, y, s in ledger.rep_slots[rep_id][xi]:
        rec = out.setdefault(y, {"slots": [], "sharps": [], "size": 0})
        rec["slots"].append(j)
        rec["sharps"].append(s)
        rec["size"] += 1
    for y, rec in out.items():
        if (
            edge_group_orientable
            and not ledger.blocks[y]["orientable"]
            and rec["size"] % 2 != 0
        ):
            raise OddPacketInMixedOrientationCase(
                f"packet of label {xi!r} in non-orientable orbit {y!r} has odd "
                f"size {rec['size']} with an orientable edge group"
            )
    return out


# -- built-in golden fixtures ----------------------------------------------


def golden_g2() -> JsjInput:
    """One rigid cluster of rank 2 with peripherals a, b, and the commutator,
    all of multiplicity 2; the two diagonal orbits are orientable and the
    boundary orbit is not."""
    periph = [
        PeripheralSpec(cyclically_reduce("a", "a"), 2),
        PeripheralSpec(cyclically_reduce("b", "b"), 2),
        PeripheralSpec(cyclically_reduce("abAB", "c"), 2),
    ]
    slots = {
        ("a", 1): ("ya", 0),
        ("b", 1): ("yb", 0),
        ("c", 1): ("yc", None),
    }
    return JsjInput(
        flexible_orbits=[
            FlexibleOrbit("ya", True),
            FlexibleOrbit("yb", True),
            FlexibleOrbit("yc", False),
        ],
        reps=[RigidClusterRep("z0", 2, periph, slots)],
    )


def golden_racg1() -> JsjInput:
    """Three valence reps of valences 3, 4, 4 over five non-orientable
    orbits; the blocks partition the eleven edges into sizes 1, 1, 5, 2, 2."""
    return JsjInput(
        flexible_orbits=[
            FlexibleOrbit("y1", False),
            FlexibleOrbit("y2", False),
            FlexibleOrbit("y3", False),
            FlexibleOrbit("y4", False),
            FlexibleOrbit("y5", False),
        ],
        reps=[
            V2Rep("z1", 3, [("y1", None), ("y2", None), ("y3", None)]),
            V2Rep("z2", 4, [("y3", None), ("y3", None), ("y4", None), ("y4", None)]),
            V2Rep("z3", 4, [("y3", None), ("y3", None), ("y5", None), ("y5", None)]),
        ],
    )
