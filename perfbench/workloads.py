"""The four workloads: their operations, how one runs, and how it is checked.

Every workload is a closed loop with one client. It runs whole rounds of
operations; a round has a fixed composition and its variants and order come
from the seed, so each run measures the same mix whatever its seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tog.cli
import tog.multigraph as mg
import tog.rcs as rcs
import tog.twin_theta as tt
from inputs import (
    base_system_doc,
    jsj_input_doc,
    random_two_connected,
    random_vsystem,
    random_words,
    relabel_system,
    theta_sum,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
CLI_BOOT = "import sys; from tog.cli import main; sys.exit(main())"
KEEP_BYTES = 1 << 16  # stdout kept for inspection when no larger than this

OK, DEFECT, FAILED = "ok", "defect", "failed"


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- running the CLI -----------------------------------------------------------


@dataclass
class CliResult:
    code: int
    sha256: str
    nbytes: int
    text: str  # stdout, if at most KEEP_BYTES
    wall: float
    rss_mb: float = 0.0
    traceback: bool = False


def run_cli_child(argv: list[str], stderr_path: Path) -> CliResult:
    """One ``tog`` process: stdout drained and hashed, peak RSS from wait4."""
    h = hashlib.sha256()
    kept: list[bytes] = []
    n = 0
    t0 = perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_BOOT, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        while chunk := proc.stdout.read(1 << 20):
            h.update(chunk)
            n += len(chunk)
            if n <= KEEP_BYTES:
                kept.append(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - t0
    tb = b"Traceback" in stderr_path.read_bytes()
    text = b"".join(kept).decode() if n <= KEEP_BYTES else ""
    return CliResult(proc.returncode, h.hexdigest(), n, text, wall, usage.ru_maxrss / 1024, tb)


class _HashSink(io.TextIOBase):
    def __init__(self):
        self.h = hashlib.sha256()
        self.n = 0
        self.kept: list[str] = []

    def write(self, s: str) -> int:
        b = s.encode()
        self.h.update(b)
        self.n += len(b)
        if self.n <= KEEP_BYTES:
            self.kept.append(s)
        return len(s)


def run_cli_inproc(argv: list[str]) -> CliResult:
    """``tog.cli.main(argv)`` in this process, stdout hashed like a child's.

    An uncaught exception becomes exit 1 with a traceback, as it would in a
    ``tog`` process.
    """
    sink, err = _HashSink(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, err
    tb = False
    t0 = perf_counter()
    try:
        code = tog.cli.main(argv)
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else (0 if ex.code is None else 1)
    except Exception:  # a program defect: reported like an uncaught traceback
        code, tb = 1, True
    finally:
        wall = perf_counter() - t0
        sys.stdout, sys.stderr = old
    text = "".join(sink.kept) if sink.n <= KEEP_BYTES else ""
    return CliResult(code, sink.h.hexdigest(), sink.n, text, wall, 0.0, tb)


def is_violations_doc(text: str) -> bool:
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return (
        isinstance(doc, dict)
        and doc.get("schema") == "tog/1"
        and isinstance(doc.get("violations"), list)
        and len(doc["violations"]) > 0
        and all(isinstance(v, str) for v in doc["violations"])
    )


def meets_contract(res: CliResult, malformed: bool) -> bool:
    """The repo contract: a malformed input gives exit 1 or 2 and a tog/1
    violations document; any other input gives a tog/1 document and never a
    traceback."""
    if res.traceback:
        return False
    if malformed:
        return res.code in (1, 2) and is_violations_doc(res.text)
    return res.code in (0, 1, 2) and res.nbytes > 0


def judge_cli(res: CliResult, pin: dict, malformed: bool) -> str:
    """ok if the output is the pinned one; a pinned defect that still shows
    is a defect, and a fixed one is ok; anything else failed."""
    same = res.code == pin["code"] and res.sha256 == pin["sha256"]
    if pin["defect"]:
        if same:
            return DEFECT
        return OK if meets_contract(res, malformed) else FAILED
    return OK if same else FAILED


# -- workloads -----------------------------------------------------------------


@dataclass
class Op:
    key: str
    argv: list[str] = field(default_factory=list)
    data: object = None
    malformed: bool = False


class Workload:
    name = ""
    cli = False  # operations are tog processes

    def __init__(self, seed: int, workdir: Path, pins: dict):
        self.seed = seed
        self.workdir = workdir
        self.pins = pins
        self.first_round: list[Op] | None = None

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.seed, self.name, *parts)))

    def cycle(self, kind: str, i: int, size: int) -> int:
        """Round i's variant of one kind: the pool in order from a seeded
        start, so every run covers the whole pool whatever its seed."""
        return (self.rng("start", kind).randrange(size) + i) % size

    def setup(self) -> None:
        """Generate inputs and fixture files, then warm up with one operation."""
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        """The operations of round i; in-process workloads build round 0 in
        set-up, so its input generation counts as set-up time."""
        if i == 0 and self.first_round is not None:
            return self.first_round
        return self.make_round(i)

    def make_round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, inproc: bool):
        """Run one operation; returns its result, whose .wall is the op time."""
        raise NotImplementedError

    def judge(self, op: Op, result) -> tuple[str, float]:
        """(status, work done) of one operation, checked outside the timing."""
        raise NotImplementedError


class CliWorkload(Workload):
    cli = True

    def execute(self, op: Op, inproc: bool) -> CliResult:
        if inproc:
            return run_cli_inproc(op.argv)
        return run_cli_child(op.argv, self.workdir / "stderr.txt")

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)


# expand-emit: shape -> (base system, root, depth, resolution)
EXPAND_SHAPES = {
    "theta3-d5-r1": ("theta3", 0, 5, 1),
    "theta4-d3-r2": ("theta4", 0, 3, 2),
    "racg1-root1-d3-r2": ("racg1", 1, 3, 2),
    "racg1-root2-d4-r1": ("racg1", 2, 4, 1),
    "g2-d3-r1": ("g2", 0, 3, 1),
}
EXPAND_POOL = 6  # pinned relabelings per shape


def expand_pool_entry(shape: str, j: int) -> tuple[str, dict, list[str]]:
    """(pin key, system document, argv after the input path) of one entry."""
    base, root, depth, res = EXPAND_SHAPES[shape]
    key = f"expand:{shape}:{j}"
    doc, _ = relabel_system(base_system_doc(base), random.Random(key))
    return key, doc, ["--depth", str(depth), "--resolution", str(res), "--root", str(root)]


class ExpandEmit(CliWorkload):
    """``tog rcs expand`` on systems of 0.9k-2.9k copies, stdout hashed."""

    name = "expand-emit"
    unit = "copies"

    def setup(self) -> None:
        self.entries = {}
        for shape in EXPAND_SHAPES:
            for j in range(EXPAND_POOL):
                key, doc, tail = expand_pool_entry(shape, j)
                path = self._write(f"{shape}-{j}.json", json.dumps(doc))
                self.entries[key] = ["rcs", "expand", path, *tail]
        first = next(iter(self.entries.values()))
        self.execute(Op("warm-up", ["rcs", "validate", first[2]]), inproc=False)

    def make_round(self, i: int) -> list[Op]:
        keys = [f"expand:{s}:{self.cycle(s, i, EXPAND_POOL)}" for s in EXPAND_SHAPES]
        ops = [Op(key, self.entries[key]) for key in keys]
        self.rng("order", i).shuffle(ops)
        return ops

    def judge(self, op: Op, res: CliResult) -> tuple[str, float]:
        pin = self.pins[op.key]
        status = judge_cli(res, pin, malformed=False)
        return status, pin["copies"] if status == OK else 0


CLI_KINDS = [
    "graph",
    "twin-decompose",
    "whitehead",
    "whitehead-mult",
    "vsystem",
    "rcs-validate",
    "rcs-expand",
    "rcs-analyze",
    "jsj-golden",
    "jsj-file",
]
CLI_POOL = 8  # pinned variants per kind
MALFORMED_PER_ROUND = 2


def cli_pool_entry(kind: str, j: int) -> tuple[str, dict[str, str], list[str]]:
    """(pin key, files by name, argv with {name} placeholders) of one entry."""
    key = f"cli:{kind}:{j}"
    rng = random.Random(key)
    if kind == "graph":
        emit = ["--emit", "dot"] if j % 4 == 3 else []
        doc = random_two_connected(rng).to_json_dict()
        return key, {"g": json.dumps(doc)}, ["graph", "{g}", *emit]
    if kind == "twin-decompose":
        g, _ = theta_sum(rng, rng.randint(2, 4))
        return key, {"g": json.dumps(g.to_json_dict())}, ["twin-decompose", "{g}"]
    if kind in ("whitehead", "whitehead-mult"):
        rank = 2 + j % 2
        words = random_words(rng, rank)
        argv = ["whitehead", "--rank", str(rank), "--words", ",".join(words)]
        if j % 3 == 0:
            argv += ["--labels", ",".join(f"w{i}" for i in range(len(words)))]
        if kind == "whitehead-mult":
            argv += ["--multiplicities", ",".join(str(rng.randint(2, 3)) for _ in words)]
        return key, {}, argv
    if kind == "vsystem":
        return key, {"v": json.dumps(random_vsystem(rng).to_json_dict())}, ["vsystem", "{v}"]
    base = ["theta3", "theta4", "theta5", "racg1", "g2"][j % 5]
    doc, cells = relabel_system(base_system_doc(base), rng)
    files = {"s": json.dumps(doc)}
    if kind == "rcs-validate":
        return key, files, ["rcs", "validate", "{s}"]
    if kind == "rcs-expand":
        depth, res = (2, 1) if base in ("racg1", "g2") else (1 + j % 2, 1 + j % 2)
        emit = ["--emit", "dot"] if j % 4 == 1 else []
        return key, files, ["rcs", "expand", "{s}", "--depth", str(depth), "--resolution", str(res), *emit]
    if kind == "rcs-analyze":
        doc, cells = relabel_system(base_system_doc(f"theta{3 + j % 3}"), rng)
        files = {"s": json.dumps(doc)}
        argv = ["rcs", "analyze", "{s}", "--depth", str(1 + j % 2)]
        if j % 2:
            argv += ["--cell", cells["c0:u"], "--pair-cell", cells["c0:w"]]
        else:
            argv += ["--cell", cells["c0:e1"], "--position", "1/5"]
        return key, files, argv
    if kind == "jsj-golden":
        return key, {}, ["jsj", "synth", "--golden", ["g2", "racg1"][j % 2]]
    if kind == "jsj-file":
        doc = jsj_input_doc(rng, ["g2", "racg1"][j % 2])
        return key, {"j": json.dumps(doc)}, ["jsj", "synth", "{j}"]
    raise ValueError(kind)


def malformed_cases() -> list[tuple[str, dict[str, str], list[str]]]:
    """Malformed documents and arguments. Their correct outcome is exit 1 or
    2 with a tog/1 violations document; some are known to escape today."""
    theta3 = base_system_doc("theta3")
    broken = dict(theta3, econnections=theta3["econnections"][1:])
    k4 = {
        "schema": "tog/1",
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": f"e{i}{j}", "ends": [x, y]}
            for i, x in enumerate("abcd")
            for j, y in enumerate("abcd")
            if i < j
        ],
    }
    cases = [
        ("bad-json", {"g": "{nope"}, ["graph", "{g}"]),
        ("top-level-array", {"g": "[1, 2]"}, ["graph", "{g}"]),
        ("one-ended-edge", {"g": json.dumps({"schema": "tog/1", "vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a"]}]})}, ["graph", "{g}"]),
        ("string-vertices", {"g": json.dumps({"schema": "tog/1", "vertices": "ab", "edges": []})}, ["graph", "{g}"]),
        ("bad-multiplicity", {}, ["whitehead", "--rank", "2", "--words", "a,b", "--multiplicities", "x,2"]),
        ("empty-word", {}, ["whitehead", "--rank", "2", "--words", "aA"]),
        ("not-twin", {"g": json.dumps(k4)}, ["twin-decompose", "{g}"]),
        ("cap-exceeded", {"s": json.dumps(theta3)}, ["rcs", "expand", "{s}", "--depth", "3", "--cap", "20"]),
        ("negative-cap", {"s": json.dumps(theta3)}, ["rcs", "expand", "{s}", "--cap", "-1"]),
        ("not-swap-closed", {"s": json.dumps(broken)}, ["rcs", "validate", "{s}"]),
        ("no-schema", {"v": json.dumps({"graph": k4, "a": [], "alpha": {}})}, ["vsystem", "{v}"]),
        ("vsystem-array", {"v": "[]"}, ["vsystem", "{v}"]),
        ("zero-denominator", {"s": json.dumps(theta3)}, ["rcs", "analyze", "{s}", "--cell", "c0:e1", "--position", "1/0"]),
        ("jsj-no-input", {}, ["jsj", "synth"]),
    ]
    return [(f"cli:malformed:{name}", files, argv) for name, files, argv in cases]


class CliSmall(CliWorkload):
    """A mix of short tog processes over all eight subcommands."""

    name = "cli-small"
    unit = "commands"

    def setup(self) -> None:
        self.entries: dict[str, tuple[list[str], bool]] = {}
        pool = [cli_pool_entry(k, j) for k in CLI_KINDS for j in range(CLI_POOL)]
        self.malformed = malformed_cases()
        for entries, malformed in ((pool, False), (self.malformed, True)):
            for key, files, argv in entries:
                paths = {
                    name: self._write(f"{key.replace(':', '-')}-{name}.json", text)
                    for name, text in files.items()
                }
                self.entries[key] = ([a.format(**paths) for a in argv], malformed)
        self.execute(Op("warm-up", self.entries["cli:graph:0"][0]), inproc=False)

    def make_round(self, i: int) -> list[Op]:
        keys = [f"cli:{k}:{self.cycle(k, i, CLI_POOL)}" for k in CLI_KINDS]
        n = len(self.malformed)
        start = self.cycle("malformed", 0, n) + MALFORMED_PER_ROUND * i
        keys += [self.malformed[(start + m) % n][0] for m in range(MALFORMED_PER_ROUND)]
        ops = [Op(k, self.entries[k][0], malformed=self.entries[k][1]) for k in keys]
        self.rng("order", i).shuffle(ops)
        return ops

    def judge(self, op: Op, res: CliResult) -> tuple[str, float]:
        status = judge_cli(res, self.pins[op.key], op.malformed)
        return status, 1 if status == OK else 0


@dataclass
class SurveyShape:
    base: str
    root: int
    depth: int
    resolution: int
    locus: tuple  # (cell, position or None), canonical cell ids
    pair: tuple


# survey: shape -> system, depth and the tracked pair; vertex loci follow
# their essential lift, interior loci avoid every site position k/(r+1).
# Each shape costs about the same (0.2-0.4 s), so the median falls inside one
# cluster and a run holds enough samples for a tail.
SURVEY_SHAPES = {
    "theta3-D3-r3": SurveyShape("theta3", 0, 3, 3, ("c0:u", None), ("c0:w", None)),
    "theta4-D3-r2": SurveyShape("theta4", 0, 3, 2, ("c0:u", None), ("c0:w", None)),
    "racg1-root2-D4-r1": SurveyShape("racg1", 2, 4, 1, ("z3:e1", "1/5"), ("z3:e3", "2/5")),
    "g2-D3-r1": SurveyShape("g2", 0, 3, 1, ("z0:w0p0x1", "1/5"), ("z0:w2p1x1", "2/5")),
}


def survey_op(system, shape: SurveyShape, cells: dict[str, str]) -> dict:
    """Expand to each depth, check 2-connectivity, project each depth onto the
    previous one and compose, and trace a pair of points: one operation."""
    def locus(spec):
        cell, pos = spec
        return ("n", cells[cell]) if pos is None else ("n", cells[cell], Fraction(pos))

    pus = [
        rcs.expand_to_depth(rcs.init(system, shape.root, shape.resolution, cap=100000), d)
        for d in range(shape.depth + 1)
    ]
    conn = [mg.is_two_connected(pu.graph) for pu in pus]
    maps = [rcs.project(pus[d], pus[d - 1]) for d in range(1, shape.depth + 1)]
    composed = [rcs.compose_cell_maps(maps[d - 1], maps[d]) for d in range(1, len(maps))]
    trace = rcs.analyze_point(pus, locus(shape.locus), pair_with=locus(shape.pair))
    return {"pus": pus, "conn": conn, "composed": composed, "trace": trace}


def survey_summary(out: dict) -> dict:
    """The label-free facts of a survey operation, as pinned."""
    return {
        "counts": [[len(p.nodes), len(p.vertices), len(p.edges)] for p in out["pus"]],
        "two_connected": out["conn"],
        "degrees": [e["degree"] for e in out["trace"].entries],
        "pair_components": [e["pair_components"] for e in out["trace"].entries],
    }


@dataclass
class InprocResult:
    wall: float
    out: object = None  # None if the operation raised


def run_inproc(fn, *args) -> InprocResult:
    """Time one library call; an exception is a failed operation, reported
    with its traceback, and the run goes on."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception:  # a program defect: counted as failed, not fatal
        traceback.print_exc()
        out = None
    return InprocResult(perf_counter() - t0, out)


class Survey(Workload):
    """In-process expansion survey, as in scripts/expansion_growth.py."""

    name = "survey"
    unit = "copies"

    def setup(self) -> None:
        self.docs = {s.base: base_system_doc(s.base) for s in SURVEY_SHAPES.values()}
        self.first_round = self.make_round(0)
        warm = SURVEY_SHAPES["g2-D3-r1"]
        self.execute(Op("warm-up", data=self._input(warm, self.rng("warm-up"))), inproc=True)

    def _input(self, shape: SurveyShape, rng: random.Random) -> tuple:
        """A fresh, freshly relabeled system object with its shape and cells."""
        doc, cells = relabel_system(self.docs[shape.base], rng)
        return rcs.GraphicalConnectingSystem.from_json_dict(doc), shape, cells

    def make_round(self, i: int) -> list[Op]:
        """One operation per shape."""
        ops = [
            Op(name, data=self._input(shape, self.rng("round", i, name)))
            for name, shape in SURVEY_SHAPES.items()
        ]
        self.rng("order", i).shuffle(ops)
        return ops

    def execute(self, op: Op, inproc: bool) -> InprocResult:
        return run_inproc(survey_op, *op.data)

    def judge(self, op: Op, res: InprocResult) -> tuple[str, float]:
        out = res.out
        if out is None:
            return FAILED, 0
        pus = out["pus"]
        ok = survey_summary(out) == self.pins[f"survey:{op.key}"]
        if ok and len(pus) >= 3:
            # functoriality on the deepest triple: project(D, D-2) equals
            # project(D-1, D-2) after project(D, D-1)
            ok = rcs.project(pus[-1], pus[-3]) == out["composed"][-1]
        work = sum(len(p.nodes) for p in pus)
        return (OK, work) if ok else (FAILED, 0)


# twin: summand counts of one round
TWIN_ROUND = [8, 12, 16, 16, 16, 16, 20]


def decompose_and_replay(g):
    tree = tt.theta_sum_decomposition(g)
    return tree, tree.replay()


class Twin(Workload):
    """In-process theta-sum decomposition and replay of seeded theta sums."""

    name = "twin"
    unit = "summands"

    def setup(self) -> None:
        self.first_round = self.make_round(0)
        g, ks = theta_sum(self.rng("warm-up"), TWIN_ROUND[0])
        self.execute(Op("warm-up", data=(g, ks)), inproc=True)

    def make_round(self, i: int) -> list[Op]:
        ops = [
            Op(f"twin:{n}", data=theta_sum(self.rng("round", i, j), n))
            for j, n in enumerate(TWIN_ROUND)
        ]
        self.rng("order", i).shuffle(ops)
        return ops

    def execute(self, op: Op, inproc: bool) -> InprocResult:
        return run_inproc(decompose_and_replay, op.data[0])

    def judge(self, op: Op, res: InprocResult) -> tuple[str, float]:
        if res.out is None:
            return FAILED, 0
        g, ks = op.data
        tree, replayed = res.out
        ok = sorted(tree.summands) == ks and replayed == g
        return (OK, len(ks)) if ok else (FAILED, 0)


WORKLOADS = {w.name: w for w in (ExpandEmit, Survey, Twin, CliSmall)}
