#!/usr/bin/env python3
"""Benchmark of tog: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload expand-emit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, measured untraced:
operations of CLI workloads are ``tog`` processes, and in-process workloads
run in one worker process. With ``--trace 1`` it prints the per-layer
metrics from a traced run of the same workload and seed, in-process (CLI
workloads through ``tog.cli.main(argv)``). The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts operations whose output is not the pinned one (or, for
the survey and twin workloads, fails its invariant check). Operations that
still show a known defect pinned in ``pins.json`` are not ``failed``; they
count in ``error_rate`` with the failed ones.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
IMPORT_PROBES = 5


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(wl, seconds: float, run_op) -> list[dict]:
    """Whole rounds until the next would overrun ``seconds`` by half a round.

    ``run_op(op)`` returns the result of one operation; its check runs after
    it, outside the operation's own time.
    """
    records = []
    start = perf_counter()
    i = 0
    while True:
        for op in wl.round(i):
            res = run_op(op)
            status, work = wl.judge(op, res)
            records.append(
                {"round": i, "key": op.key, "wall": res.wall, "status": status,
                 "work": work, "rss_mb": getattr(res, "rss_mb", 0.0)}
            )
        i += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / i >= seconds:
            return records


def timed_setups(wl) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


# -- worker: in-process operations ---------------------------------------------


def worker(args, wl) -> dict:
    """Run one workload in this process; returns records and metrics.

    Library warnings are ignored, as a script using the library would; the
    traced operations record them to count them.
    """
    warnings.simplefilter("ignore")
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))

    def run_op(op):
        # one long process would sit on one CPU for the whole run, and a busy
        # neighbour on that CPU would slow the whole run; moving between
        # operations samples every CPU the run may use, as the CLI workloads'
        # fresh processes do
        os.sched_setaffinity(0, {next(cpus)})
        return wl.execute(op, inproc=True)

    if not args.trace:
        setups = timed_setups(wl)
        return {"setups": setups, "records": measure(wl, args.seconds, run_op)}

    from tracing import Tracer, install, layer_metrics

    wl.setup()
    untraced = measure(wl, args.seconds / 2, run_op)
    tracer = Tracer()
    install(tracer)
    warned = {}
    op_ids = iter(range(1 << 30))

    def traced_op(op):
        op_id = next(op_ids)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer.begin_op(op_id)
            try:
                return run_op(op)
            finally:
                tracer.end_op()
                warned[op_id] = sum(str(w.message).startswith("resolution") for w in caught)

    traced = measure(wl, args.seconds / 2, traced_op)
    first = {i for i, r in enumerate(traced) if r["round"] == 0}
    metrics = layer_metrics(tracer, first)
    metrics["rcs.warnings"] = sum(warned[i] for i in first)
    p50 = statistics.median(r["wall"] for r in traced)
    base = statistics.median(r["wall"] for r in untraced)
    metrics["trace.op_s.p50"] = p50
    metrics["trace.untraced_op_s.p50"] = base
    metrics["trace.overhead_ratio"] = p50 / base
    tracer.dump(WORK / f"spans-{wl.name}.tsv")
    return {"records": untraced + traced, "metrics": metrics}


def spawn_worker(args) -> tuple[dict, float]:
    """The worker for this workload as a child; returns its output and peak RSS."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--worker"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024


# -- parent --------------------------------------------------------------------


def import_probe() -> dict:
    """cli.* metrics: ``import tog.cli`` in fresh interpreters, one at a time."""
    from tracing import IMPORT_PROBE
    from workloads import child_env

    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, env=child_env(), cwd=ROOT, check=True,
        )
        runs.append(json.loads(out.stdout))
    return {
        "cli.import_s": statistics.median(r["import_s"] for r in runs),
        "cli.import_modules": runs[0]["modules"],
        "cli.networkx_on_import": runs[0]["networkx"],
    }


def code_digest() -> str:
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.suffix in (".py", ".json"))
    files += sorted(HERE.glob("*.py")) + [HERE / "pins.json"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_exact(workload: str, seed: int, metrics: dict) -> list[str]:
    """Compare exact counters with an earlier run of the same code and seed."""
    from tracing import EXACT

    path = WORK / "exact.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_digest()}:{workload}:{seed}"
    now = {k: int(metrics[k]) for k in EXACT}
    before = seen.setdefault(key, now)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return [f"{k}: {before[k]} before, {now[k]} now" for k in EXACT if before[k] != now[k]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "tog" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'tog'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, load_pins

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(args.seed, workdir, load_pins())
        if args.worker:
            print(json.dumps(worker(args, wl)))
            return 0
        if cls.cli and not args.trace:
            setups = timed_setups(wl)
            records = measure(wl, args.seconds, lambda op: wl.execute(op, inproc=False))
            # the typical tog process: a max would hinge on which pool
            # variants a run of this length happens to reach
            rss = statistics.median(r["rss_mb"] for r in records)
            out = {"setups": setups, "records": records}
        else:
            out, rss = spawn_worker(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, cls, out, rss)


def report(args, cls, out: dict, rss: float) -> int:
    records = out["records"]
    n = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    defects = sum(r["status"] == "defect" for r in records)
    walls = [r["wall"] for r in records]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} operations")
    print(f"  error_rate {(failed + defects) / n:.4f} ratio "
          f"({failed + defects} of {n}: {failed} failed, {defects} known defects)")
    bad = Counter((r["status"], r["key"]) for r in records if r["status"] != "ok")
    for (status, key), count in sorted(bad.items()):
        print(f"  {status} x{count}: {key}")
    correct = failed == 0
    if not args.trace:
        value, pct = tail(walls)
        metrics = {
            "op_s.p50": metric(statistics.median(walls), "s"),
            "op_s.tail": metric(value, "s"),
            "work_per_s": metric(sum(r["work"] for r in records) / sum(walls), "work/s"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(statistics.median(out["setups"]), "s"),
        }
        print(f"  op_s.tail is p{pct:.1f} of {n} samples; work unit: {cls.unit}")
    else:
        m = out["metrics"]
        if cls.cli:
            m.update(import_probe())
        else:
            m.update({"cli.import_s": 0.0, "cli.import_modules": 0, "cli.networkx_on_import": 0})
        m["check.error_rate"] = (failed + defects) / n
        mismatches = check_exact(args.workload, args.seed, m)
        for line in mismatches:
            print(f"exact counter changed between runs of the same code and seed: {line}",
                  file=sys.stderr)
        correct = correct and not mismatches
        units = per_layer_units()
        metrics = {k: metric(m[k], units[k]) for k in units}
    for k, v in metrics.items():
        print(f"  {k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
