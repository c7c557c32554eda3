#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the pinned reference outputs.

    python3 perfbench/pin.py

Run from the root of a checkout. Each CLI pool entry is run as a ``tog``
process and in-process through ``tog.cli.main``; both must give the same
exit code and stdout bytes, which are pinned with whether the outcome breaks
the contract (a known defect). Survey shapes are pinned by their per-depth
counts, 2-connectivity and pair trace, which must agree across two
relabelings. Regenerating pins changes
the benchmark, so it belongs in a change that alters no program code.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import base_system_doc, relabel_system  # noqa: E402
from workloads import (  # noqa: E402
    CLI_KINDS,
    CLI_POOL,
    EXPAND_POOL,
    EXPAND_SHAPES,
    PINS,
    SURVEY_SHAPES,
    cli_pool_entry,
    expand_pool_entry,
    malformed_cases,
    meets_contract,
    run_cli_child,
    run_cli_inproc,
    survey_op,
    survey_summary,
)


def pin_cli(key: str, argv: list[str], workdir: Path, malformed: bool) -> dict:
    child = run_cli_child(argv, workdir / "stderr.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inproc = run_cli_inproc(argv)
    if (child.code, child.sha256) != (inproc.code, inproc.sha256):
        raise SystemExit(f"{key}: tog process and tog.cli.main differ")
    return {
        "code": child.code,
        "sha256": child.sha256,
        "bytes": child.nbytes,
        "defect": not meets_contract(child, malformed),
    }


def main() -> int:
    from tog.rcs import GraphicalConnectingSystem, expand

    pins: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)

        def write(key: str, files: dict[str, str]) -> dict[str, str]:
            paths = {}
            for name, text in files.items():
                path = workdir / f"{key.replace(':', '-')}-{name}.json"
                path.write_text(text)
                paths[name] = str(path)
            return paths

        for shape in EXPAND_SHAPES:
            for j in range(EXPAND_POOL):
                key, doc, tail = expand_pool_entry(shape, j)
                path = write(key, {"s": json.dumps(doc)})["s"]
                pins[key] = pin_cli(key, ["rcs", "expand", path, *tail], workdir, False)
                depth, res, root = (int(x) for x in tail[1::2])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    pu = expand(GraphicalConnectingSystem.from_json_dict(doc), root, depth, res)
                pins[key]["copies"] = len(pu.nodes)
                print(key, pins[key], flush=True)
        entries = [(*cli_pool_entry(k, j), False) for k in CLI_KINDS for j in range(CLI_POOL)]
        entries += [(*m, True) for m in malformed_cases()]
        for key, files, argv, malformed in entries:
            paths = write(key, files)
            pins[key] = pin_cli(key, [a.format(**paths) for a in argv], workdir, malformed)
            print(key, pins[key], flush=True)
    for name, shape in SURVEY_SHAPES.items():
        facts = []
        for tag in ("pin-a", "pin-b"):
            doc, cells = relabel_system(base_system_doc(shape.base), random.Random(tag))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = survey_op(GraphicalConnectingSystem.from_json_dict(doc), shape, cells)
            facts.append(survey_summary(out))
        if facts[0] != facts[1]:
            raise SystemExit(f"survey {name}: facts depend on the labels")
        pins[f"survey:{name}"] = facts[0]
        print(name, facts[0], flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
