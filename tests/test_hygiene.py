"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_import_scan_finds_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom a import b, c as d\n"
        "os.path.join(d)\n"
    )
    assert unused_imports(tree) == [(3, "j"), (4, "b")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src/tog", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
