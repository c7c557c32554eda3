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


def names_read(node: ast.AST) -> set[str]:
    """Every name node reads: as a variable, an attribute or an import."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


def unread_private_definitions(
    modules: dict[str, ast.Module], readers: list[ast.Module]
) -> list[str]:
    """path:name of each module-level _private function or class of modules
    that no other top-level statement of modules or readers reads."""
    statements = [s for tree in [*modules.values(), *readers] for s in tree.body]
    reads = [(s, names_read(s)) for s in statements]
    return [
        f"{path}:{d.name}"
        for path, tree in modules.items()
        for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and d.name.startswith("_")
        and not d.name.startswith("__")
        and not any(d.name in read for s, read in reads if s is not d)
    ]


def test_unread_private_scan_ignores_self_reads():
    tree = ast.parse(
        "def _loop(n):\n    return _loop(n - 1)\n"
        "def _used():\n    pass\nclass _Gone:\n    pass\n"
        "def f():\n    return _used()\n"
    )
    reader = ast.parse("from m import _Gone\n")
    assert unread_private_definitions({"m": tree}, []) == ["m:_loop", "m:_Gone"]
    assert unread_private_definitions({"m": tree}, [reader]) == ["m:_loop"]


def test_no_unread_private_definitions():
    def parsed(folder: str) -> dict[str, ast.Module]:
        paths = sorted((ROOT / folder).rglob("*.py"))
        return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p)) for p in paths}

    assert unread_private_definitions(parsed("src/tog"), [*parsed("tests").values()]) == []
