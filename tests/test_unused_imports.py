"""Every name a module imports is read in that module.

The scan covers the package, the tests and the tools. It skips ``__future__``
imports and import lines marked ``# noqa: F401``: those bind a name only so
that a profiler can wrap it in the importing module's namespace.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/slantbeam", "tests", "tools")


def unused_imports(path: Path) -> list:
    """``"<path>:<line>: <name>"`` for every imported name ``path`` never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_every_imported_name_is_read():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []
