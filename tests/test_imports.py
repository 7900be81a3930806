"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linext"


def _unread_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    assert _unread_imports("from . import a, b\nimport c.d\nb.x(c)\n") == ["a"]
    unread = {path.name: _unread_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(unread) > 10
    assert {name: names for name, names in unread.items() if names} == {}
