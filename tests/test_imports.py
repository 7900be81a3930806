"""Every name a module of the package imports is read in that module, and
every private top-level name of a module is read somewhere in the package."""

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


def _unread_private_names(sources: dict) -> list:
    """(module, name) for each private top-level name that its module never
    reads and no module of the package imports or reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(a.name for a in node.names)
    out = []
    for module, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in _private_top_level_names(tree):
            if name not in read | shared:
                out.append((module, name))
    return sorted(out)


def _private_top_level_names(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_top_level_name_is_read_in_the_package():
    toy = {
        "a.py": "_A = 1\n_b: int = 2\ndef _f(): pass\ndef _g(): pass\nclass _C: pass\nx = _A\n",
        "b.py": "from .a import _g\nfrom . import a\na._b\n_f = 3\n",
    }
    assert _unread_private_names(toy) == [("a.py", "_C"), ("a.py", "_f"), ("b.py", "_f")]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sum(len(_private_top_level_names(ast.parse(s))) for s in sources.values()) > 40
    assert _unread_private_names(sources) == []
