"""Every name a module of the package imports is read in that module, every
private top-level name of a module is read somewhere in the package, every
defaulted parameter is passed by some call in the program, and every public
top-level function of the package is read by the program through its own
module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linext"


def _program() -> dict:
    """{path from the repo root: source} per Python file of the program: the
    package under src/, scripts/ and perfbench/."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in ("src", "scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))}


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


# (module, function, parameter) that no call in the program passes, and why it stays
UNPASSED_DEFAULTS = {
    ("cli.py", "main", "argv"): "only tests pass argv; the console script reads sys.argv",
}


def _defaulted_parameters(tree) -> list:
    """(name called, position or None, parameter) per defaulted parameter.
    Positions skip a method's self unless it is a staticmethod, __init__ is
    called by its class's name, and keyword-only parameters have None."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if cls and not static:
                    names = names[1:]
                call = cls if node.name == "__init__" else node.name
                first = len(names) - len(a.defaults)
                out.extend((call, i, x) for i, x in enumerate(names) if i >= first)
                out.extend((call, None, x.arg)
                           for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return out


def _unpassed_defaults(package: dict, program: list) -> list:
    """(module, name called, parameter) for each defaulted parameter of a
    function in `package` that no call in the `program` sources passes, by
    position or by keyword; calls are matched by the name called."""
    calls = {}
    for source in program:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    return sorted(
        (module, call, param)
        for module, source in package.items()
        for call, i, param in _defaulted_parameters(ast.parse(source))
        if not any((i is not None and i < n) or param in kw for n, kw in calls.get(call, ()))
    )


def test_every_defaulted_parameter_is_passed_by_the_program():
    toy = {"a.py": (
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    @staticmethod\n"
        "    def s(y=1): pass\n"
        "    def m(self, z=1): pass\n"
    )}
    calls = ["f(0, 1)\nK(x=1)\nK.s(0)\nK().m()\n"]
    assert _unpassed_defaults(toy, calls) == [("a.py", "f", "c"), ("a.py", "m", "z")]
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    program = list(_program().values())
    # a floor on the scan's reach, not on the defaults it finds, which the rule
    # drives down: every module of the package parses, and there are 10 or more
    assert len(package) >= 10 and all(isinstance(ast.parse(s), ast.Module) for s in package.values())
    assert _unpassed_defaults(package, program) == sorted(UNPASSED_DEFAULTS)


# (module, function) that no module of the program reads, and why it stays
PROGRAM_UNREAD = {
    ("hecke.py", "c_w"): "a documented entry point that tests/test_acceptance.py reads",
    ("sieve.py", "maj_tableau"): "the checked maj of one tableau that tests/test_acceptance.py reads",
    ("stats.py", "comaj"): "the per-word reference that the wprime_poly path sum is property-tested against",
    ("stats.py", "extension_parity"): "the per-word reference that the sign_balance_report census is "
                                      "property-tested against",
}


def _unread_public_functions(package: dict, program: dict) -> list:
    """(file name, function) for each public top-level function of the
    `package` sources that no source of the `program` reads through the
    function's own module, outside a def of that name: as a name in that
    module, as a name imported from it, or as the attribute <module>.<name>.
    Both dicts are keyed by path, the package's paths among the program's."""
    read = set()  # (module stem, name)

    def visit(node, path, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            pairs = [(Path(path).stem, node.id)] if path in package else []
        elif isinstance(node, ast.Attribute):
            owner = node.value
            pairs = [(getattr(owner, "id", None) or getattr(owner, "attr", None), node.attr)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs = [(node.module.split(".")[-1], a.name) for a in node.names]
        else:
            pairs = []
        read.update((module, name) for module, name in pairs if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, path, inside)

    for path, source in program.items():
        visit(ast.parse(source), path, frozenset())
    return sorted(
        (Path(path).name, node.name)
        for path, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and (Path(path).stem, node.name) not in read
    )


def test_every_public_function_is_read_by_the_program():
    toy = {
        "pkg/a.py": ("def f(): pass\n"
                     "def g(n): return g(n - 1)\n"
                     "def h(): pass\n"
                     "def k(): pass\n"
                     "def _p(): pass\n"
                     "def span(): pass\n"
                     "class C:\n"
                     "    def m(self): pass\n"
                     "x = k()\n"),
        "pkg/b.py": "def unread(): pass\ndef tau(): pass\n",
    }
    program = {**toy, "tools/c.py": ("from pkg.a import h\nimport pkg.a\na.f\n"
                                     "span = 1\nprint(span, C().tau)\nfrom pkg.d import unread\n")}
    # g reads only itself and nothing reads unread; span and tau collide with a
    # name and an attribute of other owners, and the import of unread is
    # another module's; private names and methods are the other rules' business
    assert _unread_public_functions(toy, program) == [
        ("a.py", "g"), ("a.py", "span"), ("b.py", "tau"), ("b.py", "unread")]
    program = _program()
    package = {path: source for path, source in program.items() if path.startswith("src/linext/")}
    # a floor on the scan's reach: the package and both other program directories
    assert len(package) >= 10
    assert {path.split("/")[0] for path in program} == {"src", "scripts", "perfbench"}
    assert _unread_public_functions(package, program) == sorted(PROGRAM_UNREAD)
