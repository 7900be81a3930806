"""Text formats: poset files (`p=<n>` then `a<b` lines) and shape specs."""

from __future__ import annotations

from .posets import Poset, Shape, poset_from_covers


class ParseError(ValueError):
    pass


def parse_poset(text: str) -> Poset:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("p="):
        raise ParseError("poset file must start with 'p=<n>'")
    try:
        p = int(lines[0][2:])
    except ValueError as exc:
        raise ParseError(f"bad element count: {lines[0]!r}") from exc
    covers = []
    for ln in lines[1:]:
        if "<" not in ln:
            raise ParseError(f"bad cover line: {ln!r}")
        a, b = ln.split("<", 1)
        try:
            covers.append((int(a), int(b)))
        except ValueError as exc:
            raise ParseError(f"bad cover line: {ln!r}") from exc
    return poset_from_covers(p, covers)


def load_poset(path) -> Poset:
    try:
        with open(path) as fh:
            return parse_poset(fh.read())
    except OSError as exc:  # a missing or unreadable file, or a directory
        raise ParseError(str(exc)) from exc


def parse_shape(spec: str) -> Shape:
    """Accepts 'shape:3,3,2', 'shifted:4,3,1', or bare '3,3,2'."""
    spec = spec.strip()
    shifted = False
    if ":" in spec:
        kind, rest = spec.split(":", 1)
        kind = kind.strip()
        if kind == "shifted":
            shifted = True
        elif kind != "shape":
            raise ParseError(f"unknown shape kind {kind!r}")
        spec = rest
    try:
        rows = tuple(int(x) for x in spec.split(","))
    except ValueError as exc:
        raise ParseError(f"bad shape rows: {spec!r}") from exc
    try:
        return Shape(rows, shifted=shifted)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_word(spec: str) -> tuple:
    """Comma-separated word of element ids; '' is the empty word."""
    try:
        return tuple(int(x) for x in spec.split(",")) if spec else ()
    except ValueError as exc:
        raise ParseError(f"bad word: {spec!r}") from exc


def format_word(word) -> str:
    return ",".join(map(str, word))
