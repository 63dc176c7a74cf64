"""Text formats: the quiver DSL, its JSON mirror, and the walk syntax.

DSL ('#' starts a comment, tokens are [A-Za-z0-9_']+)::

    quiver
    vertices: 1 2 3
    arrows:
    a: 1 -> 2
    b: 2 -> 3
    relations:
    a b

Walk syntax: letters separated by '·' or whitespace, inverses marked with a
'^-1' suffix (``a' d'^-1 a``); trivial walks are written ``e(v)``; cyclic
walks are wrapped as ``cycle( ... )``.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .core import Arrow, BoundQuiver
from .errors import ParseError, UnknownArrow, UnknownVertex

if TYPE_CHECKING:
    from .walks import CyclicWalk, Walk

TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")
# a whole arrow line, stripped: 'id: source -> target'
_ARROW_LINE = re.compile(r"({0})\s*:\s*({0})\s*->\s*({0})".format(TOKEN_RE.pattern))


def parse_quiver(text: str) -> BoundQuiver:
    # (line number, line without comment or blanks, line without comment);
    # a column, worked out only for an error, counts from the raw line's start
    lines: list[tuple[int, str, str]] = []
    for i, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        if line := body.strip():
            lines.append((i, line, body))

    if not lines:
        raise ParseError(1, 1, "unexpected end of document, expected 'quiver' header")
    ln, line, body = lines[0]
    if line != "quiver":
        raise ParseError(ln, _col(body), f"expected 'quiver', got {line!r}")
    if len(lines) == 1:
        raise ParseError(ln, 1, "unexpected end of document, expected 'vertices:' line")
    ln, line, body = lines[1]
    if not line.startswith("vertices:"):
        raise ParseError(ln, _col(body), f"expected 'vertices:', got {line!r}")
    vertices = _tokens(ln, line, body, "bad vertex token", len("vertices:"))
    if not vertices:
        raise ParseError(ln, _col(body) + len(line) - 1, "at least one vertex is required")
    if len(lines) > 2 and lines[2][1] != "arrows:":
        ln, line, body = lines[2]
        raise ParseError(ln, _col(body), f"expected 'arrows:', got {line!r}")

    arrows: list[Arrow] = []
    relations: list[list[str]] = []
    in_relations = False
    for ln, line, body in lines[3:]:
        if line == "relations:":
            in_relations = True
        elif in_relations:
            relations.append(_tokens(ln, line, body, "bad token"))
        elif m := _ARROW_LINE.fullmatch(line):
            arrows.append(Arrow(*m.groups()))
        else:  # part by part, to report where the line goes wrong
            arrows.append(_parse_arrow_line(ln, line, _col(body)))

    return BoundQuiver.build(vertices, arrows, relations)


def _col(body: str) -> int:
    """The column where the stripped ``body`` starts."""
    return len(body) - len(body.lstrip()) + 1


def _tokens(ln: int, line: str, body: str, what: str, skip: int = 0) -> list[str]:
    """The whitespace-separated tokens of ``line[skip:]``, where ``line`` is
    ``body`` stripped."""
    found = line[skip:].split()
    if not all(map(TOKEN_RE.fullmatch, found)):
        bad = next(m for m in re.compile(r"\S+").finditer(line, skip)
                   if not TOKEN_RE.fullmatch(m.group()))
        raise ParseError(ln, _col(body) + bad.start(), f"{what} {bad.group()!r}")
    return found


def _parse_arrow_line(ln: int, line: str, col: int) -> Arrow:
    colon = line.find(":")
    if colon < 0:
        raise ParseError(ln, col, f"expected 'id: source -> target', got {line!r}")
    arrow = line.find("->", colon)
    if arrow < 0:
        raise ParseError(ln, col + colon + 1, f"missing '->' in arrow line {line!r}")
    ends = []
    for start, stop in ((0, colon), (colon + 1, arrow), (arrow + 2, len(line))):
        part = line[start:stop]
        tok = part.strip()
        if not TOKEN_RE.fullmatch(tok):
            raise ParseError(ln, col + start + len(part) - len(part.lstrip()), f"bad token {tok!r}")
        ends.append(tok)
    return Arrow(*ends)


def format_quiver(bq: BoundQuiver) -> str:
    out = ["quiver", "vertices: " + " ".join(bq.vertices), "arrows:"]
    out += [f"{a.id}: {a.source} -> {a.target}" for a in bq.arrows]
    if bq.relations:
        out.append("relations:")
        out += [" ".join(rel) for rel in bq.relations]
    return "\n".join(out) + "\n"


def quiver_to_json(bq: BoundQuiver) -> dict:
    return {
        "vertices": list(bq.vertices),
        "arrows": [{"id": a.id, "source": a.source, "target": a.target} for a in bq.arrows],
        "relations": [list(rel) for rel in bq.relations],
    }


def quiver_from_json(data: dict | str) -> BoundQuiver:
    import json

    try:
        if isinstance(data, str):
            data = json.loads(data)
        lists = (data["vertices"], data["arrows"], data["relations"], *data["relations"])
        if not all(isinstance(x, list) for x in lists):
            raise ParseError(1, 1, "vertices, arrows and each relation must be JSON arrays")
        vertices = tuple(data["vertices"])
        arrows = [Arrow(a["id"], a["source"], a["target"]) for a in data["arrows"]]
        relations = [tuple(rel) for rel in data["relations"]]
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    except (RecursionError, ValueError) as exc:  # nested too deep, a number too long
        raise ParseError(1, 1, f"unreadable JSON: {exc}") from None
    except KeyError as exc:
        raise ParseError(1, 1, f"JSON quiver has no key {exc}") from None
    except TypeError as exc:
        raise ParseError(1, 1, f"malformed JSON quiver: {exc}") from None
    ids = [*vertices, *(x for a in arrows for x in (a.id, a.source, a.target))]
    for x in ids + [x for rel in relations for x in rel]:
        if not (isinstance(x, str) and TOKEN_RE.fullmatch(x)):
            raise ParseError(1, 1, f"bad token {x!r}")
    return BoundQuiver.build(vertices, arrows, relations)


def parse_walk(bq: BoundQuiver, text: str) -> Walk | CyclicWalk:
    from .walks import CyclicWalk, Letter, Walk

    text = text.strip()
    cyclic = False
    if text.startswith("cycle(") and text.endswith(")"):
        cyclic = True
        text = text[len("cycle(") : -1].strip()
    if text.startswith("e(") and text.endswith(")"):
        if cyclic:
            raise InvalidWalkText("a cyclic walk needs at least one letter")
        v = text[2:-1].strip()
        if v not in bq.vertex_index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return Walk((), v)
    letters: list[Letter] = []
    for tok in text.replace("·", " ").split():
        inv = False
        if tok.endswith("^-1"):
            inv = True
            tok = tok[: -len("^-1")]
        if tok not in bq.arrow_by_id:
            raise UnknownArrow(f"unknown arrow {tok!r}")
        letters.append(Letter(tok, inv))
    if not letters:
        raise InvalidWalkText("empty walk text")
    if cyclic:
        return CyclicWalk(tuple(letters))
    return Walk(tuple(letters))


class InvalidWalkText(ValueError):
    pass


def quiver_to_dot(bq: BoundQuiver) -> str:
    """GraphViz digraph: one node per vertex, one edge per arrow, and a
    dashed chain through the vertices of each relation generator."""
    lines = ["digraph quiver {"]
    for v in bq.vertices:
        lines.append(f'  "{v}";')
    for a in bq.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.id}"];')
    for rel in bq.relations:
        label = "".join(rel)
        first = bq.arrow_by_id[rel[0]]
        chain = [first.source] + [bq.arrow_by_id[x].target for x in rel]
        for u, w in zip(chain, chain[1:]):
            lines.append(
                f'  "{u}" -> "{w}" [style=dashed, arrowhead=none, '
                f'color=gray, label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_walk(w: Walk | CyclicWalk) -> str:
    from .walks import CyclicWalk, Walk

    if isinstance(w, Walk) and w.is_trivial:
        return f"e({w.anchor})"
    body = " ".join(f"{l.arrow}^-1" if l.inv else l.arrow for l in w.letters)
    return f"cycle( {body} )" if isinstance(w, CyclicWalk) else body
