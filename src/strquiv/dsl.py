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

import json

from .core import Arrow, BoundQuiver, is_token
from .errors import ParseError, UnknownArrow, UnknownVertex
from .walks import CyclicWalk, Letter, Walk


def parse_quiver(text: str) -> BoundQuiver:
    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    pos = 0

    def need(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(last, 1, f"unexpected end of document, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    ln, line = need("'quiver' header")
    if line != "quiver":
        raise ParseError(ln, 1, f"expected 'quiver', got {line!r}")

    ln, line = need("'vertices:' line")
    if not line.startswith("vertices:"):
        raise ParseError(ln, 1, f"expected 'vertices:', got {line!r}")
    vertices = line[len("vertices:") :].split()
    if not vertices:
        raise ParseError(ln, len(line), "at least one vertex is required")
    for v in vertices:
        if not is_token(v):
            raise ParseError(ln, line.index(v) + 1, f"bad vertex token {v!r}")

    if pos < len(lines):
        ln, line = need("'arrows:' line")
        if line != "arrows:":
            raise ParseError(ln, 1, f"expected 'arrows:', got {line!r}")

    arrows: list[Arrow] = []
    relations: list[list[str]] = []
    in_relations = False
    while pos < len(lines):
        ln, line = lines[pos]
        pos += 1
        if line == "relations:":
            in_relations = True
            continue
        if in_relations:
            word = line.split()
            for x in word:
                if not is_token(x):
                    raise ParseError(ln, line.index(x) + 1, f"bad token {x!r}")
            relations.append(word)
        else:
            arrows.append(_parse_arrow_line(ln, line))

    return BoundQuiver.build(vertices, arrows, relations)


def _parse_arrow_line(ln: int, line: str) -> Arrow:
    if ":" not in line:
        raise ParseError(ln, 1, f"expected 'id: source -> target', got {line!r}")
    aid, rest = line.split(":", 1)
    aid = aid.strip()
    if "->" not in rest:
        raise ParseError(ln, len(aid) + 2, f"missing '->' in arrow line {line!r}")
    src, tgt = (part.strip() for part in rest.split("->", 1))
    for tok in (aid, src, tgt):
        if not is_token(tok):
            raise ParseError(ln, line.index(tok) + 1 if tok else 1, f"bad token {tok!r}")
    return Arrow(aid, src, tgt)


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
    except KeyError as exc:
        raise ParseError(1, 1, f"JSON quiver has no key {exc}") from None
    except TypeError as exc:
        raise ParseError(1, 1, f"malformed JSON quiver: {exc}") from None
    ids = [*vertices, *(x for a in arrows for x in (a.id, a.source, a.target))]
    for x in ids + [x for rel in relations for x in rel]:
        if not (isinstance(x, str) and is_token(x)):
            raise ParseError(1, 1, f"bad token {x!r}")
    return BoundQuiver.build(vertices, arrows, relations)


def parse_walk(bq: BoundQuiver, text: str) -> Walk | CyclicWalk:
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
    if isinstance(w, Walk) and w.is_trivial:
        return f"e({w.anchor})"
    body = " ".join(f"{l.arrow}^-1" if l.inv else l.arrow for l in w.letters)
    return f"cycle( {body} )" if isinstance(w, CyclicWalk) else body
