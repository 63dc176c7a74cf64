"""Reference answers that share no code with ``strquiv``.

Everything here works on plain data: a ``Quiver`` of vertex names, arrows
as ``(id, source, target)`` and relations as tuples of arrow ids.  The
benchmark compares the program's outputs with these brute-force
computations, with closed formulas for the linear quiver A_n, and with the
expected fixture files.  Walks are tuples of ``(arrow, inverse)`` pairs.
"""

from __future__ import annotations

from itertools import combinations


class Quiver:
    def __init__(self, vertices, arrows, relations):
        self.vertices = tuple(vertices)
        self.arrows = tuple(tuple(a) for a in arrows)
        self.relations = frozenset(tuple(r) for r in relations)
        self.order = {a[0]: i for i, a in enumerate(self.arrows)}
        self.source = {a[0]: a[1] for a in self.arrows}
        self.target = {a[0]: a[2] for a in self.arrows}
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for aid, s, t in self.arrows:
            self.out[s].append(aid)
            self.inc[t].append(aid)
        self.max_rel = max((len(r) for r in self.relations), default=0)

    def key(self):
        """Comparable content: vertices, arrows and the relation set."""
        return (self.vertices, self.arrows, self.relations)

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def ends_in_ideal(self, word) -> bool:
        """True iff some relation is a suffix of ``word``."""
        return any(
            tuple(word[-n:]) in self.relations
            for n in range(2, min(self.max_rel, len(word)) + 1)
        )

    def pair_in_ideal(self, a: str, b: str) -> bool:
        return (a, b) in self.relations


def read_dsl(text: str) -> Quiver:
    """Minimal reader of the quiver DSL (comments, vertices, arrows, relations)."""
    vertices, arrows, relations = [], [], []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line == "quiver":
            continue
        if line.startswith("vertices:"):
            vertices = line.split(":", 1)[1].split()
        elif line in ("arrows:", "relations:"):
            section = line[:-1]
        elif section == "arrows":
            aid, ends = line.split(":", 1)
            s, t = ends.split("->")
            arrows.append((aid.strip(), s.strip(), t.strip()))
        elif section == "relations":
            relations.append(tuple(line.split()))
    return Quiver(vertices, arrows, relations)


def write_dsl(q: Quiver) -> str:
    lines = ["quiver", "vertices: " + " ".join(q.vertices), "arrows:"]
    lines += [f"  {a}: {s} -> {t}" for a, s, t in q.arrows]
    if q.relations:
        lines.append("relations:")
        lines += ["  " + " ".join(r) for r in sorted(q.relations)]
    return "\n".join(lines) + "\n"


def linear_quiver(n: int) -> Quiver:
    """A_n: vertices 0..n, arrows x_i: i -> i+1, no relations."""
    return Quiver(
        [str(i) for i in range(n + 1)],
        [(f"x{i}", str(i), str(i + 1)) for i in range(n)],
        [],
    )


def linear_dim(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def linear_string_count(n: int, k: int) -> int:
    return (n + 1) + sum(n + 1 - length for length in range(1, min(k, n) + 1))


# ---------------------------------------------------------------------------
# Paths


def count_paths(q: Quiver, limit: int = 10_000_000) -> int:
    """Number of paths outside the ideal, trivial ones included."""
    total = 0
    stack = [(v, ()) for v in q.vertices]
    while stack:
        v, word = stack.pop()
        total += 1
        if total > limit:
            raise ValueError("path count exceeds limit: infinite-dimensional?")
        for a in q.out[v]:
            nxt = word[-q.max_rel :] + (a,) if q.max_rel else ()
            if not q.ends_in_ideal(nxt):
                stack.append((q.target[a], nxt))
    return total


def paths_between(q: Quiver, frm: str, to: str) -> int:
    total = 0
    stack = [(frm, ())]
    while stack:
        v, word = stack.pop()
        total += v == to
        for a in q.out[v]:
            nxt = word[-q.max_rel :] + (a,) if q.max_rel else ()
            if not q.ends_in_ideal(nxt):
                stack.append((q.target[a], nxt))
    return total


def _maximal_run(q: Quiver, first: str) -> list[str]:
    run = [first]
    while True:
        for b in q.out[q.target[run[-1]]]:
            if not q.ends_in_ideal(run[-q.max_rel :] + [b] if q.max_rel else [b]):
                run.append(b)
                break
        else:
            return run


def projective_string(q: Quiver, v: str) -> tuple:
    """Letters of the projective at ``v``: the second branch inverted, then the first."""
    branches = [_maximal_run(q, a) for a in q.out[v]]
    if not branches:
        return ("e", v)
    letters = tuple((a, False) for a in branches[0])
    if len(branches) > 1:
        letters = tuple((a, True) for a in reversed(branches[1])) + letters
    return letters


def arrow_module_string(q: Quiver, alpha: str) -> tuple:
    run = _maximal_run(q, alpha)[1:]
    if not run:
        return ("e", q.target[alpha])
    return tuple((a, False) for a in run)


def format_letters(w: tuple) -> str:
    if w and w[0] == "e":
        return f"e({w[1]})"
    return " ".join(a + "^-1" if inv else a for a, inv in w)


def parse_letters(text: str) -> tuple:
    text = text.strip()
    if text.startswith("cycle(") and text.endswith(")"):
        text = text[len("cycle(") : -1]
    text = text.strip()
    if text.startswith("e(") and text.endswith(")"):
        return ("e", text[2:-1].strip())
    return tuple(
        (tok[:-3], True) if tok.endswith("^-1") else (tok, False)
        for tok in text.replace("·", " ").split()
    )


# ---------------------------------------------------------------------------
# Axioms


def is_string_pair(q: Quiver) -> bool:
    if any(len(q.out[v]) > 2 or len(q.inc[v]) > 2 for v in q.vertices):
        return False
    for aid, s, t in q.arrows:
        if sum(not q.pair_in_ideal(aid, b) for b in q.out[t]) > 1:
            return False
        if sum(not q.pair_in_ideal(g, aid) for g in q.inc[s]) > 1:
            return False
    return True


def is_sag(q: Quiver) -> bool:
    return is_string_pair(q) and all(len(r) == 2 for r in q.relations)


# ---------------------------------------------------------------------------
# Strings and bands


def _inverse(w: tuple) -> tuple:
    return tuple((a, not inv) for a, inv in reversed(w))


def string_class(w: tuple) -> tuple:
    if w and w[0] == "e":
        return w
    return min(w, _inverse(w))


def _run_ok(q: Quiver, w: tuple) -> bool:
    """True iff the final same-direction run of ``w`` avoids the ideal."""
    inv = w[-1][1]
    i = len(w)
    while i > 0 and w[i - 1][1] == inv and len(w) - i < q.max_rel:
        i -= 1
    arrows = [a for a, _ in w[i:]]
    if inv:
        # an inverse run reads the path backwards; its new letter starts it
        arrows.reverse()
        return not any(
            tuple(arrows[:n]) in q.relations for n in range(2, len(arrows) + 1)
        )
    return not q.ends_in_ideal(arrows)


def _letter_ends(q: Quiver, letter) -> tuple[str, str]:
    a, inv = letter
    return (q.target[a], q.source[a]) if inv else (q.source[a], q.target[a])


def strings(q: Quiver, max_letters: int) -> set:
    """Classes (up to inversion) of strings with at most ``max_letters`` letters."""
    found = {("e", v) for v in q.vertices}
    stack = []
    for aid, _, _ in q.arrows:
        for letter in ((aid, False), (aid, True)):
            stack.append(((letter,), _letter_ends(q, letter)[1]))
    while stack:
        w, end = stack.pop()
        found.add(string_class(w))
        if len(w) == max_letters:
            continue
        last = w[-1]
        for letter in [(a, False) for a in q.out[end]] + [(a, True) for a in q.inc[end]]:
            if letter == (last[0], not last[1]):
                continue
            nxt = w + (letter,)
            if _run_ok(q, nxt):
                stack.append((nxt, _letter_ends(q, letter)[1]))
    return found


def is_string(q: Quiver, w: tuple) -> bool:
    if w and w[0] == "e":
        return w[1] in q.out
    for i, letter in enumerate(w):
        if letter[0] not in q.source:
            return False
        if i and (
            _letter_ends(q, w[i - 1])[1] != _letter_ends(q, letter)[0]
            or letter == (w[i - 1][0], not w[i - 1][1])
            or not _run_ok(q, w[: i + 1])
        ):
            return False
    return bool(w)


def is_band(q: Quiver, w: tuple) -> bool:
    """A closed, primitive walk all of whose powers are strings."""
    if not w or w[0] == "e" or _letter_ends(q, w[-1])[1] != _letter_ends(q, w[0])[0]:
        return False
    n = len(w)
    if any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n)):
        return False
    return is_string(q, w * (q.max_rel + 2))


# ---------------------------------------------------------------------------
# Forbidden cycles and the perfect index


def _simple_relation_cycles(q: Quiver):
    succ = {a: [b for b in q.out[t] if q.pair_in_ideal(a, b)] for a, _, t in q.arrows}
    for start, _, _ in q.arrows:
        rank = q.order[start]
        stack = [(start, (start,))]
        while stack:
            a, path = stack.pop()
            for b in succ[a]:
                if b == start:
                    yield path
                elif q.order[b] > rank and b not in path:
                    stack.append((b, path + (b,)))


def forbidden_cycles(q: Quiver) -> set[tuple[str, ...]]:
    """Cycles of arrows, each rotated to start at its first-declared arrow,
    whose consecutive products lie in the ideal and whose vertices are
    distinct and joined by no arrow other than between cyclic neighbours."""
    out = set()
    for cyc in _simple_relation_cycles(q):
        verts = [q.source[a] for a in cyc]
        n = len(verts)
        if len(set(verts)) != n:
            continue
        pos = {v: i for i, v in enumerate(verts)}
        chord = any(
            s in pos and t in pos and s != t
            and (pos[t] - pos[s]) % n != 1 and (pos[s] - pos[t]) % n != 1
            for _, s, t in q.arrows
        )
        if not chord:
            out.add(cyc)
    return out


def is_perfect(q: Quiver, cyc: tuple[str, ...]) -> bool:
    members = set(cyc)
    for i, leaving in enumerate(cyc):
        v = q.source[leaving]
        entering = cyc[i - 1]
        if any(g not in members and q.pair_in_ideal(g, leaving) for g in q.inc[v]):
            return False
        if any(b not in members and q.pair_in_ideal(entering, b) for b in q.out[v]):
            return False
    return True


def perfect_index(q: Quiver) -> frozenset[str]:
    return frozenset(a for c in forbidden_cycles(q) if is_perfect(q, c) for a in c)


def subsets(arrows) -> list[tuple[str, ...]]:
    items = sorted(arrows)
    return [s for n in range(len(items) + 1) for s in combinations(items, n)]
