"""Strings and bands as reduced walks over a bound quiver.

A walk is a sequence of letters, each an arrow traversed forward or
backward.  A string is a reduced walk whose maximal same-direction runs
avoid the ideal; a band is a primitive cyclic string all of whose powers
remain strings.  Equivalence is inversion for strings, rotation plus
inversion for bands.

The strings are the relation-free paths of the double quiver W, which has
a letter per arrow and direction and takes the relations, their inverses
and the backtracks as its relations.  So one graph, W's product graph with
integer nodes, serves both: enumeration walks its paths, and a band exists
iff it has a cycle.  Every letter of W heads a backtrack relation, so on a
quadratic quiver, one whose relations all have length 2, the graph is W's
letter graph, stepped from the quiver's relation partners with no W built;
any other quiver numbers the product nodes of W.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .classify import classify
from .core import Arrow, BoundQuiver, Frozen, _per_quiver, require_finite, word_in_ideal
from .errors import NotStringPair, UnknownArrow


class Letter(NamedTuple):
    arrow: str
    inv: bool

    def inverse(self) -> "Letter":
        return Letter(self.arrow, not self.inv)


def letter_source(bq: BoundQuiver, letter: Letter) -> str:
    a = bq.arrow_by_id[letter.arrow]
    return a.target if letter.inv else a.source


def letter_target(bq: BoundQuiver, letter: Letter) -> str:
    a = bq.arrow_by_id[letter.arrow]
    return a.source if letter.inv else a.target


class Walk(Frozen):
    __slots__ = _fields = ("letters", "anchor")

    def __init__(self, letters: tuple[Letter, ...], anchor: str | None = None):
        if not letters and anchor is None:
            raise ValueError("trivial walk requires an anchor vertex")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "anchor", anchor)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def source(self, bq: BoundQuiver) -> str:
        if self.is_trivial:
            assert self.anchor is not None
            return self.anchor
        return letter_source(bq, self.letters[0])

    def target(self, bq: BoundQuiver) -> str:
        if self.is_trivial:
            assert self.anchor is not None
            return self.anchor
        return letter_target(bq, self.letters[-1])

    def inverse(self) -> "Walk":
        if self.is_trivial:
            return self
        return Walk(tuple(l.inverse() for l in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


class CyclicWalk(Frozen):
    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...]):
        if not letters:
            raise ValueError("cyclic walk must be nonempty")
        object.__setattr__(self, "letters", letters)

    def inverse(self) -> "CyclicWalk":
        return CyclicWalk(tuple(l.inverse() for l in reversed(self.letters)))

    def rotate(self, t: int) -> "CyclicWalk":
        t %= len(self.letters)
        return CyclicWalk(self.letters[t:] + self.letters[:t])

    def __len__(self) -> int:
        return len(self.letters)


def _require_string_pair(bq: BoundQuiver) -> None:
    c = classify(bq)
    if not c.is_string:
        # the (S1) and (S2) witnesses; relation length is not a string-pair axiom
        raise NotStringPair(tuple(v for v in c.violations if v[0] != "relation-length"))


def string_problems(bq: BoundQuiver, w: Walk) -> list[str]:
    """Diagnostics for why ``w`` fails to be a string; empty means valid."""
    return _walk_problems(bq, w, len(w.letters))


def _walk_problems(bq: BoundQuiver, w: Walk, period: int) -> list[str]:
    """:func:`string_problems` of ``w``, with each position taken mod ``period``."""
    _require_known_arrows(bq, w.letters)
    problems: list[str] = []
    if w.is_trivial:
        if w.anchor not in bq.vertex_index:
            problems.append(f"anchor {w.anchor!r} is not a vertex")
        return problems
    letters = w.letters
    for i in range(len(letters) - 1):
        if letter_target(bq, letters[i]) != letter_source(bq, letters[i + 1]):
            problems.append(
                f"letters {i % period} and {(i + 1) % period} do not connect: "
                f"{letter_target(bq, letters[i])} != {letter_source(bq, letters[i + 1])}"
            )
        if letters[i + 1] == letters[i].inverse():
            problems.append(f"backtrack at position {i % period}: letter followed by its inverse")
    start = 0
    for inv, run in groupby(letters, key=lambda l: l.inv):
        arrows = [l.arrow for l in run]
        stop = start + len(arrows)
        word = tuple(reversed(arrows) if inv else arrows)  # the run read as a path
        if relation := word_in_ideal(bq, word):
            direction = "inverse" if inv else "forward"
            problems.append(
                f"{direction} run at positions {start % period}..{(stop - 1) % period} "
                "lies in the ideal: " + "".join(relation)
            )
        start = stop
    return problems


def _require_known_arrows(bq: BoundQuiver, letters: tuple[Letter, ...]) -> None:
    for l in letters:
        if l.arrow not in bq.arrow_by_id:
            raise UnknownArrow(f"unknown arrow {l.arrow!r}")


def validate_string(bq: BoundQuiver, w: Walk) -> bool:
    _require_string_pair(bq)
    return not string_problems(bq, w)


def band_problems(bq: BoundQuiver, cw: CyclicWalk) -> list[str]:
    """Diagnostics for why ``cw`` fails to be a band; empty means valid.

    The power below, of two more copies than the longest relation fills,
    holds every factor of every power of ``cw`` that a relation could be,
    and every wrap-around pair: it is a string iff all powers are.  Each
    problem is reported once, at its position in ``cw``."""
    reps = max(map(len, bq.relations), default=0) // len(cw) + 2
    problems = list(dict.fromkeys(_walk_problems(bq, Walk(cw.letters * reps), len(cw))))
    if _primitive_root(cw.letters) != cw.letters:
        problems.append("cyclic walk is a proper power of a shorter walk")
    return problems


def validate_band(bq: BoundQuiver, cw: CyclicWalk) -> bool:
    _require_string_pair(bq)
    return not band_problems(bq, cw)


# ---------------------------------------------------------------------------
# Canonical forms


def _walk_key(bq: BoundQuiver, letters: tuple[Letter, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((bq.arrow_index[l.arrow], int(l.inv)) for l in letters)


def canonical_string(bq: BoundQuiver, w: Walk) -> Walk:
    """Representative of the inversion class: lexicographic minimum of w, w^-1."""
    _require_known_arrows(bq, w.letters)
    inv = w.inverse()  # a trivial walk is its own inverse
    return inv if _walk_key(bq, inv.letters) < _walk_key(bq, w.letters) else w


def canonical_band(bq: BoundQuiver, cw: CyclicWalk) -> CyclicWalk:
    """Minimum over all rotations of both orientations."""
    _require_known_arrows(bq, cw.letters)
    return min(
        (orient.rotate(t) for orient in (cw, cw.inverse()) for t in range(len(cw))),
        key=lambda rot: _walk_key(bq, rot.letters),
    )


# ---------------------------------------------------------------------------
# W's letter graph
#
# The paths of W's product graph from the node after a single letter spell
# the nontrivial strings.  A relation lies inside one run, so each node
# after a change of direction is one of these run starts.


@_per_quiver
def _double(bq: BoundQuiver) -> BoundQuiver:
    """The double quiver W, built once per quiver: letter ``2*i`` runs along
    arrow ``i`` and ``2*i + 1`` against it, so ``k ^ 1`` inverts letter
    ``k``, and every forward letter is declared before every inverse one,
    the order in which ``find_band`` breaks ties.  Its relations are the
    relations, their inverses and the backtracks, so its relation-free
    paths are the nontrivial strings.  Only a quiver with a relation of
    length 3 or more builds it, and :func:`_letter_graph` numbers its
    product nodes; a quadratic quiver's letter graph needs no W."""
    idx = bq.arrow_index
    letters = [Arrow(2 * i, a.source, a.target) for i, a in enumerate(bq.arrows)]
    letters += [Arrow(2 * i + 1, a.target, a.source) for i, a in enumerate(bq.arrows)]
    rels = [tuple([2 * idx[x] for x in r]) for r in bq.relations]
    rels += [tuple([k + 1 for k in reversed(r)]) for r in rels]
    rels += [(k, k ^ 1) for k in range(2 * len(bq.arrows))]
    # the words compose, and they are factor-minimal since the relations are
    return BoundQuiver(bq.vertices, tuple(letters), tuple(rels))


class _LetterGraph(NamedTuple):
    """W's product graph on integer nodes, less its ``(v, 0)`` roots.  Node
    ``k`` below twice the number of arrows is the run start of letter
    ``k``, the node its single letter reaches."""

    letters: list[int]  # the letter id that enters each node
    succ: list[list[int]]  # each node's successors, in letter-id order


@_per_quiver
def _letter_graph(bq: BoundQuiver) -> _LetterGraph:
    """W's letter graph, built once per quiver.  Every letter of W heads a
    backtrack relation, so on a quadratic quiver W's product node is the
    letter that entered it, and A's relation partners give its successors:
    each letter leaving its end but its inverse and, within one run, the
    partners that would close a relation with it.  Any other quiver numbers
    the product nodes of :func:`_double`, the run starts first."""
    n = 2 * len(bq.arrows)
    if bq._is_quadratic:
        # the letters leaving each vertex, in letter-id order
        leaving: dict[str, list[int]] = {v: [] for v in bq.vertices}
        for i, a in enumerate(bq.arrows):
            leaving[a.source].append(2 * i)
            leaving[a.target].append(2 * i + 1)
        succ: list = [None] * n
        for out in leaving.values():
            for k in out:  # k ^ 1 ends where k leaves, and k is its backtrack
                succ[k ^ 1] = [m for m in out if m != k]
        # a relation x y bars forward y after forward x, and inverse x after
        # inverse y; both leave the vertex where x ends and y starts
        idx = bq.arrow_index
        after, before = bq._relation_partners
        for x, ys in after.items():
            for y in ys:
                succ[2 * idx[x]].remove(2 * idx[y])
        for y, xs in before.items():
            for x in xs:
                succ[2 * idx[y] + 1].remove(2 * idx[x] + 1)
        return _LetterGraph(list(range(n)), succ)
    g = _double(bq)._product_graph
    nodes: list = [None] * n  # the product node of each graph node
    for root in range(len(bq.vertices)):
        for e in g.out[root]:
            nodes[g.arrow[e]] = g.to[e]
    ids = {node: i for i, node in enumerate(nodes)}
    letters, succ = list(range(n)), []
    for node in nodes:  # the list grows while it is read
        out = []
        for k, nxt in sorted([(g.arrow[e], g.to[e]) for e in g.out[node]]):
            if nxt not in ids:
                ids[nxt] = len(nodes)
                nodes.append(nxt)
                letters.append(k)
            out.append(ids[nxt])
        succ.append(out)
    return _LetterGraph(letters, succ)


def _letter_table(bq: BoundQuiver) -> list[Letter]:
    """The letter of each letter id."""
    return [Letter(a.id, inv) for a in bq.arrows for inv in (False, True)]


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_strings(bq: BoundQuiver, max_letters: int) -> list[Walk]:
    """All equivalence classes of strings with at most ``max_letters`` letters.

    Deterministic order: trivial strings in vertex order, then nontrivial
    canonical forms sorted by (length, letter keys).  W's letter graph is
    walked level by level.  Each level holds every nontrivial string of one
    length with its letters, in key order; the next extends each by its
    node's successors in letter-id order, so it is in key order too.  A
    string is emitted when its key is below its inverse's.  Its first
    letter id and the inverse of its last decide that, and only when they
    are equal are the full keys compared; a string never equals its
    inverse, which would need a backtrack in the middle.  So the last level
    keeps only the strings whose first letter id is at most the inverse of
    their last.
    """
    _require_string_pair(bq)
    letters, succ = _letter_graph(bq)
    table = _letter_table(bq)
    one = [(table[k],) for k in letters]  # each node's letter, as a word
    strings = [Walk((), v) for v in bq.vertices]
    # a level as parallel lists: each string's letters, first letter id and node
    n = len(table)
    words, firsts, nodes = one[:n], range(n), range(n)
    length = 1
    while words and length <= max_letters:
        extend = length < max_letters
        last = length + 1 == max_letters  # the next level is the last
        next_words: list[tuple[Letter, ...]] = []
        next_firsts: list[int] = []
        next_nodes: list[int] = []
        for word, first, node in zip(words, firsts, nodes):
            inv_last = letters[node] ^ 1
            if first < inv_last or (
                first == inv_last
                and _walk_key(bq, word) < _walk_key(bq, Walk(word).inverse().letters)
            ):
                strings.append(Walk(word))
            if extend:
                for m in succ[node]:
                    if last and first > letters[m] ^ 1:
                        continue  # it would not be emitted
                    next_words.append(word + one[m])
                    next_firsts.append(first)
                    next_nodes.append(m)
        words, firsts, nodes = next_words, next_firsts, next_nodes
        length += 1
    return strings


# ---------------------------------------------------------------------------
# Band existence and representation type
#
# A band's powers are all strings, so it is a cycle of the letter graph,
# and conversely.  One-direction cycles are ruled out by the
# finite-dimensionality precondition, so every cycle changes direction and
# passes through a run start.


def _find_product_cycle(bq: BoundQuiver, cap: int) -> list[Letter] | None:
    """Shortest letter cycle of at most ``cap`` letters through a run start,
    the earliest one on ties, or None.  Each BFS stops after ``cap`` levels,
    and a cycle found lowers the cap below its length.  It steps each
    node's forward letters before its inverse ones, in W's declaration
    order, which decides the ties."""
    letters, succ = _letter_graph(bq)
    order = [sorted(s, key=lambda m: letters[m] & 1) for s in succ]
    best: list[int] | None = None
    for init in range(2 * len(bq.arrows)):
        parent: dict[int, int] = {}  # each reached node's predecessor
        frontier, hit, level = [init], None, 0
        while frontier and hit is None and level < cap:
            nxt: list[int] = []
            for node in frontier:
                for m in order[node]:
                    if m == init:
                        hit = node
                        break
                    if m not in parent:
                        parent[m] = node
                        nxt.append(m)
                if hit is not None:
                    break
            frontier, level = nxt, level + 1
        if hit is None:
            continue
        cycle = []
        while hit != init:
            cycle.append(letters[hit])
            hit = parent[hit]
        best = [init, *reversed(cycle)]
        cap = len(best) - 1
    return None if best is None else [_letter_table(bq)[k] for k in best]


def _primitive_root(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The shortest prefix of which ``letters`` is a power; at d = n the loop returns."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return letters[:d]


@_per_quiver
def _band_cycle(bq: BoundQuiver) -> tuple[int, ...] | None:
    """Letter ids around the first cycle of the letter graph that an
    iterative depth-first search from each run start meets, or None."""
    _require_string_pair(bq)
    require_finite(bq)
    letters, succ = _letter_graph(bq)
    seen = [0] * len(succ)  # 0 unseen, 1 on the stack, 2 finished
    for root in range(2 * len(bq.arrows)):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, pending = stack[-1]
            for m in pending:
                if seen[m] == 1:
                    i = next(i for i, entry in enumerate(stack) if entry[0] == m)
                    return tuple(letters[x] for x, _ in stack[i:])
                if not seen[m]:
                    seen[m] = 1
                    stack.append((m, iter(succ[m])))
                    break
            else:
                seen[node] = 2
                stack.pop()
    return None


def band_exists(bq: BoundQuiver) -> bool:
    """True iff W's letter graph has a cycle."""
    return _band_cycle(bq) is not None


def find_band(bq: BoundQuiver) -> CyclicWalk | None:
    """A shortest-cycle band witness, or None when no band exists.  The
    letter graph's first cycle passes through a run start, so it caps the search.
    It is primitive: were it w^m with first letter w₀, the suffix w·w₀ of
    w^m·w₀ ends in the same one-letter state, so w closes a shorter cycle."""
    cycle = _band_cycle(bq)
    if cycle is None:
        return None
    cw = CyclicWalk(tuple(_find_product_cycle(bq, len(cycle))))
    problems = band_problems(bq, cw)
    assert not problems, f"detector produced an invalid band: {problems}"
    return canonical_band(bq, cw)


def representation_type(bq: BoundQuiver) -> str:
    """'infinite' iff a band exists, else 'finite'."""
    return "infinite" if band_exists(bq) else "finite"
