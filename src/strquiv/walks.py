"""Strings and bands as reduced walks over a bound quiver.

A walk is a sequence of letters, each an arrow traversed forward or
backward.  A string is a reduced walk whose maximal same-direction runs
avoid the ideal; a band is a primitive cyclic string all of whose powers
remain strings.  Equivalence is inversion for strings, rotation plus
inversion for bands.

The strings are the relation-free paths of the double quiver, which has a
letter per arrow and direction and takes the relations, their inverses and
the backtracks as its relations.  So one product graph serves both:
enumeration walks its paths, and a band exists iff it has a relation-free
cycle.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .classify import classify
from .core import (Arrow, BoundQuiver, Frozen, _per_quiver, _product_edges, require_finite,
                   word_in_ideal)
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
# The double quiver and its run starts
#
# The paths of its product graph from the node after a single letter spell
# the nontrivial strings.  A relation lies inside one run, so each node
# after a change of direction is one of these run starts.


@_per_quiver
def _double(bq: BoundQuiver) -> BoundQuiver:
    """The double quiver, built once per quiver: letter ``2*i`` runs along
    arrow ``i`` and ``2*i + 1`` against it, so ``k ^ 1`` inverts letter
    ``k``, and every forward letter is declared before every inverse one,
    the order in which ``find_band`` breaks ties.  Its relations are the
    relations, their inverses and the backtracks, so its relation-free
    paths are the nontrivial strings."""
    idx = bq.arrow_index
    letters = [Arrow(2 * i, a.source, a.target) for i, a in enumerate(bq.arrows)]
    letters += [Arrow(2 * i + 1, a.target, a.source) for i, a in enumerate(bq.arrows)]
    rels = [tuple([2 * idx[x] for x in r]) for r in bq.relations]
    rels += [tuple([k + 1 for k in reversed(r)]) for r in rels]
    rels += [(k, k ^ 1) for k in range(2 * len(bq.arrows))]
    # the words compose, and they are factor-minimal since the relations are
    return BoundQuiver(bq.vertices, tuple(letters), tuple(rels))


def _letter_table(bq: BoundQuiver) -> list[Letter]:
    """The letter of each double-quiver letter id."""
    return [Letter(a.id, inv) for a in bq.arrows for inv in (False, True)]


def _run_starts(bq: BoundQuiver) -> list[tuple[int, tuple[str, int]]]:
    """Each letter id with the product node its single letter reaches, in
    letter-key order."""
    w = _double(bq)
    return sorted(edge for v in w.vertices for edge in _product_edges(w, (v, 0)))


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_strings(bq: BoundQuiver, max_letters: int) -> list[Walk]:
    """All equivalence classes of strings with at most ``max_letters`` letters.

    Deterministic order: trivial strings in vertex order, then nontrivial
    canonical forms sorted by (length, letter keys).  The double quiver's
    product graph is walked level by level.  Each level holds every
    nontrivial string of one length with its letters, in key order; the
    next extends each by its node's edges in letter-id order, so it is in
    key order too.  A string is emitted when its key is below its
    inverse's.  Its first letter id and the inverse of its last decide
    that, and only when they are equal are the full keys compared; a string
    never equals its inverse, which would need a backtrack in the middle.
    """
    _require_string_pair(bq)
    w, table = _double(bq), _letter_table(bq)
    # each stepped node's edges in letter-id order: (inverse letter id, letter, next node)
    steps: dict[tuple[str, int], list[tuple[int, tuple[Letter], tuple[str, int]]]] = {}
    strings = [Walk((), v) for v in bq.vertices]
    # entries: (letters, first letter id, inverse id of the last letter, node)
    level = [((table[k],), k, k ^ 1, node) for k, node in _run_starts(bq)]
    length = 1
    while level and length <= max_letters:
        for letters, first, inv_last, _ in level:
            if first < inv_last or (
                first == inv_last
                and _walk_key(bq, letters) < _walk_key(bq, Walk(letters).inverse().letters)
            ):
                strings.append(Walk(letters))
        if length == max_letters:
            break
        nxt = []
        for letters, first, _, node in level:
            edges = steps.get(node)
            if edges is None:
                edges = steps[node] = [
                    (k ^ 1, (table[k],), n) for k, n in sorted(_product_edges(w, node))
                ]
            nxt += [(letters + one, first, inv, n) for inv, one, n in edges]
        level, length = nxt, length + 1
    return strings


# ---------------------------------------------------------------------------
# Band existence and representation type
#
# A band's powers are all strings, so it is a cycle of the product graph,
# and conversely.  One-direction cycles are ruled out by the
# finite-dimensionality precondition, so every cycle changes direction and
# passes through a run start.


def _find_product_cycle(bq: BoundQuiver, cap: int) -> list[Letter] | None:
    """Shortest letter cycle of at most ``cap`` letters through a run start,
    the earliest one on ties, or None.  Each BFS stops after ``cap`` levels,
    and a cycle found lowers the cap below its length."""
    w = _double(bq)
    best: list[int] | None = None
    for first, init in _run_starts(bq):
        # each reached node with its predecessor and the letter between them
        parent: dict[tuple[str, int], tuple[tuple[str, int], int]] = {}
        frontier, hit, level = [init], None, 0
        while frontier and hit is None and level < cap:
            nxt: list[tuple[str, int]] = []
            for node in frontier:
                for k, succ in _product_edges(w, node):
                    if succ == init:
                        hit = node
                        break
                    if succ not in parent:
                        parent[succ] = (node, k)
                        nxt.append(succ)
                if hit is not None:
                    break
            frontier, level = nxt, level + 1
        if hit is None:
            continue
        cycle = []
        while hit != init:
            hit, k = parent[hit]
            cycle.append(k)
        best = [first, *reversed(cycle)]
        cap = len(best) - 1
    return None if best is None else [_letter_table(bq)[k] for k in best]


def _primitive_root(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The shortest prefix of which ``letters`` is a power; at d = n the loop returns."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return letters[:d]


def _band_cycle(bq: BoundQuiver) -> tuple[int, ...] | None:
    """Letter ids of the double quiver's first relation-free cycle, or None."""
    _require_string_pair(bq)
    require_finite(bq)
    return _double(bq).relation_free_cycle


def band_exists(bq: BoundQuiver) -> bool:
    """True iff the double quiver has a relation-free cycle."""
    return _band_cycle(bq) is not None


def find_band(bq: BoundQuiver) -> CyclicWalk | None:
    """A shortest-cycle band witness, or None when no band exists.  The
    double quiver's cycle passes through a run start, so it caps the search.
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
