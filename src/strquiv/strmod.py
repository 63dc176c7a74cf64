"""String-module combinatorics: projective strings, arrow-module strings,
and hom-space dimensions.

A factor substring is a positioned subwalk whose boundary letters point out
of it (preceded by an inverse letter or nothing, followed by a forward
letter or nothing); an image substring is the dual.  Pairs of a factor of
one string and an equal image of the other index a basis of the hom space
between their string modules (Crawley-Boevey).  ``hom_dim`` counts those
pairs along the diagonals of the two walks, visiting only the letter pairs
that agree, and matches the trivial pairs through one count of vertices.
So it takes time |s2| + |s1| plus the number of agreeing letter pairs, and
it stores no occurrence.
"""

from __future__ import annotations

from collections import Counter

from .core import BoundQuiver, _node_after, require_finite
from .errors import InvalidWalk, UnknownArrow, UnknownVertex
from .walks import (
    Letter,
    Walk,
    _require_string_pair,
    letter_target,
    string_problems,
)


def _maximal_run_from(bq: BoundQuiver, node: int) -> list[str]:
    """Arrows of the greedy relation-free forward extension from the
    product node ``node``.  Under (S2)_R at most one arrow continues a run
    outside the ideal, so the run is maximal."""
    g = bq._product_graph
    arrows: list[str] = []
    while edges := g.out[node]:
        arrows.append(g.arrow[edges[0]])
        node = g.to[edges[0]]
    return arrows


def projective_string(bq: BoundQuiver, v: str) -> Walk:
    """The string of the indecomposable projective at ``v``.

    The two maximal relation-free paths out of ``v`` (one per out-arrow,
    in declaration order), the second inverted and prepended to the first.
    """
    _require_string_pair(bq)
    require_finite(bq)
    if v not in bq.vertex_index:
        raise UnknownVertex(f"unknown vertex {v!r}")
    g = bq._product_graph
    branches = [[g.arrow[e]] + _maximal_run_from(bq, g.to[e])
                for e in g.out[bq.vertex_index[v]]]
    if not branches:
        return Walk((), v)
    letters = tuple(Letter(x, False) for x in branches[0])
    if len(branches) > 1:
        letters = tuple(Letter(x, True) for x in reversed(branches[1])) + letters
    return Walk(letters)


def arrow_module_string(bq: BoundQuiver, alpha: str) -> Walk:
    """The string of the arrow module: the maximal relation-free
    continuation of ``alpha``, without ``alpha`` itself."""
    _require_string_pair(bq)
    require_finite(bq)
    if alpha not in bq.arrow_by_id:
        raise UnknownArrow(f"unknown arrow {alpha!r}")
    arrows = _maximal_run_from(bq, _node_after(bq, alpha))
    if not arrows:
        return Walk((), bq.arrow_by_id[alpha].target)
    return Walk(tuple(Letter(x, False) for x in arrows))


def _boundaries(w: Walk, inv: bool) -> tuple[list[bool], list[bool]]:
    """For each vertex position p = 0..len(w): may an occurrence start at
    p, and may one end at p.  Letters p..q-1 form an occurrence when one
    may start at p and end at q; p == q gives a trivial one.  A factor
    (``inv``) starts at 0 or after an inverse letter and ends at len(w) or
    before a forward letter; an image the other way round."""
    letters, n = w.letters, len(w.letters)
    starts = [p == 0 or letters[p - 1].inv == inv for p in range(n + 1)]
    ends = [p == n or letters[p].inv != inv for p in range(n + 1)]
    return starts, ends


def _trivial_vertices(bq: BoundQuiver, w: Walk, inv: bool) -> list[str]:
    """The vertex of each trivial occurrence in ``w``."""
    starts, ends = _boundaries(w, inv)
    return [
        w.source(bq) if p == 0 else letter_target(bq, w.letters[p - 1])
        for p in range(len(w) + 1)
        if starts[p] and ends[p]
    ]


def _letter_matches(s2: Walk, s1: Walk) -> int:
    """Pairs of a nontrivial factor of ``s2`` and an image of ``s1`` with
    the same letters.  Such a pair lies on one diagonal j - i of the two
    walks; along it, each position where both may end adds the positions
    since the last disagreeing letter where both may start.  Only the
    agreeing letter pairs are visited, each diagonal's in order of i."""
    a, b = s2.letters, s1.letters
    f_start, f_end = _boundaries(s2, True)
    i_start, i_end = _boundaries(s1, False)
    at: dict[Letter, list[int]] = {}
    for j, letter in enumerate(b):
        at.setdefault(letter, []).append(j)
    runs: dict[int, tuple[int, int]] = {}  # diagonal -> (last i visited, starts)
    total = 0
    for i, letter in enumerate(a):
        for j in at.get(letter, ()):
            last, starts = runs.get(j - i, (-1, 0))
            starts = (starts if last == i - 1 else 0) + (f_start[i] and i_start[j])
            runs[j - i] = i, starts
            if f_end[i + 1] and i_end[j + 1]:
                total += starts
    return total


def hom_dim(bq: BoundQuiver, s2: Walk, s1: Walk) -> int:
    """Dimension of Hom(M(s2), M(s1)): admissible (factor of s2, image of
    s1, identification) triples.  A trivial pair admits one identification,
    by vertex.  A nontrivial pair is counted once for the direct
    identification and once for the inverse when each matches; the inverse
    of an image of s1 is an image of s1's inverse."""
    _require_string_pair(bq)
    for w in (s2, s1):
        problems = string_problems(bq, w)
        if problems:
            raise InvalidWalk("; ".join(problems))
    images = Counter(_trivial_vertices(bq, s1, False))
    trivial = sum(images[v] for v in _trivial_vertices(bq, s2, True))
    return trivial + _letter_matches(s2, s1) + _letter_matches(s2, s1.inverse())
