"""String-module combinatorics: projective strings, arrow-module strings,
factor/image substrings, and hom-space dimensions.

A factor substring is a positioned subwalk whose boundary letters point out
of it (preceded by an inverse letter or nothing, followed by a forward
letter or nothing); an image substring is the dual.  Pairs of coinciding
factor and image occurrences index a basis of the hom space between the
corresponding string modules, so hom dimensions are counted from tables of
occurrences keyed by their letters.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .core import BoundQuiver, _product_edges, require_finite
from .errors import InvalidWalk, UnknownArrow, UnknownVertex
from .walks import (
    Letter,
    Walk,
    _require_string_pair,
    letter_target,
    string_problems,
)


def _maximal_run_from(bq: BoundQuiver, node: tuple[str, int]) -> list[str]:
    """Arrows of the greedy relation-free forward extension from the
    product node ``node``.  Under (S2)_R at most one arrow continues a run
    outside the ideal, so the run is maximal."""
    arrows: list[str] = []
    while edges := _product_edges(bq, node):
        x, node = edges[0]
        arrows.append(x)
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
    branches = [[x] + _maximal_run_from(bq, node) for x, node in _product_edges(bq, (v, 0))]
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
    a = bq.arrow_by_id[alpha]
    node = next(n for x, n in _product_edges(bq, (a.source, 0)) if x == alpha)
    arrows = _maximal_run_from(bq, node)
    if not arrows:
        return Walk((), a.target)
    return Walk(tuple(Letter(x, False) for x in arrows))


class SubstringOccurrence(NamedTuple):
    """Letters ``start..end`` inclusive; ``start == end + 1`` is the trivial
    occurrence anchored at vertex position ``start`` (0..len(walk))."""

    start: int
    end: int
    kind: str  # "factor" | "image"

    @property
    def is_trivial(self) -> bool:
        return self.start == self.end + 1


def _substrings(w: Walk, kind: str) -> list[SubstringOccurrence]:
    """Each valid start paired with each valid end at or after it.  A factor
    starts at 0 or after an inverse letter and ends at the end of the walk
    or before a forward letter; an image the other way round."""
    inv = kind == "factor"
    letters, n = w.letters, len(w.letters)
    starts = [s for s in range(n + 1) if s == 0 or letters[s - 1].inv == inv]
    ends = [e for e in range(-1, n) if e == n - 1 or letters[e + 1].inv != inv]
    return [SubstringOccurrence(s, e, kind) for s in starts for e in ends if e >= s - 1]


def factor_substrings(w: Walk) -> list[SubstringOccurrence]:
    return _substrings(w, "factor")


def image_substrings(w: Walk) -> list[SubstringOccurrence]:
    return _substrings(w, "image")


def _occ_key(bq: BoundQuiver, w: Walk, occ: SubstringOccurrence) -> str | tuple[Letter, ...]:
    """A trivial occurrence matches by its vertex, a nontrivial one by its letters."""
    if not occ.is_trivial:
        return w.letters[occ.start : occ.end + 1]
    return w.source(bq) if occ.start == 0 else letter_target(bq, w.letters[occ.start - 1])


def _factor_table(bq: BoundQuiver, w: Walk) -> Counter:
    return Counter(_occ_key(bq, w, q) for q in factor_substrings(w))


def _image_table(bq: BoundQuiver, w: Walk) -> Counter:
    """Image occurrences, each nontrivial one counted under its letters and
    under its inverse's, one per identification a factor can match."""
    table: Counter = Counter()
    for p in image_substrings(w):
        key = _occ_key(bq, w, p)
        table[key] += 1
        if not p.is_trivial:
            table[tuple(l.inverse() for l in reversed(key))] += 1
    return table


def _pair_count(factors: Counter, images: Counter) -> int:
    small, large = sorted((factors, images), key=len)
    return sum(n * large[key] for key, n in small.items())


def hom_dim(bq: BoundQuiver, s2: Walk, s1: Walk) -> int:
    """Dimension of Hom(M(s2), M(s1)): admissible (factor of s2, image of
    s1, identification) triples.  Trivial pairs admit one identification;
    nontrivial pairs are counted under both direct and inverse
    identification when both match."""
    _require_string_pair(bq)
    for w in (s2, s1):
        problems = string_problems(bq, w)
        if problems:
            raise InvalidWalk("; ".join(problems))
    return _pair_count(_factor_table(bq, s2), _image_table(bq, s1))

