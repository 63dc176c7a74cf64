"""Arrow-splitting transform: given an index R of left forbidden arrows,
split each member alpha into alpha_L -> new vertex -> alpha_R, rewrite the
relation generators, and (for SAG inputs) verify that the transformed
algebra's dimension matches the endomorphism algebra it presents.

The CM-Auslander construction is the same transform applied to the perfect
index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .classify import classify
from .core import Arrow, BoundQuiver, Frozen, _node_after, _paths_into, require_finite
from .errors import DuplicateId, InvalidWalk, NotLeftForbidden, NotSAG, UnknownArrow
from .forbidden import perfect_index

if TYPE_CHECKING:
    from .walks import CyclicWalk, Walk


class RIndex(NamedTuple):
    arrows: tuple[str, ...]  # sorted by declaration order


class TransformResult(NamedTuple):
    quiver: BoundQuiver
    vertex_map: dict[str, str]  # alpha -> new vertex id
    arrow_map: dict[str, tuple[str, str]]  # alpha -> (alpha_L, alpha_R)


class TransformedAlgebraReport(Frozen):
    """The two sides of the dimension identity and the split algebra they
    compare.  The constructor takes a ready ``result``; a report from
    :func:`verify_endo_dimension` splits the quiver when ``result`` is first
    read, and keeps it."""

    __slots__ = ("_result", "_source", "dim_source_endo", "dim_transformed")
    _fields = ("result", "dim_source_endo", "dim_transformed")

    def __init__(self, result: TransformResult, dim_source_endo: int, dim_transformed: int):
        self._set(result, None, dim_source_endo, dim_transformed)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _pending(cls, bq: BoundQuiver, index: RIndex, dim_source_endo: int,
                 dim_transformed: int) -> TransformedAlgebraReport:
        """A report whose ``result`` is the split of ``bq`` at the checked ``index``."""
        report = cls.__new__(cls)
        report._set(None, (bq, index), dim_source_endo, dim_transformed)
        return report

    @property
    def result(self) -> TransformResult:
        if self._source is not None:
            self._set(_split_quiver(*self._source), None)
        return self._result

    @property
    def dimensions_match(self) -> bool:
        return self.dim_source_endo == self.dim_transformed


def validate_index(bq: BoundQuiver, arrows) -> RIndex:
    arrows = tuple(arrows)
    for x in arrows:
        if x not in bq.arrow_by_id:
            raise UnknownArrow(f"unknown arrow {x!r}")
        if x not in bq._relation_partners[0]:  # heads no length-2 relation
            raise NotLeftForbidden(x)
    return RIndex(tuple(sorted(set(arrows), key=lambda x: bq.arrow_index[x])))


def _fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    suffix = 2
    while candidate in taken:
        candidate = f"{base}{suffix}"
        suffix += 1
    taken.add(candidate)
    return candidate


def _image(arrow_map: dict[str, tuple[str, str]], word: tuple[str, ...]) -> tuple[str, ...]:
    """The image α^× of a word: each split arrow α becomes α_L α_R, and the
    other arrows pass through."""
    return tuple(y for x in word for y in arrow_map.get(x, (x,)))


def _checked(bq: BoundQuiver, index: RIndex) -> RIndex:
    """A hand-built index, which is outside input: no arrow repeated, each
    known and left forbidden, put in declaration order."""
    if len(set(index.arrows)) < len(index.arrows):
        raise DuplicateId(f"index repeats an arrow: {' '.join(index.arrows)}")
    return validate_index(bq, index.arrows)


def r_transform(bq: BoundQuiver, index: RIndex) -> TransformResult:
    return _split_quiver(bq, _checked(bq, index))


def _split_quiver(bq: BoundQuiver, index: RIndex) -> TransformResult:
    """The transform at a checked index, whose arrows are in declaration order."""
    members = set(index.arrows)
    if not members:  # splitting no arrow leaves the quiver as it is
        return TransformResult(bq, {}, {})
    taken = set(bq.vertices) | {a.id for a in bq.arrows}

    vertex_map = {alpha: _fresh_id(f"v_{alpha}", taken) for alpha in index.arrows}
    arrow_map = {
        alpha: (_fresh_id(f"{alpha}_L", taken), _fresh_id(f"{alpha}_R", taken))
        for alpha in index.arrows
    }

    vertices = tuple(bq.vertices) + tuple(vertex_map[a] for a in index.arrows)
    arrows: list[Arrow] = []
    for a in bq.arrows:
        if a.id in members:
            left, right = arrow_map[a.id]
            arrows.append(Arrow(left, a.source, vertex_map[a.id]))
            arrows.append(Arrow(right, vertex_map[a.id], a.target))
        else:
            arrows.append(a)

    # Each generator a_1 ⋯ a_n becomes (a_1)_R a_2^× ⋯ (a_n)_L: its image
    # without the first letter's α_L and the last letter's α_R.  The ids are
    # fresh, and each rewritten generator maps back letter by letter to its
    # source generator, so the relations stay composable and factor-minimal:
    # the plain constructor suffices.
    relations = []
    for rel in bq.relations:
        word = _image(arrow_map, rel)
        relations.append(word[rel[0] in members : len(word) - (rel[-1] in members)])
    quiver = BoundQuiver(vertices, tuple(arrows), tuple(relations))
    return TransformResult(quiver, vertex_map, arrow_map)


def lift_walk(tr: TransformResult, w: Walk | CyclicWalk) -> Walk | CyclicWalk:
    """Rewrite a walk over the source quiver onto the transformed quiver:
    each forward letter becomes its image α^×, so a split α becomes
    α_L·α_R, and each inverse letter the inverse of its image.  The split
    arrows α_L, α_R and vertices v_α are not in the source quiver, so a walk
    naming one is rejected."""
    from .walks import Letter, Walk

    if isinstance(w, Walk) and w.is_trivial:
        if w.anchor not in tr.quiver.vertex_index:
            raise InvalidWalk(f"anchor {w.anchor!r} not in transformed quiver")
        if w.anchor in tr.vertex_map.values():
            raise InvalidWalk(f"anchor {w.anchor!r} is a split vertex")
        return w
    split = {x for image in tr.arrow_map.values() for x in image}
    lifted: list[Letter] = []
    for letter in w.letters:
        if letter.arrow in split:
            raise InvalidWalk(f"letter {letter.arrow!r} is a split arrow")
        if letter.arrow not in tr.arrow_map and letter.arrow not in tr.quiver.arrow_by_id:
            raise InvalidWalk(f"letter {letter.arrow!r} unknown to the transform")
        image = _image(tr.arrow_map, (letter.arrow,))
        lifted.extend(Letter(x, letter.inv) for x in (image[::-1] if letter.inv else image))
    return type(w)(tuple(lifted))


def _require_sag_finite(bq: BoundQuiver) -> None:
    c = classify(bq)
    if not c.is_sag:
        raise NotSAG(c.violations)
    require_finite(bq)


def cma(bq: BoundQuiver) -> TransformResult:
    """Cohen-Macaulay Auslander algebra: the transform at the perfect index."""
    _require_sag_finite(bq)
    return _split_quiver(bq, validate_index(bq, perfect_index(bq).arrows))


def verify_endo_dimension(bq: BoundQuiver, index: RIndex) -> TransformedAlgebraReport:
    """Compare dim End(A ⊕ N), N = ⊕ αA over α in R, with dim A_R, the
    path count of the algebra split at R.  One pass over A's product graph
    counts, at each node, the paths into it from each summand's top: (v, 0)
    for e_v A and the node after β for βA.  Their sum serves both sides.

    End side: these paths are a basis of A ⊕ N.  By the Yoneda lemma each
    counts once in Hom(A, A ⊕ N); as αA ≅ e_t A / Σ γA over the relations
    αγ and A is monomial, it counts once more for each α in R ending at its
    vertex whose every γ kills it.  So the count is pairwise additive in R:
    the paths into a node add over the tops, and the terms 1 + #{α} over R.

    Split side: dim A_R = |Q₀| + Σ_w (1 + [first(w) ∈ R])(1 + [last(w) ∈ R])
    over the nontrivial relation-free paths w of A.  The vertex v_α has one
    arrow in, α_L, and one out, α_R, so a path of A_R is the image of some
    w whose first letter in R may keep only α_R and whose last letter in R
    only α_L; α cut at both ends is e_{v_α}.  The relations of A_R are A's,
    cut the same way, so the image is relation-free iff w is.  A SAG algebra
    is quadratic and each α in R heads a relation, so the node after α
    names α.  The paths from the (v, 0) count each w once and the paths
    from the node after β count each w starting with β once more, which
    gives |Q₀| + Σ_w (1 + [first ∈ R]); adding the count at each node after
    an arrow of R gives the factor 1 + [last ∈ R].  At R = ∅ both sides are
    dim A.

    The report builds the split quiver, ``result``, only when it is read."""
    _require_sag_finite(bq)
    index = _checked(bq, index)
    g = bq._product_graph
    after = bq._relation_partners[0]
    heads = [_node_after(bq, beta) for beta in index.arrows]
    kernels: dict[int, list[list[str]]] = {}  # by the vertex number where β ends
    for beta, node in zip(index.arrows, heads):
        kernels.setdefault(g.vertex[node], []).append(after[beta])
    into = _paths_into(bq, [*range(len(bq.vertices)), *heads])
    dim_source_endo = sum(into)
    dim_transformed = dim_source_endo + sum([into[node] for node in heads])
    if kernels:
        for node, k in enumerate(into):
            for killers in kernels.get(g.vertex[node], ()):
                if all(g.arrow[e] not in killers for e in g.out[node]):
                    dim_source_endo += k
    return TransformedAlgebraReport._pending(bq, index, dim_source_endo, dim_transformed)
