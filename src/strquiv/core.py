"""Bound-quiver data model: vertices, arrows, monomial relations, ideal
membership, path enumeration and algebra dimension.

A path is "in the ideal" iff it contains some relation as a contiguous
factor.  Ideal membership, finiteness and path enumeration all run on the
product of the quiver with a forbidden-factor automaton built from the
relation set, so relations of any length >= 2 are handled uniformly; when
all have length 2, the relation-partner table gives the product's edges.
"""

from __future__ import annotations

from functools import cached_property, wraps
from typing import Callable, Iterable, NamedTuple

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    InfiniteDimensional,
    InvalidPath,
    NonComposableRelation,
    RelationTooShort,
)

# product-graph nodes (vertex, automaton state); only _product_edges steps one
_ProductNode = tuple[str, int]
_ProductEdge = tuple[str, _ProductNode]


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class Frozen:
    """An immutable value with the fields named in ``_fields``: its
    constructor takes them in that order and sets each once, bypassing
    ``__setattr__``.  Values are equal within one class when their fields
    are, print as ``Name(field=value, ...)``, and copy and pickle through
    the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Path(Frozen):
    """A composable sequence of arrow ids; trivial paths carry an anchor vertex."""

    __slots__ = _fields = ("arrows", "anchor")

    def __init__(self, arrows: tuple[str, ...] = (), anchor: str | None = None):
        if not arrows and anchor is None:
            raise InvalidPath("trivial path needs an anchor vertex")
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "anchor", anchor)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)


class FactorAutomaton:
    """Aho-Corasick automaton that recognizes words containing a forbidden factor.

    ``step`` returns the next state, or ``None`` once the word read so far
    contains one of the given words, all nonempty, as a contiguous factor.
    """

    def __init__(self, words: Iterable[tuple[str, ...]]):
        goto: list[dict[str, int]] = [{}]
        # the given word ending at each state, or None
        accept: list[tuple[str, ...] | None] = [None]
        for word in words:
            state = 0
            for sym in word:
                nxt = goto[state].get(sym)
                if nxt is None:
                    nxt = goto[state][sym] = len(goto)
                    goto.append({})
                    accept.append(None)
                state = nxt
            accept[state] = word
        fail = [0] * len(goto)
        # breadth-first failure links; the queue grows while it is read
        queue = list(goto[0].values())
        for state in queue:
            for sym, nxt in goto[state].items():
                queue.append(nxt)
                f = fail[state]
                while f and sym not in goto[f]:
                    f = fail[f]
                fail[nxt] = goto[f].get(sym, 0)
                accept[nxt] = accept[nxt] or accept[fail[nxt]]
        self._goto, self._fail, self._accept = goto, fail, accept

    def _next(self, state: int, sym: str) -> int:
        """The state after reading ``sym`` at ``state``, along failure links."""
        while state and sym not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(sym, 0)

    def step(self, state: int, sym: str) -> int | None:
        nxt = self._next(state, sym)
        return None if self._accept[nxt] else nxt

    def first_factor(self, word: Iterable[str]) -> tuple[str, ...] | None:
        """The given word that ends earliest in ``word`` as a contiguous
        factor, or None when ``word`` contains none of them."""
        state = 0
        for sym in word:
            state = self._next(state, sym)
            if self._accept[state]:
                return self._accept[state]
        return None


class BoundQuiver(Frozen):
    """An immutable pair (quiver, monomial relation set).

    Outside input (the DSL, JSON, library callers) goes through
    :meth:`build`, which validates ids and endpoints and normalizes the
    relation set to factor-minimal generators.  Quivers derived from a built
    one (the double quiver, the split quiver, the generator's) use the plain
    constructor; tests check that :meth:`build` leaves them unchanged.  The
    instance ``__dict__`` holds the fields, the cached properties and the
    facts of :func:`_per_quiver`.
    """

    _fields = ("vertices", "arrows", "relations")

    def __init__(
        self,
        vertices: tuple[str, ...],
        arrows: tuple[Arrow, ...],
        relations: tuple[tuple[str, ...], ...],
    ):
        vars(self).update(vertices=vertices, arrows=arrows, relations=relations)

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        arrows: Iterable[Arrow | tuple[str, str, str]],
        relations: Iterable[Iterable[str]] = (),
    ) -> "BoundQuiver":
        vs = tuple(vertices)
        ars = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        seen: set[str] = set()
        for v in vs:
            if v in seen:
                raise DuplicateId(f"duplicate vertex id {v!r}")
            seen.add(v)
        for a in ars:
            if a.id in seen:
                raise DuplicateId(f"duplicate id {a.id!r}")
            seen.add(a.id)
        quiver = cls(vs, ars, tuple(dict.fromkeys(tuple(rel) for rel in relations)))
        for a in ars:
            if a.source not in quiver.vertex_index or a.target not in quiver.vertex_index:
                raise DanglingEndpoint(f"arrow {a.id!r}: undeclared endpoint")
        for word in quiver.relations:
            if len(word) < 2:
                raise RelationTooShort(f"relation {' '.join(word)!r} has length < 2")
            for x in word:
                if x not in quiver.arrow_by_id:
                    raise DanglingEndpoint(f"relation uses unknown arrow {x!r}")
            for x, y in zip(word, word[1:]):
                if quiver.arrow_by_id[x].target != quiver.arrow_by_id[y].source:
                    raise NonComposableRelation(
                        f"relation {' '.join(word)}: {x} and {y} do not compose"
                    )
        # Drop each generator containing another as a contiguous factor.
        # Every proper factor of a word lies in the word without its first or
        # without its last letter; generators of one length contain none of
        # each other, and then no automaton is built.
        if len({len(r) for r in quiver.relations}) <= 1:
            return quiver
        find = quiver.automaton.first_factor
        kept = tuple(r for r in quiver.relations if not (find(r[1:]) or find(r[:-1])))
        return quiver if len(kept) == len(quiver.relations) else cls(vs, ars, kept)

    # -- derived indices (the instance is immutable, so caching is safe) --

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        return {a.id: i for i, a in enumerate(self.arrows)}

    @cached_property
    def out_arrows(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    @cached_property
    def in_arrows(self) -> dict[str, tuple[Arrow, ...]]:
        inc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc[a.target].append(a)
        return {v: tuple(lst) for v, lst in inc.items()}

    @cached_property
    def automaton(self) -> FactorAutomaton:
        return FactorAutomaton(self.relations)

    @cached_property
    def _relation_partners(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """For each arrow x, the arrows y with xy a length-2 relation and the
        arrows w with wx one, in relation order, as two dicts that omit
        arrows with no partner.  Relations are factor-minimal and have length
        >= 2, so a two-arrow path lies in the ideal iff it is one of these."""
        after: dict[str, list[str]] = {}
        before: dict[str, list[str]] = {}
        for r in self.relations:
            if len(r) == 2:
                after.setdefault(r[0], []).append(r[1])
                before.setdefault(r[1], []).append(r[0])
        return after, before

    @cached_property
    def _quadratic_states(self) -> tuple[dict[str, int], list] | None:
        """None unless every relation has length 2.  Then the state after an
        arrow is its number among the relation heads, from 1, or 0, and each
        state bars its arrow's after-partners."""
        if any(len(r) != 2 for r in self.relations):
            return None
        after = self._relation_partners[0]
        return {x: i for i, x in enumerate(after, 1)}, [(), *after.values()]

    @cached_property
    def _product_dfs(self) -> tuple[tuple | None, list[_ProductNode]]:
        """:func:`depth_first` of this quiver, run once."""
        return depth_first(self)

    @cached_property
    def _product_table(self) -> dict[_ProductNode, list[_ProductEdge]]:
        """The edges of each product node stepped so far; see :func:`_product_edges`."""
        return {}

    @property
    def relation_free_cycle(self) -> tuple[str, ...] | None:
        """Arrows of the first relation-free oriented cycle found, or None."""
        return self._product_dfs[0]


def _per_quiver(fact: Callable) -> Callable:
    """Cache ``fact(bq)`` in the quiver's instance ``__dict__``, as
    ``cached_property`` does, so that the module owning a derived fact
    computes it once per quiver."""
    key = f"{fact.__module__}.{fact.__qualname__}"

    @wraps(fact)
    def cached(bq: BoundQuiver):
        facts = vars(bq)
        if key not in facts:
            facts[key] = fact(bq)
        return facts[key]

    return cached


def in_ideal(bq: BoundQuiver, p: Path) -> bool:
    """True iff some relation occurs as a contiguous factor of ``p``."""
    if p.is_trivial:
        if p.anchor not in bq.vertex_index:
            raise InvalidPath(f"unknown vertex {p.anchor!r}")
        return False
    for x in p.arrows:
        if x not in bq.arrow_by_id:
            raise InvalidPath(f"unknown arrow {x!r}")
    return word_in_ideal(bq, p.arrows) is not None


def word_in_ideal(bq: BoundQuiver, word: tuple[str, ...]) -> tuple[str, ...] | None:
    """The relation that ends earliest in ``word``, or None.  It is unique:
    of two relations ending at one letter, one is a factor of the other, and
    the relations are factor-minimal, so no failure link leads to another.
    A quadratic quiver reads its partner table and builds no automaton."""
    if bq._quadratic_states is None:
        return bq.automaton.first_factor(word)
    after = bq._relation_partners[0]
    for x, y in zip(word, word[1:]):
        if y in after.get(x, ()):
            return x, y
    return None


def depth_first(bq: BoundQuiver) -> tuple[tuple | None, list[_ProductNode]]:
    """Iterative depth-first search of the quiver-automaton product graph
    from every ``(v, 0)`` in vertex order, each vertex's arrows in
    declaration order.  Returns the arrows around the first cycle met, or
    ``None`` when the graph is acyclic, and the nodes finished so far in
    post-order (every successor of a node comes before it)."""
    entered: set[_ProductNode] = set()
    done: dict[_ProductNode | None, None] = {}  # finished nodes, in post-order
    # entries: (node, arrow that entered it, iterator over its edges); the
    # first is a virtual root with an edge to each (v, 0)
    stack = [(None, None, iter([(None, (v, 0)) for v in bq.vertices]))]
    while stack:
        node, _, pending = stack[-1]
        for x, nxt in pending:
            if nxt in done:
                continue
            if nxt in entered:  # on the stack
                i = next(i for i, entry in enumerate(stack) if entry[0] == nxt)
                return tuple(entry[1] for entry in stack[i + 1 :]) + (x,), list(done)
            entered.add(nxt)
            stack.append((nxt, x, iter(_product_edges(bq, nxt))))
            break
        else:
            done[node] = None
            stack.pop()
    return None, list(done)[:-1]  # all but the virtual root


def _product_edges(bq: BoundQuiver, node: _ProductNode) -> list[_ProductEdge]:
    """The ``(arrow, next node)`` edges out of a product node in arrow
    declaration order, stepped once per quiver.  A single arrow is never a
    relation, so each arrow out of ``(v, 0)`` has an edge.  A quadratic
    quiver steps from its partner table: its automaton's graph, up to the
    names of the states, with no automaton built."""
    edges = bq._product_table.get(node)
    if edges is None:
        v, state = node
        edges = bq._product_table[node] = []
        if quadratic := bq._quadratic_states:
            heads, barred = quadratic[0], quadratic[1][state]
            edges += [(a.id, (a.target, heads.get(a.id, 0)))
                      for a in bq.out_arrows[v] if a.id not in barred]
        else:
            for a in bq.out_arrows[v]:
                nxt = bq.automaton.step(state, a.id)
                if nxt is not None:
                    edges.append((a.id, (a.target, nxt)))
    return edges


def is_finite_dimensional(bq: BoundQuiver) -> bool:
    """True iff every oriented cycle is blocked by the relations, i.e. the
    quiver-automaton product graph is acyclic."""
    return bq.relation_free_cycle is None


def require_finite(bq: BoundQuiver) -> None:
    """Raise InfiniteDimensional, naming a relation-free oriented cycle,
    unless the algebra is finite-dimensional."""
    if not is_finite_dimensional(bq):
        cycle = " ".join(map(str, bq.relation_free_cycle))
        raise InfiniteDimensional("relation-free oriented cycle exists: " + cycle)


def enumerate_paths(bq: BoundQuiver, frm: str, to: str) -> list[Path]:
    """All relation-free paths from ``frm`` to ``to``, shortest first, ties
    broken by arrow declaration order.  Level n holds the paths of n arrows
    in that order, and extending each in turn by its node's edges, which come
    in declaration order, keeps level n + 1 in it."""
    if frm not in bq.vertex_index or to not in bq.vertex_index:
        raise InvalidPath(f"unknown vertex in ({frm!r}, {to!r})")
    require_finite(bq)  # so some level is empty
    found: list[Path] = []
    level: list[tuple[_ProductNode, tuple[str, ...]]] = [((frm, 0), ())]
    while level:
        found += [Path(word) if word else Path((), to) for node, word in level if node[0] == to]
        level = [(nxt, word + (x,)) for node, word in level for x, nxt in _product_edges(bq, node)]
    return found


def _paths_into(bq: BoundQuiver, starts: Iterable[_ProductNode]) -> dict[_ProductNode, int]:
    """For each product node, the number of relation-free paths that start at
    a node in ``starts``, counted with repeats, and end there.  Reverse
    post-order is topological, and the search stepped every node."""
    require_finite(bq)
    into = dict.fromkeys(bq._product_dfs[1], 0)
    for node in starts:
        into[node] += 1
    for node in reversed(into):
        for _, nxt in bq._product_table[node]:
            into[nxt] += into[node]
    return into


def algebra_dim(bq: BoundQuiver) -> int:
    """Number of relation-free paths, trivial paths included."""
    return sum(_paths_into(bq, [(v, 0) for v in bq.vertices]).values())
