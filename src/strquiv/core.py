"""Bound-quiver data model: vertices, arrows, monomial relations, ideal
membership, path enumeration and algebra dimension.

A path is "in the ideal" iff it contains some relation as a contiguous
factor.  Finiteness, dimension and path enumeration all read one graph per
quiver, the product of the quiver with a forbidden-factor automaton built
from the relation set, so relations of any length >= 2 are handled
uniformly.  Its nodes and edges are integers; when all relations have
length 2, the relation-partner table gives the nodes and edges and no
automaton is built.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    InfiniteDimensional,
    InvalidPath,
    NonComposableRelation,
    RelationTooShort,
)


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


class _ProductGraph(NamedTuple):
    """A quiver's product with its forbidden-factor automaton, on integer
    nodes and edges; see :attr:`BoundQuiver._product_graph`."""

    vertex: list[int]  # each node's vertex number
    out: list[list[int]]  # each node's edges, in arrow declaration order
    to: list[int]  # the node each edge enters
    arrow: Sequence  # the arrow id along each edge


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
        quiver = cls(vs, ars, tuple(dict.fromkeys(map(tuple, relations))))
        # the indices hold every id once, so a repeat or a dangling id shows
        # in their sizes and keys; the loops below only name the first one
        index, by_id = quiver.vertex_index, quiver.arrow_by_id
        if len(index) < len(vs) or len(by_id) < len(ars) or not index.keys().isdisjoint(by_id):
            seen: set[str] = set()
            for v in vs:
                if v in seen:
                    raise DuplicateId(f"duplicate vertex id {v!r}")
                seen.add(v)
            for a in ars:
                if a.id in seen:
                    raise DuplicateId(f"duplicate id {a.id!r}")
                seen.add(a.id)
        ends = set(map(itemgetter(1), ars))
        ends.update(map(itemgetter(2), ars))
        if not index.keys() >= ends:
            a = next(a for a in ars if a.source not in index or a.target not in index)
            raise DanglingEndpoint(f"arrow {a.id!r}: undeclared endpoint")
        rels = quiver.relations
        lengths = set(map(len, rels))
        pairs = rels if lengths <= {2} else [p for w in rels for p in zip(w, w[1:])]
        if (
            min(lengths, default=2) < 2
            or not by_id.keys() >= set(chain.from_iterable(rels))
            or [by_id[x].target for x, _ in pairs] != [by_id[y].source for _, y in pairs]
        ):
            for word in rels:
                if len(word) < 2:
                    raise RelationTooShort(f"relation {' '.join(word)!r} has length < 2")
                for x in word:
                    if x not in by_id:
                        raise DanglingEndpoint(f"relation uses unknown arrow {x!r}")
                for x, y in zip(word, word[1:]):
                    if by_id[x].target != by_id[y].source:
                        raise NonComposableRelation(
                            f"relation {' '.join(word)}: {x} and {y} do not compose"
                        )
        # Drop each generator containing another as a contiguous factor.
        # Every proper factor of a word lies in the word without its first or
        # without its last letter; generators of one length contain none of
        # each other, and then no automaton is built.
        if len(lengths) <= 1:
            return quiver
        find = quiver.automaton.first_factor
        kept = tuple(r for r in quiver.relations if not (find(r[1:]) or find(r[:-1])))
        return quiver if len(kept) == len(quiver.relations) else cls(vs, ars, kept)

    # -- derived indices (the instance is immutable, so caching is safe) --

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return dict(zip(map(itemgetter(0), self.arrows), self.arrows))

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        return dict(zip(map(itemgetter(0), self.arrows), range(len(self.arrows))))

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
    def _is_quadratic(self) -> bool:
        """True iff every relation has length 2.  Such a quiver steps its
        product graph and ideal membership from the relation-partner table
        and builds no automaton."""
        return set(map(len, self.relations)) <= {2}

    @cached_property
    def _product_graph(self) -> _ProductGraph:
        """The quiver-automaton product graph on integer nodes, built once.

        Node ``i`` below the number of vertices is (vertex ``i``, state 0).
        On a quadratic quiver an edge is an arrow number, and node
        ``|Q₀| + h`` is the state after the ``h``-th relation head, in
        relation order: its edges are the arrows leaving the head's target
        but the head's after-partners.  Each node's edges come in arrow
        declaration order.  Any other quiver steps its automaton from the
        roots and numbers the nodes and edges as it finds them."""
        n = len(self.vertices)
        vi = self.vertex_index
        ids, sources, targets = zip(*self.arrows) if self.arrows else ((), (), ())
        target = list(map(vi.__getitem__, targets))
        out: list[list[int]] = [[] for _ in range(n)]
        for j, v in enumerate(map(vi.__getitem__, sources)):
            out[v].append(j)
        if self._is_quadratic:
            vertex, to = list(range(n)), target.copy()
            index = self.arrow_index if self.relations else {}
            for x, y in self.relations:
                j = index[x]
                if to[j] == target[j]:  # the first relation headed by x
                    to[j] = len(out)
                    vertex.append(target[j])
                    out.append(out[target[j]].copy())
                out[to[j]].remove(index[y])
            return _ProductGraph(vertex, out, to, ids)
        step = self.automaton.step
        vertex, state = list(range(n)), [0] * n
        number = {(v, 0): v for v in range(n)}
        node_edges: list[list[int]] = []
        to, labels = [], []
        for v, s in zip(vertex, state):  # the lists grow while they are read
            edges = []
            for j in out[v]:
                nxt = step(s, ids[j])
                if nxt is not None:
                    m = number.setdefault((target[j], nxt), len(vertex))
                    if m == len(vertex):
                        vertex.append(target[j])
                        state.append(nxt)
                    edges.append(len(to))
                    to.append(m)
                    labels.append(ids[j])
            node_edges.append(edges)
        return _ProductGraph(vertex, node_edges, to, labels)

    @cached_property
    def _product_search(self) -> tuple[list[int] | None, list[int]]:
        """:func:`_depth_first` of the product graph, run once."""
        return _depth_first(self._product_graph, len(self.vertices))

    @property
    def relation_free_cycle(self) -> tuple[str, ...] | None:
        """Arrows of the first relation-free oriented cycle found, or None."""
        cycle = self._product_search[0]
        return None if cycle is None else tuple([self._product_graph.arrow[e] for e in cycle])


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
    if not bq._is_quadratic:
        return bq.automaton.first_factor(word)
    after = bq._relation_partners[0]
    for x, y in zip(word, word[1:]):
        if y in after.get(x, ()):
            return x, y
    return None


def _depth_first(g: _ProductGraph, roots: int) -> tuple[list[int] | None, list[int]]:
    """Iterative depth-first search of ``g`` from nodes ``0 .. roots - 1`` in
    order, each node's edges in order.  Returns the edges around the first
    cycle met, or ``None`` when the graph is acyclic, and the nodes
    finished so far in post-order (every successor of a node comes before
    it)."""
    out, to = g.out, g.to
    mark = bytearray(len(out))  # 1 on the stack, 2 finished
    done: list[int] = []
    for root in range(roots):
        if mark[root]:
            continue
        mark[root] = 1
        # the stack as parallel lists: node, edge that entered it, pending edges
        path, entered, pending = [root], [-1], [iter(out[root])]
        while path:
            for e in pending[-1]:
                m = to[e]
                if not mark[m]:
                    if not out[m]:  # a sink finishes at once
                        mark[m] = 2
                        done.append(m)
                        continue
                    mark[m] = 1
                    path.append(m)
                    entered.append(e)
                    pending.append(iter(out[m]))
                    break
                if mark[m] == 1:
                    return entered[path.index(m) + 1 :] + [e], done
            else:
                node = path.pop()
                mark[node] = 2
                done.append(node)
                entered.pop()
                pending.pop()
    return None, done


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
    g = bq._product_graph
    end = bq.vertex_index[to]
    found: list[Path] = []
    level: list[tuple[int, tuple[str, ...]]] = [(bq.vertex_index[frm], ())]
    while level:
        found += [Path(word) if word else Path((), to) for node, word in level if g.vertex[node] == end]
        level = [(g.to[e], word + (g.arrow[e],)) for node, word in level for e in g.out[node]]
    return found


def _node_after(bq: BoundQuiver, x: str) -> int:
    """The product node that the single arrow ``x`` enters from its source's root."""
    g = bq._product_graph
    root = bq.vertex_index[bq.arrow_by_id[x].source]
    return next(g.to[e] for e in g.out[root] if g.arrow[e] == x)


def _paths_into(bq: BoundQuiver, starts: Iterable[int]) -> list[int]:
    """For each product node, the number of relation-free paths that start at
    a node in ``starts``, counted with repeats, and end there.  Reverse
    post-order is topological, and the search finished every node."""
    require_finite(bq)
    g = bq._product_graph
    out, to = g.out, g.to
    into = [0] * len(out)
    for node in starts:
        into[node] += 1
    for node in reversed(bq._product_search[1]):
        if k := into[node]:
            for e in out[node]:
                into[to[e]] += k
    return into


def algebra_dim(bq: BoundQuiver) -> int:
    """Number of relation-free paths, trivial paths included."""
    return sum(_paths_into(bq, range(len(bq.vertices))))
