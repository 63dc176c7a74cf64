"""Hom dimensions between quiver representations by exact linear algebra.

A test-only oracle that shares no code with ``strquiv``.  Quivers come in
as plain data: a list of ``(arrow, source, target)`` triples and a list of
relations, each a tuple of arrow ids.  A representation is given by a
monomial basis: the vertex of each basis vector, and for each arrow the
pairs ``(i, j)`` with ``a · e_i = e_j``.  dim Hom(M, N) is the nullity of
the system ``f_t · M_a = N_a · f_s`` over the arrows ``a: s -> t``, in the
entries of the maps ``f_v: M_v -> N_v``, solved by elimination over
``fractions.Fraction``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Rep:
    vertex: tuple[str, ...]  # the vertex of each basis vector
    action: dict[str, tuple[tuple[int, int], ...]]  # arrow -> pairs (i, j): e_i -> e_j


def string_module(arrows, letters, anchor=None) -> Rep:
    """M(s) for the walk with ``letters`` ((arrow, inverted) pairs): one
    basis vector per walk vertex; a forward letter at position i maps e_i
    to e_(i+1), an inverse one maps e_(i+1) to e_i."""
    ends = {a: (s, t) for a, s, t in arrows}
    if not letters:
        return Rep((anchor,), {})
    first, inv = letters[0]
    vertex = [ends[first][1] if inv else ends[first][0]]
    action = defaultdict(list)
    for i, (a, inv) in enumerate(letters):
        vertex.append(ends[a][0] if inv else ends[a][1])
        action[a].append((i + 1, i) if inv else (i, i + 1))
    return Rep(tuple(vertex), {a: tuple(pairs) for a, pairs in action.items()})


def _in_ideal(word, relations) -> bool:
    return any(word[i : i + len(r)] == r for r in relations for i in range(len(word)))


def path_module(arrows, relations, start, head=()) -> Rep:
    """The right module ``head · e_start A``: one basis vector per path p
    from ``start`` with ``head + p`` outside the ideal, and the arrow b
    sending p to p + b.  With no head this is the projective P(start);
    with ``head = (alpha,)`` and ``start`` the target of alpha, it is
    alpha·A.  The algebra must be finite-dimensional."""
    out = defaultdict(list)
    for a, s, t in arrows:
        out[s].append((a, t))
    paths = [((), start)]
    action = defaultdict(list)
    i = 0
    while i < len(paths):
        word, end = paths[i]
        for a, t in out[end]:
            if not _in_ideal(head + word + (a,), relations):
                action[a].append((i, len(paths)))
                paths.append((word + (a,), t))
        i += 1
    return Rep(tuple(end for _, end in paths), {a: tuple(pairs) for a, pairs in action.items()})


def algebra_dim(vertices, arrows, relations) -> int:
    """Number of paths outside the ideal, trivial paths included."""
    return sum(len(path_module(arrows, relations, v).vertex) for v in vertices)


def _rank(rows: list[dict[int, int]]) -> int:
    """Rank of sparse integer rows, by exact elimination over the rationals."""
    pivots: dict[int, dict[int, Fraction]] = {}  # leading column -> row, leading entry 1
    for row in rows:
        row = {c: Fraction(x) for c, x in row.items() if x}
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {c: x / lead for c, x in row.items()}
                break
            factor = row[col]
            for c, x in pivots[col].items():
                y = row.get(c, 0) - factor * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


def hom_dim(arrows, m: Rep, n: Rep) -> int:
    """dim Hom(M, N) as the nullity of the commutativity system."""
    var: dict[tuple[int, int], int] = {}
    for i, v in enumerate(m.vertex):
        for j, w in enumerate(n.vertex):
            if v == w:
                var[i, j] = len(var)
    rows = []
    for a, s, t in arrows:
        m_next = defaultdict(list)
        for i, j in m.action.get(a, ()):
            m_next[i].append(j)
        n_prev = defaultdict(list)
        for j, k in n.action.get(a, ()):
            n_prev[k].append(j)
        for i in (i for i, v in enumerate(m.vertex) if v == s):
            for k in (k for k, w in enumerate(n.vertex) if w == t):
                # coefficient of e'_k in f(a · e_i) - a · f(e_i)
                row: dict[int, int] = defaultdict(int)
                for i2 in m_next[i]:
                    row[var[i2, k]] += 1
                for j in n_prev[k]:
                    row[var[i, j]] -= 1
                rows.append(row)
    return len(var) - _rank(rows)


def end_dim(arrows, reps: list[Rep]) -> int:
    """dim End of the direct sum of ``reps``: hom_dim over all ordered pairs."""
    return sum(hom_dim(arrows, x, y) for x in reps for y in reps)
