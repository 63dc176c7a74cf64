"""Forbidden structure: left forbidden arrows, forbidden cycles, perfect
forbidden cycles, and the perfect index.

A forbidden cycle is an oriented cycle of arrows, on pairwise distinct and
otherwise nonadjacent vertices, whose consecutive products all lie in the
ideal.  It is perfect when no arrow outside the cycle forms a relation with
a cycle arrow at any cycle vertex.  The perfect index is the union of the
arrows of all perfect forbidden cycles.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import BoundQuiver
from .errors import NotForbiddenCycle


class ForbiddenCycle(NamedTuple):
    arrows: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.arrows)


class PerfectIndex(NamedTuple):
    arrows: frozenset[str]
    cycles: tuple[ForbiddenCycle, ...]


def left_forbidden_arrows(bq: BoundQuiver) -> set[str]:
    """Arrows that head a length-2 relation: alpha with alpha·beta in the ideal."""
    return set(bq.left_forbidden_arrows)


def _cycle_problems(bq: BoundQuiver, arrows: tuple[str, ...]) -> list[str]:
    problems: list[str] = []
    if not arrows:
        return ["empty cycle"]
    for x in arrows:
        if x not in bq.arrow_by_id:
            return [f"unknown arrow {x!r}"]
    n = len(arrows)
    for i in range(n):
        a = bq.arrow_by_id[arrows[i]]
        b = bq.arrow_by_id[arrows[(i + 1) % n]]
        if a.target != b.source:
            problems.append(f"arrows {a.id} and {b.id} do not compose")
        elif b.id not in bq._relation_partners[0].get(a.id, ()):
            problems.append(f"product {a.id}{b.id} is not in the ideal")
    vertices = [bq.arrow_by_id[x].source for x in arrows]
    if len(set(vertices)) != n:
        problems.append("cycle vertices are not pairwise distinct")
        return problems
    # Nonadjacency away from the cycle: no arrow connects two cycle
    # vertices that are not cyclically consecutive.
    index = {v: i for i, v in enumerate(vertices)}
    for a in bq.arrows:
        if a.source in index and a.target in index and a.source != a.target:
            gap = (index[a.target] - index[a.source]) % n
            if gap != 1 and (index[a.source] - index[a.target]) % n != 1:
                problems.append(
                    f"chord {a.id} joins nonconsecutive cycle vertices"
                )
    return problems


def forbidden_cycles(bq: BoundQuiver) -> list[ForbiddenCycle]:
    """All forbidden cycles, canonically rotated, in deterministic order."""
    return [c for c, _ in bq._flagged_cycles]


def _flagged_cycles(bq: BoundQuiver) -> tuple[tuple[ForbiddenCycle, bool], ...]:
    """Every forbidden cycle with its perfect flag; run once per quiver, as
    ``BoundQuiver._flagged_cycles``."""
    idx = bq.arrow_index
    succs, preds = bq._relation_partners
    # the vertices joined by an arrow to each vertex that a path can step onto
    near = {v: {a.source for a in bq.in_arrows[v]} | {a.target for a in bq.out_arrows[v]}
            for v in {bq.arrow_by_id[b].target for b in preds}}
    out: list[ForbiddenCycle] = []
    # Each cycle of relations on distinct vertices is met once, from its
    # first-declared arrow, which makes it canonically rotated already.  A
    # path grows only onto a fresh vertex joined to no inner path vertex and,
    # once its end is joined to its start, may only close: it closes chordless.
    for first in succs:  # each heads a relation; the sort below fixes the order
        start, end = bq.arrow_by_id[first].source, bq.arrow_by_id[first].target
        stack = [((first,), (start, end))]
        while stack:
            path, vertices = stack.pop()
            if vertices[-1] == start:
                if first in succs.get(path[-1], ()):
                    out.append(ForbiddenCycle(path))
                continue
            closing_only = len(vertices) > 2 and start in near[vertices[-1]]
            for x in succs.get(path[-1], ()):
                t = bq.arrow_by_id[x].target
                if idx[x] > idx[first] and (t == start or not closing_only and (
                        t not in vertices and near[t].isdisjoint(vertices[1:-1]))):
                    stack.append((path + (x,), vertices + (t,)))
    out.sort(key=lambda c: (len(c), tuple(idx[x] for x in c.arrows)))
    return tuple((c, _is_perfect(bq, c.arrows)) for c in out)


def is_perfect(bq: BoundQuiver, cycle: ForbiddenCycle) -> bool:
    """No outside arrow forms a relation with a cycle arrow at a cycle vertex."""
    problems = _cycle_problems(bq, cycle.arrows)
    if problems:
        raise NotForbiddenCycle("; ".join(problems))
    return _is_perfect(bq, cycle.arrows)


def _is_perfect(bq: BoundQuiver, arrows: tuple[str, ...]) -> bool:
    """:func:`is_perfect` of arrows already known to form a forbidden cycle:
    every relation partner of a cycle arrow lies on the cycle."""
    members = set(arrows)
    after, before = bq._relation_partners
    return all(
        members.issuperset(after.get(x, ())) and members.issuperset(before.get(x, ()))
        for x in arrows
    )


def perfect_index(bq: BoundQuiver) -> PerfectIndex:
    """The perfect forbidden cycles and their arrows, from the search's flags."""
    cycles = tuple(c for c, perfect in bq._flagged_cycles if perfect)
    return PerfectIndex(frozenset(x for c in cycles for x in c.arrows), cycles)
