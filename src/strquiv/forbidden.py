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

from .core import BoundQuiver, _per_quiver
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
    return set(bq._relation_partners[0])


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
    chords = [a for v in vertices for a in bq.out_arrows[v] if a.target in index
              and (index[a.target] - index[v]) % n not in (1, n - 1, 0)]
    for a in sorted(chords, key=lambda a: bq.arrow_index[a.id]):
        problems.append(f"chord {a.id} joins nonconsecutive cycle vertices")
    return problems


def forbidden_cycles(bq: BoundQuiver) -> list[ForbiddenCycle]:
    """All forbidden cycles, canonically rotated, in deterministic order."""
    return list(_forbidden_cycles(bq))


def _on_relation_cycles(succs: dict[str, list[str]], preds: dict[str, list[str]]) -> set[str]:
    """The arrows left after repeatedly dropping each arrow with no remaining
    relation partner on one side.  Each arrow of a cycle of relations has a
    partner on each side on the cycle, so none of them is dropped."""
    live = succs.keys() & preds.keys()
    dropped = list(succs.keys() ^ preds.keys())
    before = {x: len(ws) for x, ws in preds.items()}  # partners left on each side
    after = {x: len(ys) for x, ys in succs.items()}
    for x in dropped:  # the list grows while it is read
        # dropping x takes a partner before from each arrow after it, and dually
        for partners, remaining in ((succs, before), (preds, after)):
            for y in partners.get(x, ()):
                remaining[y] -= 1
                if not remaining[y] and y in live:
                    live.remove(y)
                    dropped.append(y)
    return live


@_per_quiver
def _forbidden_cycles(bq: BoundQuiver) -> tuple[ForbiddenCycle, ...]:
    """:func:`forbidden_cycles`, run once per quiver.  The search starts
    from and steps onto only the arrows that may lie on a cycle of
    relations, so a chain of relations that closes no cycle costs one pass."""
    idx = bq.arrow_index
    succs, preds = bq._relation_partners
    live = _on_relation_cycles(succs, preds)
    succs = {x: [y for y in ys if y in live] for x, ys in succs.items() if x in live}
    # the vertices joined by an arrow to each vertex that a path can step onto
    near = {v: {a.source for a in bq.in_arrows[v]} | {a.target for a in bq.out_arrows[v]}
            for v in {bq.arrow_by_id[x].target for x in live}}
    out: list[ForbiddenCycle] = []
    # Each cycle of relations on distinct vertices is met once, from its
    # first-declared arrow, which makes it canonically rotated already.  A
    # path grows only onto a fresh vertex joined to no inner path vertex and,
    # once its end is joined to its start, may only close: it closes chordless.
    for first in succs:  # each may lie on a cycle; the sort below fixes the order
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
    return tuple(out)


def is_perfect(bq: BoundQuiver, cycle: ForbiddenCycle) -> bool:
    """No outside arrow forms a relation with a cycle arrow at a cycle vertex."""
    problems = _cycle_problems(bq, cycle.arrows)
    if problems:
        raise NotForbiddenCycle("; ".join(problems))
    return perfect_index(bq).arrows.issuperset(cycle.arrows)


@_per_quiver
def perfect_index(bq: BoundQuiver) -> PerfectIndex:
    """The perfect forbidden cycles and their arrows, computed once per
    quiver.  Each arrow x of a perfect cycle has exactly one relation
    partner on each side, and they lie on the cycle: its vertices are
    distinct, so one cycle arrow leaves t(x).  So the perfect cycles are the
    cycles of x -> x's partner after it, on such arrows, that pass
    :func:`_cycle_problems`; the walk below follows each arrow once."""
    idx = bq.arrow_index
    after, before = bq._relation_partners
    step = {x: ys[0] for x, ys in after.items() if len(ys) == 1 and len(before.get(x, ())) == 1}
    seen: set[str] = set()
    cycles: list[ForbiddenCycle] = []
    for x in step:
        walk: dict[str, int] = {}  # the arrows of this walk, with their positions
        while x in step and x not in seen:
            seen.add(x)
            walk[x] = len(walk)
            x = step[x]
        if x in walk:  # the walk closed a cycle at x
            cycle = list(walk)[walk[x]:]
            first = min(range(len(cycle)), key=lambda i: idx[cycle[i]])
            arrows = tuple(cycle[first:] + cycle[:first])
            if not _cycle_problems(bq, arrows):
                cycles.append(ForbiddenCycle(arrows))
    cycles.sort(key=lambda c: (len(c), tuple(idx[x] for x in c.arrows)))
    return PerfectIndex(frozenset(x for c in cycles for x in c.arrows), tuple(cycles))
