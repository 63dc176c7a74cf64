"""Random SAG fixtures for property tests.

Generation is a pure function of the spec and makes one attempt: sample a
quiver respecting the degree bound, sprinkle length-2 relations, cut each
relation-free directed cycle with one more relation, then forbid all but the
first relation-free continuation on each side of each arrow.  Adding
relations opens no cycle and frees no continuation, so the output is SAG and
finite-dimensional by construction; the tests check this, the generator does
not.  The only rejected specs ask for more than 2·V arrows on V vertices,
which out-degree at most 2 cannot carry.
"""

from __future__ import annotations

import random
import string as _string
from bisect import bisect_left
from typing import NamedTuple

from .core import Arrow, BoundQuiver
from .errors import GenerationExhausted


class RandomSagSpec(NamedTuple):
    seed: int
    num_vertices: int = 5
    num_arrows: int = 7
    relation_density: float = 0.5


def _arrow_names(n: int) -> list[str]:
    return [_string.ascii_lowercase[i % 26] + "'" * (i // 26) for i in range(n)]


def _sample_quiver(rng: random.Random, spec: RandomSagSpec) -> BoundQuiver:
    vertices = tuple(str(i) for i in range(1, spec.num_vertices + 1))
    n = len(vertices)
    # below this bound fewer than 2·n arrows precede each draw, so some
    # vertex is still a candidate on each side
    if spec.num_arrows > 2 * n:
        raise GenerationExhausted(
            f"{spec.num_arrows} arrows exceed the {2 * n} that {n} vertices "
            "of out-degree at most 2 allow"
        )
    # (candidates, degrees) for sources, then targets; a vertex leaves the
    # candidates, which stay in vertex order, once its degree reaches 2
    sides = [(list(range(n)), [0] * n), (list(range(n)), [0] * n)]
    arrows: list[Arrow] = []
    for name in _arrow_names(spec.num_arrows):
        ends = []
        for candidates, degree in sides:
            k = rng.choice(candidates)
            degree[k] += 1
            if degree[k] == 2:
                del candidates[bisect_left(candidates, k)]
            ends.append(vertices[k])
        arrows.append(Arrow(name, *ends))
    out = BoundQuiver(vertices, tuple(arrows), ()).out_arrows
    relations = [
        (a.id, b.id)
        for a in arrows
        for b in out[a.target]
        if rng.random() < spec.relation_density
    ]
    # distinct composable pairs are factor-minimal, so no build is needed
    return BoundQuiver(vertices, tuple(arrows), tuple(sorted(relations)))


def _with_relations(bq: BoundQuiver, extra: set[tuple[str, str]]) -> BoundQuiver:
    merged = sorted(set(bq.relations) | extra)
    return BoundQuiver(bq.vertices, bq.arrows, tuple(merged))


def _repair(bq: BoundQuiver) -> BoundQuiver:
    # Cut every relation-free directed cycle with a new length-2 relation.
    while (cycle := bq.relation_free_cycle) is not None:
        follower = cycle[1] if len(cycle) > 1 else cycle[0]
        bq = _with_relations(bq, {(cycle[0], follower)})
    # Restore continuation uniqueness: where an arrow has two relation-free
    # continuations on a side, forbid all but the first.
    pairs = set(bq.relations)  # every relation made here has length 2
    extra: set[tuple[str, str]] = set()
    for a in bq.arrows:
        free = [b.id for b in bq.out_arrows[a.target] if (a.id, b.id) not in pairs]
        extra.update((a.id, b) for b in free[1:])
        free = [g.id for g in bq.in_arrows[a.source] if (g.id, a.id) not in pairs]
        extra.update((g, a.id) for g in free[1:])
    return _with_relations(bq, extra)


def gen_random_sag(spec: RandomSagSpec) -> BoundQuiver:
    """Deterministic per seed; SAG and finite-dimensional by construction."""
    return _repair(_sample_quiver(random.Random(f"sag-{spec.seed}"), spec))
