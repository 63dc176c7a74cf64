"""Random SAG fixtures for property tests.

Generation is a pure function of the spec: sample a quiver respecting the
degree bound, sprinkle length-2 relations, then monotonically add further
relations to cut relation-free directed cycles (finite dimension) and to
restore continuation uniqueness.  Adding a relation never invalidates
either property, so the repair loop terminates; full rejection only happens
when arrow sampling itself cannot satisfy the degree bound.
"""

from __future__ import annotations

import random
import string as _string
from dataclasses import dataclass

from .classify import check_s2
from .core import Arrow, BoundQuiver, is_finite_dimensional
from .errors import GenerationExhausted

_REJECTION_BUDGET = 200


@dataclass(frozen=True)
class RandomSagSpec:
    seed: int
    num_vertices: int = 5
    num_arrows: int = 7
    relation_density: float = 0.5


def _arrow_names(n: int) -> list[str]:
    letters = _string.ascii_lowercase
    names = []
    for i in range(n):
        base = letters[i % len(letters)]
        names.append(base + "'" * (i // len(letters)))
    return names


def _sample_quiver(rng: random.Random, spec: RandomSagSpec) -> BoundQuiver | None:
    vertices = tuple(str(i) for i in range(1, spec.num_vertices + 1))
    out_deg = {v: 0 for v in vertices}
    in_deg = {v: 0 for v in vertices}
    arrows: list[Arrow] = []
    for name in _arrow_names(spec.num_arrows):
        sources = [v for v in vertices if out_deg[v] < 2]
        targets = [v for v in vertices if in_deg[v] < 2]
        if not sources or not targets:
            return None
        s = rng.choice(sources)
        t = rng.choice(targets)
        out_deg[s] += 1
        in_deg[t] += 1
        arrows.append(Arrow(name, s, t))
    relations: set[tuple[str, str]] = set()
    for a in arrows:
        for b in arrows:
            if a.target == b.source and rng.random() < spec.relation_density:
                relations.add((a.id, b.id))
    return BoundQuiver.build(vertices, tuple(arrows), tuple(sorted(relations)))


def _with_relations(bq: BoundQuiver, extra: set[tuple[str, str]]) -> BoundQuiver:
    merged = sorted(set(bq.relations) | extra)
    return BoundQuiver.build(bq.vertices, bq.arrows, tuple(merged))


def _repair(bq: BoundQuiver) -> BoundQuiver:
    # Cut every relation-free directed cycle with a new length-2 relation.
    while True:
        cycle = bq.relation_free_cycle
        if cycle is None:
            break
        follower = cycle[1] if len(cycle) > 1 else cycle[0]
        bq = _with_relations(bq, {(cycle[0], follower)})
    # Restore continuation uniqueness: where an arrow has two relation-free
    # continuations on a side, forbid all but the first.
    while True:
        violations = check_s2(bq)
        if not violations:
            break
        extra: set[tuple[str, str]] = set()
        for arrow_id, side in violations:
            a = bq.arrow_by_id[arrow_id]
            if side == "R":
                free = [
                    b.id
                    for b in bq.out_arrows[a.target]
                    if (a.id, b.id) not in bq.relation_pairs
                ]
                extra.update((a.id, b) for b in free[1:])
            else:
                free = [
                    g.id
                    for g in bq.in_arrows[a.source]
                    if (g.id, a.id) not in bq.relation_pairs
                ]
                extra.update((g, a.id) for g in free[1:])
        bq = _with_relations(bq, extra)
    return bq


def gen_random_sag(spec: RandomSagSpec) -> BoundQuiver:
    """Deterministic per seed; output is always SAG and finite-dimensional."""
    rng = random.Random(f"sag-{spec.seed}")
    for _ in range(_REJECTION_BUDGET):
        bq = _sample_quiver(rng, spec)
        if bq is None:
            continue
        bq = _repair(bq)
        if bq.classification.is_sag and is_finite_dimensional(bq):
            return bq
    raise GenerationExhausted(
        f"no SAG quiver found for {spec} within {_REJECTION_BUDGET} attempts"
    )
