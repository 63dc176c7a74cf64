"""Axiom checks: string pair, almost gentle pair, SAG, and gentle.

Violation witnesses are concrete: a vertex id for the degree bound, an
(arrow, side) pair for continuation uniqueness, a relation word for the
length-two requirement.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import BoundQuiver, _per_quiver


class Classification(NamedTuple):
    is_string: bool
    is_almost_gentle: bool
    is_sag: bool
    is_gentle: bool
    violations: tuple[tuple[str, object], ...] = ()


def check_s1(bq: BoundQuiver) -> list[str]:
    """Vertices that are the source of >= 3 arrows or the target of >= 3."""
    return [
        v
        for v in bq.vertices
        if len(bq.out_arrows[v]) >= 3 or len(bq.in_arrows[v]) >= 3
    ]


def _continuation_witnesses(bq: BoundQuiver) -> tuple[list[tuple[str, str]], ...]:
    """One pass over the arrows: those with more than one relation-free
    continuation on a side, the (S2) witnesses, and those with more than
    one continuation in the ideal, the gentle witnesses."""
    after, before = bq._relation_partners
    s2: list[tuple[str, str]] = []
    gentle: list[tuple[str, str]] = []
    for a in bq.arrows:
        ends = (("R", after, bq.out_arrows[a.target]), ("L", before, bq.in_arrows[a.source]))
        for side, partners, neighbours in ends:
            blocked = len(partners.get(a.id, ()))
            if len(neighbours) - blocked > 1:
                s2.append((a.id, side))
            if blocked > 1:
                gentle.append((a.id, side))
    return s2, gentle


def check_s2(bq: BoundQuiver) -> list[tuple[str, str]]:
    """Arrows with more than one relation-free continuation on a side.

    For each arrow x the successors y with x·y outside the ideal must number
    at most one (side "R"), and dually for predecessors (side "L").
    """
    return _continuation_witnesses(bq)[0]


@_per_quiver
def classify(bq: BoundQuiver) -> Classification:
    """The axioms ``bq`` satisfies, with a witness for each one it fails,
    computed once per quiver."""
    s1 = check_s1(bq)
    s2, gentle = _continuation_witnesses(bq)
    long_rels = [rel for rel in bq.relations if len(rel) != 2]
    is_string = not s1 and not s2
    is_almost_gentle = not s2 and not long_rels
    is_sag = is_string and is_almost_gentle
    is_gentle = is_sag and not gentle
    violations = (
        [("degree", v) for v in s1]
        + [("continuation-" + side, arrow) for arrow, side in s2]
        + [("relation-length", rel) for rel in long_rels]
        + [("gentle-" + side, arrow) for arrow, side in (gentle if is_sag else [])]
    )
    return Classification(is_string, is_almost_gentle, is_sag, is_gentle, tuple(violations))
