"""Axiom checks: string pair, almost gentle pair, SAG, and gentle.

Violation witnesses are concrete: a vertex id for the degree bound, an
(arrow, side) pair for continuation uniqueness, a relation word for the
length-two requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BoundQuiver


@dataclass(frozen=True)
class Classification:
    is_string: bool
    is_almost_gentle: bool
    is_sag: bool
    is_gentle: bool
    violations: tuple[tuple[str, object], ...] = field(default_factory=tuple)


def check_s1(bq: BoundQuiver) -> list[str]:
    """Vertices that are the source of >= 3 arrows or the target of >= 3."""
    return [
        v
        for v in bq.vertices
        if len(bq.out_arrows[v]) >= 3 or len(bq.in_arrows[v]) >= 3
    ]


def _side_violations(bq: BoundQuiver, in_ideal_pairs: bool) -> list[tuple[str, str]]:
    """Arrows with more than one continuation on a side whose two-path is
    in the ideal (``in_ideal_pairs``) or relation-free (otherwise)."""

    def counted(first: str, second: str) -> bool:
        return ((first, second) in bq.relation_pairs) == in_ideal_pairs

    bad: list[tuple[str, str]] = []
    for a in bq.arrows:
        succs = [b for b in bq.out_arrows[a.target] if counted(a.id, b.id)]
        if len(succs) > 1:
            bad.append((a.id, "R"))
        preds = [g for g in bq.in_arrows[a.source] if counted(g.id, a.id)]
        if len(preds) > 1:
            bad.append((a.id, "L"))
    return bad


def check_s2(bq: BoundQuiver) -> list[tuple[str, str]]:
    """Arrows with more than one relation-free continuation on a side.

    For each arrow x the successors y with x·y outside the ideal must number
    at most one (side "R"), and dually for predecessors (side "L").
    """
    return _side_violations(bq, in_ideal_pairs=False)


def classify(bq: BoundQuiver) -> Classification:
    """The axioms ``bq`` satisfies, with a witness for each one it fails."""
    return bq.classification


def _classification(bq: BoundQuiver) -> Classification:
    """Compute :attr:`BoundQuiver.classification`; the property caches it."""
    violations: list[tuple[str, object]] = []
    s1 = check_s1(bq)
    for v in s1:
        violations.append(("degree", v))
    s2 = check_s2(bq)
    for arrow, side in s2:
        violations.append(("continuation-" + side, arrow))
    long_rels = [rel for rel in bq.relations if len(rel) != 2]
    for rel in long_rels:
        violations.append(("relation-length", rel))

    is_string = not s1 and not s2
    is_almost_gentle = not s2 and not long_rels
    is_sag = is_string and is_almost_gentle

    gentle_bad = _side_violations(bq, in_ideal_pairs=True) if is_sag else []
    for arrow, side in gentle_bad:
        violations.append(("gentle-" + side, arrow))
    is_gentle = is_sag and not gentle_bad

    return Classification(is_string, is_almost_gentle, is_sag, is_gentle, tuple(violations))
