import random

from hypothesis import given, settings, strategies as st

from strquiv import (
    Arrow,
    BoundQuiver,
    Path,
    RandomSagSpec,
    check_s1,
    check_s2,
    classify,
    gen_random_sag,
    in_ideal,
)


def test_fig1_is_string_not_sag(fig1):
    c = classify(fig1)
    assert c.is_string and not c.is_almost_gentle and not c.is_sag
    witnesses = [w for kind, w in c.violations if kind == "relation-length"]
    assert witnesses == [("a'", "e", "b"), ("b'", "f", "c"), ("c'", "d", "a")]


def test_fig5_is_sag_not_gentle(fig5):
    c = classify(fig5)
    assert c.is_string and c.is_almost_gentle and c.is_sag
    # e.g. both d'e and d'b' are relations, so d' has two blocked
    # continuations on the right: gentle fails
    assert not c.is_gentle


def test_s1_star_quiver():
    bq = BoundQuiver.build(
        ["0", "1", "2", "3"],
        [Arrow("a", "0", "1"), Arrow("b", "0", "2"), Arrow("c", "0", "3")],
    )
    assert check_s1(bq) == ["0"]
    assert not classify(bq).is_string


def test_s2_violation_when_relation_removed(fig5):
    # dropping the relation ab leaves a with two relation-free
    # continuations b and e'
    relations = tuple(r for r in fig5.relations if r != ("a", "b"))
    bq = BoundQuiver.build(fig5.vertices, fig5.arrows, relations)
    assert ("a", "R") in check_s2(bq)


def test_empty_quiver_all_flags():
    c = classify(BoundQuiver.build(["1"], []))
    assert c.is_string and c.is_almost_gentle and c.is_sag and c.is_gentle


def test_single_arrow_vacuous():
    bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
    assert check_s1(bq) == [] and check_s2(bq) == []


def test_sag_implies_length_two_relations(fig5):
    assert classify(fig5).is_sag
    assert all(len(r) == 2 for r in fig5.relations)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_classification_invariant_under_relabeling(seed):
    bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=4, num_arrows=5))
    rng = random.Random(seed)
    ids = list(bq.vertices) + [a.id for a in bq.arrows]
    new_ids = [f"x{i}" for i in range(len(ids))]
    rng.shuffle(new_ids)
    rename = dict(zip(ids, new_ids))
    relabeled = BoundQuiver.build(
        [rename[v] for v in bq.vertices],
        [Arrow(rename[a.id], rename[a.source], rename[a.target]) for a in bq.arrows],
        [tuple(rename[x] for x in rel) for rel in bq.relations],
    )
    def flags(c):
        return (c.is_string, c.is_almost_gentle, c.is_sag, c.is_gentle)

    assert flags(classify(relabeled)) == flags(classify(bq))


def _two_pass_side_violations(bq, in_ideal_pairs):
    """Reference: arrows with more than one continuation on a side whose
    two-path is in the ideal (``in_ideal_pairs``) or relation-free."""

    def counted(first, second):
        return in_ideal(bq, Path((first, second))) == in_ideal_pairs

    bad = []
    for a in bq.arrows:
        if len([b for b in bq.out_arrows[a.target] if counted(a.id, b.id)]) > 1:
            bad.append((a.id, "R"))
        if len([g for g in bq.in_arrows[a.source] if counted(g.id, a.id)]) > 1:
            bad.append((a.id, "L"))
    return bad


def _reference_classification(bq):
    """The four flags and the violations, from two passes over the arrows."""
    s1 = check_s1(bq)
    s2 = _two_pass_side_violations(bq, in_ideal_pairs=False)
    long_rels = [rel for rel in bq.relations if len(rel) != 2]
    is_string = not s1 and not s2
    is_almost_gentle = not s2 and not long_rels
    is_sag = is_string and is_almost_gentle
    gentle_bad = _two_pass_side_violations(bq, in_ideal_pairs=True) if is_sag else []
    violations = [("degree", v) for v in s1]
    violations += [("continuation-" + side, arrow) for arrow, side in s2]
    violations += [("relation-length", rel) for rel in long_rels]
    violations += [("gentle-" + side, arrow) for arrow, side in gentle_bad]
    flags = (is_string, is_almost_gentle, is_sag, is_sag and not gentle_bad)
    return flags, violations, s2


def _random_quiver(seed):
    """Up to six vertices and nine arrows with random endpoints, so loops,
    parallel arrows and vertices of degree 3 occur; mostly length-2
    relations, sometimes a length-3 one."""
    rng = random.Random(seed)
    vertices = [str(i) for i in range(rng.randint(1, 6))]
    arrows = [Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 9))]
    density = rng.random()
    relations = [(a.id, b.id) for a in arrows for b in arrows if a.target == b.source and rng.random() < density]
    for a in arrows:
        if rng.random() < 0.05:
            nexts = [b for b in arrows if b.source == a.target]
            if nexts:
                b = rng.choice(nexts)
                lasts = [c for c in arrows if c.source == b.target]
                if lasts:
                    relations.append((a.id, b.id, rng.choice(lasts).id))
    return BoundQuiver.build(vertices, arrows, relations)


def test_one_pass_classification_matches_the_two_pass_reference(fig1, fig5):
    quivers = [fig1, fig5] + [_random_quiver(seed) for seed in range(400)]
    seen = {"loop": 0, "parallel": 0, "degree": 0, "sag": 0, "gentle": 0, "gentle-": 0}
    for bq in quivers:
        c = classify(bq)
        flags, violations, s2 = _reference_classification(bq)
        assert (c.is_string, c.is_almost_gentle, c.is_sag, c.is_gentle) == flags
        assert list(c.violations) == violations
        assert check_s2(bq) == s2
        ends = [(a.source, a.target) for a in bq.arrows]
        seen["loop"] += any(s == t for s, t in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["degree"] += bool(check_s1(bq))
        seen["sag"] += c.is_sag
        seen["gentle"] += c.is_gentle
        seen["gentle-"] += any(kind.startswith("gentle-") for kind, _ in c.violations)
    assert min(seen.values()) >= 20, seen
