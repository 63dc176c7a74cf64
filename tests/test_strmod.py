import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from strquiv import (
    Arrow,
    BoundQuiver,
    InvalidWalk,
    Letter,
    RandomSagSpec,
    UnknownVertex,
    Walk,
    algebra_dim,
    arrow_module_string,
    enumerate_paths,
    enumerate_strings,
    format_walk,
    gen_random_sag,
    hom_dim,
    left_forbidden_arrows,
    parse_walk,
    projective_string,
    validate_index,
    verify_endo_dimension,
)


class TestProjectiveString:
    def test_fig5_vertex_1(self, fig5):
        assert format_walk(projective_string(fig5, "1")) == "d'^-1 a e'"

    def test_fig5_vertex_4(self, fig5):
        assert format_walk(projective_string(fig5, "4")) == "a'^-1 d a e'"

    def test_fig5_vertex_6(self, fig5):
        assert format_walk(projective_string(fig5, "6")) == "c'^-1 f c d'"

    def test_sink_gives_trivial_walk(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        w = projective_string(bq, "2")
        assert w.is_trivial and w.anchor == "2"

    def test_single_arrow(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        assert format_walk(projective_string(bq, "1")) == "a"

    def test_unknown_vertex(self, fig5):
        with pytest.raises(UnknownVertex, match="unknown vertex '9'"):
            projective_string(fig5, "9")


class TestArrowModuleString:
    def test_fig5_arrow_a(self, fig5):
        assert format_walk(arrow_module_string(fig5, "a")) == "e'"

    def test_fig5_arrow_e_prime(self, fig5):
        w = arrow_module_string(fig5, "e'")
        assert w.is_trivial and w.anchor == "6"

    def test_sink_arrow(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        w = arrow_module_string(bq, "a")
        assert w.is_trivial and w.anchor == "2"


class TestHomDim:
    def test_simple_identity(self, fig5):
        w = Walk((), "2")
        assert hom_dim(fig5, w, w) == 1

    def test_disjoint_support_is_zero(self):
        bq = BoundQuiver.build(
            ["1", "2", "3", "4"], [Arrow("a", "1", "2"), Arrow("b", "3", "4")]
        )
        assert hom_dim(bq, parse_walk(bq, "a"), parse_walk(bq, "b")) == 0

    def test_projective_hom_oracle_fig5(self, fig5):
        for v in fig5.vertices:
            for w in fig5.vertices:
                expected = len(enumerate_paths(fig5, v, w))
                got = hom_dim(
                    fig5, projective_string(fig5, w), projective_string(fig5, v)
                )
                assert got == expected, (v, w)

    def test_inversion_invariance(self, fig5):
        s2 = projective_string(fig5, "4")
        s1 = projective_string(fig5, "6")
        base = hom_dim(fig5, s2, s1)
        assert hom_dim(fig5, s2.inverse(), s1) == base
        assert hom_dim(fig5, s2, s1.inverse()) == base
        assert hom_dim(fig5, s2.inverse(), s1.inverse()) == base

    def test_endomorphism_at_least_one(self, fig5):
        for v in fig5.vertices:
            s = projective_string(fig5, v)
            assert hom_dim(fig5, s, s) >= 1

    def test_invalid_walk_rejected(self, fig5):
        bad = parse_walk(fig5, "a b")
        with pytest.raises(InvalidWalk):
            hom_dim(fig5, bad, bad)

    def test_chain_quiver_all_pairs(self):
        # 1 -a-> 2 -b-> 3, no relations: hom(P(w), P(v)) = #paths v -> w
        bq = BoundQuiver.build(
            ["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")]
        )
        for v in bq.vertices:
            for w in bq.vertices:
                assert hom_dim(
                    bq, projective_string(bq, w), projective_string(bq, v)
                ) == len(enumerate_paths(bq, v, w))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_projective_hom_oracle_generated(seed):
    bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=4, num_arrows=5))
    for v in bq.vertices:
        for w in bq.vertices:
            assert hom_dim(
                bq, projective_string(bq, w), projective_string(bq, v)
            ) == len(enumerate_paths(bq, v, w))


def _occurrences(w, factor):
    """Reference: each (start, end) letter range of ``w``, with end ==
    start - 1 for a trivial one, whose boundary letters point out of it
    (a factor) or into it (an image)."""
    n = len(w.letters)
    found = []
    for start in range(n + 1):
        for end in range(start - 1, n):
            before = w.letters[start - 1] if start >= 1 else None
            after = w.letters[end + 1] if end + 1 < n else None
            if (before is None or before.inv == factor) and (after is None or after.inv != factor):
                found.append((start, end))
    return found


def _vertex_at(bq, w, pos):
    if w.is_trivial:
        return w.anchor
    if pos == 0:
        letter = w.letters[0]
        arrow = bq.arrow_by_id[letter.arrow]
        return arrow.target if letter.inv else arrow.source
    letter = w.letters[pos - 1]
    arrow = bq.arrow_by_id[letter.arrow]
    return arrow.source if letter.inv else arrow.target


def _key(bq, w, start, end):
    """A trivial occurrence matches by its vertex, a nontrivial one by its letters."""
    return _vertex_at(bq, w, start) if end < start else w.letters[start : end + 1]


def _inverse(letters):
    return tuple(l.inverse() for l in reversed(letters))


def _pairwise_hom_dim(bq, s2, s1):
    """Reference: compare every factor occurrence of s2 with every image
    occurrence of s1, directly and under inversion."""
    total = 0
    images = _occurrences(s1, factor=False)
    for q_start, q_end in _occurrences(s2, factor=True):
        q_key = _key(bq, s2, q_start, q_end)
        for p_start, p_end in images:
            p_key = _key(bq, s1, p_start, p_end)
            if (q_end < q_start) != (p_end < p_start):
                continue
            if q_key == p_key:
                total += 1
            if q_end >= q_start and q_key == _inverse(p_key):
                total += 1
    return total


def _long_string_pairs():
    """Seeded random pairs of strings of up to 8 letters on generated quivers."""
    rng = random.Random(8)
    pairs = []
    for seed in range(10):
        bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=8, num_arrows=12))
        strings = enumerate_strings(bq, 8)
        pairs += [(bq, rng.choice(strings), rng.choice(strings)) for _ in range(100)]
    return pairs


@pytest.mark.parametrize("seed", [None, 1, 2, 3, "long"])
def test_hom_dim_matches_pairwise_reference(seed, fig5):
    if seed == "long":
        pairs = _long_string_pairs()
    else:
        bq = fig5 if seed is None else gen_random_sag(
            RandomSagSpec(seed=seed, num_vertices=8, num_arrows=12)
        )
        strings = enumerate_strings(bq, 4)
        pairs = [(bq, s2, s1) for s2 in strings for s1 in strings]
    for bq, s2, s1 in pairs:
        assert hom_dim(bq, s2, s1) == _pairwise_hom_dim(bq, s2, s1), (
            format_walk(s2),
            format_walk(s1),
        )


def test_hom_dim_of_a_long_zigzag_stays_small():
    # the alternating A_200 with no relations: its zigzag walk has about
    # 200²/8 factor and as many image occurrences, so none may be stored
    n = 200
    bq = BoundQuiver.build(
        [str(i) for i in range(n + 1)],
        [Arrow(f"a{i}", *((str(i), str(i + 1)) if i % 2 == 0 else (str(i + 1), str(i))))
         for i in range(n)],
    )
    w = Walk(tuple(Letter(f"a{i}", i % 2 == 1) for i in range(n)))
    tracemalloc.start()
    try:
        assert hom_dim(bq, w, w) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _end_dim(bq, summands):
    """Reference: dim End of the direct sum of the string modules of
    ``summands``, as the summed factor-key counts times the summed
    image-key counts of every occurrence of every summand.  A nontrivial
    image counts under its letters and under its inverse's."""
    factors: Counter = Counter()
    images: Counter = Counter()
    for w in summands:
        factors.update(_key(bq, w, *q) for q in _occurrences(w, factor=True))
        for start, end in _occurrences(w, factor=False):
            key = _key(bq, w, start, end)
            images[key] += 1
            if end >= start:
                images[_inverse(key)] += 1
    return sum(n * images[key] for key, n in factors.items())


def _assert_split_matches_tables(bq, arrows):
    index = validate_index(bq, arrows)
    summands = [projective_string(bq, v) for v in bq.vertices]
    summands += [arrow_module_string(bq, alpha) for alpha in index.arrows]
    assert verify_endo_dimension(bq, index).dim_source_endo == _end_dim(bq, summands), arrows


def _in_order(bq, arrows):
    return sorted(arrows, key=lambda x: bq.arrow_index[x])


def test_endo_split_matches_tables_on_fig5(fig5):
    left = _in_order(fig5, left_forbidden_arrows(fig5))
    for size in range(len(left) + 1):
        for arrows in itertools.combinations(left, size):
            _assert_split_matches_tables(fig5, arrows)


@pytest.mark.parametrize("seed", range(60))
def test_endo_split_matches_tables_on_generated(seed):
    bq = gen_random_sag(
        RandomSagSpec(seed=seed, num_vertices=12, num_arrows=18, relation_density=0.5)
    )
    left = _in_order(bq, left_forbidden_arrows(bq))
    for arrows in [[]] + [[alpha] for alpha in left] + [left]:
        _assert_split_matches_tables(bq, arrows)


@pytest.mark.parametrize("n", range(61))
def test_endo_split_matches_tables_on_linear(n):
    # A_n has no relations, so R = ∅; there the identity reads dim A = dim A
    # and is a tautology, but both counts of dim End(A_A) must still agree
    bq = BoundQuiver.build(
        [str(i) for i in range(n + 1)], [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(n)]
    )
    _assert_split_matches_tables(bq, [])
    assert verify_endo_dimension(bq, validate_index(bq, [])).dim_source_endo == (
        (n + 1) * (n + 2) // 2
    )


def _projectives_dim(bq):
    # A_A = ⊕_v P(v), and dim P(v) is the number of vertices of proj(v)
    return sum(len(projective_string(bq, v)) + 1 for v in bq.vertices)


def test_dim_a_is_the_sum_of_projective_dims_on_fig5(fig5):
    assert algebra_dim(fig5) == _projectives_dim(fig5)


@pytest.mark.parametrize("n", range(61))
def test_dim_a_is_the_sum_of_projective_dims_on_linear(n):
    bq = BoundQuiver.build(
        [str(i) for i in range(n + 1)], [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(n)]
    )
    assert algebra_dim(bq) == _projectives_dim(bq) == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("seed", range(40))
def test_dim_a_is_the_sum_of_projective_dims_on_generated(seed):
    bq = gen_random_sag(
        RandomSagSpec(seed=seed, num_vertices=12, num_arrows=18, relation_density=0.5)
    )
    assert algebra_dim(bq) == _projectives_dim(bq)
