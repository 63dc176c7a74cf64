import pytest

from strquiv import (
    Arrow,
    BoundQuiver,
    DanglingEndpoint,
    DuplicateId,
    InfiniteDimensional,
    NonComposableRelation,
    Path,
    RelationTooShort,
    algebra_dim,
    enumerate_paths,
    in_ideal,
    is_finite_dimensional,
)


def chain(n, relations=()):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return BoundQuiver.build(vertices, arrows, relations)


class TestBuild:
    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateId):
            BoundQuiver.build(["1", "1"], [])

    def test_arrow_id_clashes_with_vertex(self):
        with pytest.raises(DuplicateId):
            BoundQuiver.build(["1", "2"], [Arrow("1", "1", "2")])

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint):
            BoundQuiver.build(["1"], [Arrow("a", "1", "9")])

    def test_relation_too_short(self):
        with pytest.raises(RelationTooShort):
            BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")], [("a",)])

    def test_non_composable_relation(self):
        with pytest.raises(NonComposableRelation):
            BoundQuiver.build(
                ["1", "2", "3"],
                [Arrow("a", "1", "2"), Arrow("b", "1", "3")],
                [("a", "b")],
            )

    def test_factor_minimal_normalization(self):
        # a2a3 already forbids any word containing a1a2a3; the longer
        # generator is redundant and dropped.
        bq = chain(4, [("a2", "a3"), ("a1", "a2", "a3")])
        assert bq.relations == (("a2", "a3"),)


class TestIdeal:
    def test_membership_is_factor_containment(self, fig1):
        assert in_ideal(fig1, Path(("a", "b")))
        assert in_ideal(fig1, Path(("c", "a", "b")))
        assert not in_ideal(fig1, Path(("a", "e'")))
        # length-3 generator: proper prefixes stay outside
        assert in_ideal(fig1, Path(("a'", "e", "b")))
        assert not in_ideal(fig1, Path(("a'", "e")))
        assert not in_ideal(fig1, Path(("e", "b")))

    def test_trivial_path_never_in_ideal(self, fig1):
        assert not in_ideal(fig1, Path((), "1"))


class TestFiniteness:
    def test_relation_free_cycle_is_infinite(self):
        bq = BoundQuiver.build(
            ["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")]
        )
        assert not is_finite_dimensional(bq)

    def test_relations_cut_the_cycle(self, fig1, fig5):
        assert is_finite_dimensional(fig1)
        assert is_finite_dimensional(fig5)

    def test_enumerate_paths_raises_on_infinite(self):
        bq = BoundQuiver.build(
            ["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")]
        )
        with pytest.raises(InfiniteDimensional):
            enumerate_paths(bq, "1", "1")


class TestPathsAndDim:
    def test_fig5_paths_from_6_to_4(self, fig5):
        assert [p.arrows for p in enumerate_paths(fig5, "6", "4")] == [("c'",)]

    def test_fig5_paths_from_1_to_6(self, fig5):
        assert [p.arrows for p in enumerate_paths(fig5, "1", "6")] == [("a", "e'")]

    def test_trivial_path_included(self, fig5):
        paths = enumerate_paths(fig5, "1", "1")
        assert paths[0].is_trivial and paths[0].anchor == "1"

    def test_chain_dimension(self):
        # k(1 -> 2 -> 3) has basis {e1, e2, e3, a1, a2, a1a2}
        assert algebra_dim(chain(3)) == 6
        # killing a1a2 drops exactly one basis path
        assert algebra_dim(chain(3, [("a1", "a2")])) == 5

    def test_dim_is_total_path_count(self, fig5):
        total = sum(
            len(enumerate_paths(fig5, v, w))
            for v in fig5.vertices
            for w in fig5.vertices
        )
        assert algebra_dim(fig5) == total == 27


def test_infinite_dimensional_names_the_cycle():
    # a b is a relation, so the only relation-free cycle is a c
    bq = BoundQuiver.build(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "1"), Arrow("c", "2", "1")],
        [("a", "b")],
    )
    with pytest.raises(InfiniteDimensional, match=r"cycle exists: a c$"):
        algebra_dim(bq)
