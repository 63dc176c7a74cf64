import ast
import random
from pathlib import Path as FilePath

import pytest

from strquiv import (
    Arrow,
    BoundQuiver,
    DanglingEndpoint,
    DuplicateId,
    InfiniteDimensional,
    InvalidPath,
    NonComposableRelation,
    Path,
    RandomSagSpec,
    RelationTooShort,
    algebra_dim,
    core,
    enumerate_paths,
    gen_random_sag,
    in_ideal,
    is_finite_dimensional,
    left_forbidden_arrows,
    parse_quiver,
)
from strquiv.core import FactorAutomaton
from strquiv.walks import _double


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

    @pytest.mark.parametrize(
        ("vertices", "arrows", "relations", "error", "message"),
        [
            (["1", "1"], [Arrow("a", "1", "9")], [("zz",)], DuplicateId,
             "duplicate vertex id '1'"),
            (["1"], [Arrow("1", "1", "9")], [("zz",)], DuplicateId, "duplicate id '1'"),
            (["1"], [Arrow("a", "1", "9")], [("zz",)], DanglingEndpoint,
             "arrow 'a': undeclared endpoint"),
            (["1", "2"], [Arrow("a", "1", "2")], [("a", "b"), ("a",)], DanglingEndpoint,
             "relation uses unknown arrow 'b'"),
            (["1", "2"], [Arrow("a", "1", "2")], [("a",), ("a", "b")], RelationTooShort,
             "relation 'a' has length < 2"),
        ],
        ids=["vertex-before-endpoint", "arrow-before-endpoint", "endpoint-before-relation",
             "first-relation-first", "short-relation-first"],
    )
    def test_errors_come_in_input_order(self, vertices, arrows, relations, error, message):
        with pytest.raises(error) as err:
            BoundQuiver.build(vertices, arrows, relations)
        assert str(err.value) == message


def _count_automata(monkeypatch):
    built = []
    init = FactorAutomaton.__init__

    def counted(self, words):
        built.append(self)
        init(self, words)

    monkeypatch.setattr(FactorAutomaton, "__init__", counted)
    return built


def test_build_keeps_the_automaton_it_normalizes_with(monkeypatch):
    built = _count_automata(monkeypatch)
    # relations of lengths 2 and 3, neither a factor of the other
    bq = chain(5, [("a1", "a2"), ("a2", "a3", "a4")])
    assert bq.relations == (("a1", "a2"), ("a2", "a3", "a4"))
    assert {"automaton", "vertex_index", "arrow_by_id"} <= set(vars(bq))
    assert algebra_dim(bq) == 11  # 15 paths, 4 through a relation
    assert len(built) == 1 and bq.automaton is built[0]


def test_build_of_one_relation_length_makes_no_automaton(monkeypatch):
    built = _count_automata(monkeypatch)
    bq = chain(5, [("a1", "a2"), ("a3", "a4"), ("a1", "a2")])
    assert bq.relations == (("a1", "a2"), ("a3", "a4"))
    assert "automaton" not in vars(bq) and not built


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

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda bq: Path((), None), "trivial path needs an anchor vertex"),
            (lambda bq: in_ideal(bq, Path((), "9")), "unknown vertex '9'"),
            (lambda bq: in_ideal(bq, Path(("a", "zz"))), "unknown arrow 'zz'"),
            (lambda bq: enumerate_paths(bq, "9", "1"), "unknown vertex in ('9', '1')"),
        ],
        ids=["no-anchor", "in-ideal-vertex", "in-ideal-arrow", "enumerate-paths-vertex"],
    )
    def test_invalid_paths(self, fig1, call, message):
        with pytest.raises(InvalidPath) as err:
            call(fig1)
        assert str(err.value) == message


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


def test_infinite_dimensional_names_a_cycle_of_int_letters(fig5):
    # fig5 has a band, so its double quiver, whose letters are ints, has a
    # relation-free cycle
    double = _double(fig5)
    cycle = " ".join(map(str, double.relation_free_cycle))
    with pytest.raises(InfiniteDimensional, match=f"cycle exists: {cycle}$"):
        algebra_dim(double)


def _random_bound_quiver(seed):
    """Five vertices, eight arrows and composable relation words of length
    2 to 4, with repeats and words nested inside one another."""
    rng = random.Random(seed)
    vertices = [str(i) for i in range(5)]
    arrows = [Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(8)]
    out = {v: [a for a in arrows if a.source == v] for v in vertices}
    words = []
    for _ in range(12):
        length = rng.randint(2, 4)
        word = [rng.choice(arrows)]
        while len(word) < length and out[word[-1].target]:
            word.append(rng.choice(out[word[-1].target]))
        if len(word) >= 2:
            words.append(tuple(x.id for x in word))
            if rng.random() < 0.3:
                words.append(words[rng.randrange(len(words))])
    return BoundQuiver.build(vertices, arrows, words), words


def _pairwise_factor_minimal(words):
    """Reference: compare every pair of generators."""
    unique = []
    for w in words:
        if w not in unique:
            unique.append(w)

    def is_factor(needle, haystack):
        n = len(needle)
        return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))

    return tuple(w for w in unique if not any(s != w and is_factor(s, w) for s in unique))


@pytest.mark.parametrize("seed", range(40))
def test_relations_match_pairwise_normalization(seed):
    bq, words = _random_bound_quiver(seed)
    assert bq.relations == _pairwise_factor_minimal(words)


@pytest.mark.parametrize("seed", range(40))
def test_relation_pairs_decide_two_arrow_membership(seed):
    bq, _ = _random_bound_quiver(seed)
    after, before = bq._relation_partners
    heads = set()
    for a in bq.arrows:
        for b in bq.out_arrows[a.target]:
            member = in_ideal(bq, Path((a.id, b.id)))
            assert (b.id in after.get(a.id, ()), a.id in before.get(b.id, ())) == (member, member)
            if member:
                heads.add(a.id)
    assert left_forbidden_arrows(bq) == heads


def test_enumerate_paths_come_in_length_and_declaration_order(fig1, fig5):
    quivers = [fig1, fig5]
    for seed in range(200):
        bq, _ = _random_bound_quiver(seed)
        if is_finite_dimensional(bq):
            quivers.append(bq)
    assert len(quivers) >= 32
    for bq in quivers:
        idx = {a.id: i for i, a in enumerate(bq.arrows)}
        total = 0
        for s in bq.vertices:
            for t in bq.vertices:
                paths = enumerate_paths(bq, s, t)
                assert paths == sorted(paths, key=lambda p: (len(p), [idx[x] for x in p.arrows]))
                assert len(set(paths)) == len(paths)
                total += len(paths)
        assert total == algebra_dim(bq)


def test_automaton_names_the_word_ending_earliest():
    # ("b", "c") is a factor of the other word, so the set is not
    # factor-minimal, and "abc" is accepted through a failure link
    automaton = FactorAutomaton([("a", "b", "c", "d"), ("b", "c")])
    for word in ("abc", "abcd", "xbc", "bcd"):
        assert automaton.first_factor(tuple(word)) == ("b", "c"), word
    for word in ("abx", "ab", "cb", ""):
        assert automaton.first_factor(tuple(word)) is None, word
    assert FactorAutomaton([("a", "b"), ("x", "a", "b", "c")]).first_factor("xabc") == ("a", "b")


@pytest.mark.parametrize("seed", range(20))
def test_quadratic_ideal_membership_reads_the_partner_table(monkeypatch, seed):
    bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=12, num_arrows=18, relation_density=0.6))
    reference = FactorAutomaton(bq.relations).first_factor
    built = _count_automata(monkeypatch)
    rng = random.Random(seed)
    ids = [a.id for a in bq.arrows]
    found = 0
    for _ in range(300):
        # a word of random arrows, and a path that follows them
        word = [rng.choice(ids) for _ in range(rng.randint(0, 8))]
        path = [rng.choice(ids)]
        while len(path) < 8 and (out := bq.out_arrows[bq.arrow_by_id[path[-1]].target]):
            path.append(rng.choice(out).id)
        for w in (tuple(word), tuple(path)):
            relation = core.word_in_ideal(bq, w)
            assert relation == reference(w)
            found += relation is not None
    assert found > 50 and not built


def test_dimension_counts_over_the_edges_the_search_stepped(monkeypatch):
    generated = gen_random_sag(RandomSagSpec(seed=0, num_vertices=20, num_arrows=30))
    fresh = [
        parse_quiver((FilePath(__file__).parent.parent / "fixtures" / "fig5.quiver").read_text()),
        chain(50),
        # a plain copy, so that no search is cached on it
        BoundQuiver(generated.vertices, generated.arrows, generated.relations),
    ]
    searched, built = [], []
    search, graph = core._depth_first, core._ProductGraph
    monkeypatch.setattr(core, "_depth_first", lambda g, roots: searched.append(g) or search(g, roots))
    monkeypatch.setattr(core, "_ProductGraph", lambda *fields: built.append(graph(*fields)) or built[-1])
    for bq in fresh:
        searched.clear()
        built.clear()
        assert is_finite_dimensional(bq)
        g = bq._product_graph
        assert len(built) == len(searched) == 1 and built[0] is searched[0] is g
        dim = algebra_dim(bq)
        # the count reads the graph and the order the search stored, and
        # builds and searches nothing more
        assert len(built) == len(searched) == 1
        # the search finished every node of the graph
        assert sorted(bq._product_search[1]) == list(range(len(g.out)))
        assert dim == sum(len(enumerate_paths(bq, s, t)) for s in bq.vertices for t in bq.vertices)


def test_core_imports_no_module_of_the_package_but_errors():
    # core is the bottom layer: classify, forbidden and walks own and cache
    # the facts they derive, so core reads none of them, not even lazily
    tree = ast.parse(FilePath(core.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == ["errors"]
    absolute = [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in imports if isinstance(node, ast.ImportFrom) and not node.level]
    assert not [name for name in absolute if name.split(".")[0] == "strquiv"]
