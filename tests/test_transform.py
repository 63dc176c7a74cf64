import importlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strquiv import (
    Arrow,
    BoundQuiver,
    DuplicateId,
    InvalidWalk,
    Letter,
    NotLeftForbidden,
    NotSAG,
    RIndex,
    RandomSagSpec,
    UnknownArrow,
    Walk,
    algebra_dim,
    classify,
    cma,
    enumerate_paths,
    find_band,
    format_walk,
    gen_random_sag,
    is_finite_dimensional,
    left_forbidden_arrows,
    lift_walk,
    parse_quiver,
    parse_walk,
    perfect_index,
    r_transform,
    validate_band,
    validate_index,
    validate_string,
    verify_endo_dimension,
)

B_TEXT = "cycle( a' d'^-1 a e^-1 b' e'^-1 b f^-1 c' f'^-1 c d^-1 )"
B_LIFTED = (
    "cycle( a' d'^-1 a_L a_R e^-1 b' e'^-1 b_L b_R f^-1 c' f'^-1 c_L c_R d^-1 )"
)


class TestValidateIndex:
    def test_fig1_example_index(self, fig1):
        idx = validate_index(fig1, ["a", "d", "a'"])
        assert idx.arrows == ("a", "d", "a'")

    def test_empty_always_valid(self, fig1):
        assert validate_index(fig1, []).arrows == ()

    def test_iterator_gives_the_same_index(self, fig5):
        idx = validate_index(fig5, (x for x in ["a", "a'"]))
        assert idx == validate_index(fig5, ["a", "a'"]) and idx.arrows == ("a", "a'")

    def test_not_left_forbidden(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        with pytest.raises(NotLeftForbidden):
            validate_index(bq, ["a"])

    def test_unknown_arrow_is_not_called_left_forbidden(self, fig5):
        with pytest.raises(UnknownArrow, match="unknown arrow 'zz'"):
            validate_index(fig5, ["a", "zz"])


class TestRTransform:
    def test_fig1_matches_expected(self, fig1, fig4_expected):
        tr = r_transform(fig1, validate_index(fig1, ["a", "d", "a'"]))
        assert tr.quiver == fig4_expected
        assert tr.vertex_map == {"a": "v_a", "d": "v_d", "a'": "v_a'"}
        assert tr.arrow_map["a"] == ("a_L", "a_R")

    def test_empty_index_is_identity(self, fig1, fig5):
        for bq in (fig1, fig5):
            assert r_transform(bq, validate_index(bq, [])).quiver == bq

    def test_structural_counts(self, fig5):
        idx = validate_index(fig5, ["a", "b", "c"])
        tr = r_transform(fig5, idx)
        assert len(tr.quiver.vertices) == len(fig5.vertices) + 3
        assert len(tr.quiver.arrows) == len(fig5.arrows) + 3

    def test_split_pair_composes_freely(self, fig5):
        from strquiv import Path, in_ideal

        tr = r_transform(fig5, validate_index(fig5, ["a"]))
        left, right = tr.arrow_map["a"]
        assert not in_ideal(tr.quiver, Path((left, right)))

    def test_fresh_id_collision_handling(self):
        bq = BoundQuiver.build(
            ["1", "2", "3", "v_a"],
            [Arrow("a", "1", "2"), Arrow("a_L", "2", "3"), Arrow("b", "2", "3")],
            [("a", "b")],
        )
        tr = r_transform(bq, validate_index(bq, ["a"]))
        assert tr.vertex_map["a"] == "v_a2"
        assert tr.arrow_map["a"] == ("a_L2", "a_R")

    def test_sag_preserved(self, fig5):
        tr = r_transform(fig5, validate_index(fig5, ["a", "b", "c"]))
        assert classify(tr.quiver).is_sag


def _random_bound_quiver(seed: int) -> BoundQuiver:
    """A quiver on 2-6 vertices whose relations are random paths of length
    2-5, normalised by build."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(rng.randint(2, 6))]
    arrows = [Arrow(f"x{j}", rng.choice(vertices), rng.choice(vertices))
              for j in range(rng.randint(1, 9))]
    relations = []
    for _ in range(rng.randint(1, 6)):
        word = [rng.choice(arrows)]
        length = rng.randint(2, 5)
        while len(word) < length:
            nexts = [a for a in arrows if a.source == word[-1].target]
            if not nexts:
                break
            word.append(rng.choice(nexts))
        if len(word) > 1:
            relations.append([a.id for a in word])
    return BoundQuiver.build(vertices, arrows, relations)


def _split_quivers(bq: BoundQuiver):
    """The split quiver at every subset of the left-forbidden arrows."""
    lf = [a.id for a in bq.arrows if a.id in left_forbidden_arrows(bq)]
    for r in range(len(lf) + 1):
        for subset in itertools.combinations(lf, r):
            yield r_transform(bq, validate_index(bq, subset)).quiver


def _unchanged_by_build(q: BoundQuiver) -> bool:
    return BoundQuiver.build(q.vertices, q.arrows, q.relations) == q


class TestSplitQuiverNeedsNoBuild:
    """r_transform uses the plain constructor; build must have nothing to
    validate or normalise in its output."""

    def test_fig1_every_index(self, fig1):
        assert all(_unchanged_by_build(q) for q in _split_quivers(fig1))

    def test_fig5_every_index(self, fig5):
        quivers = list(_split_quivers(fig5))
        assert len(quivers) == 4096
        assert all(_unchanged_by_build(q) for q in quivers)

    def test_random_bound_quivers(self):
        quivers = [_random_bound_quiver(seed) for seed in range(1500)]
        assert sum(any(len(r) > 2 for r in bq.relations) for bq in quivers) > 500
        for seed, bq in enumerate(quivers):
            assert all(_unchanged_by_build(q) for q in _split_quivers(bq)), seed

    def test_generated_quivers(self):
        for seed in range(20):
            bq = gen_random_sag(RandomSagSpec(seed, 12, 18, 0.4))
            lf = [a.id for a in bq.arrows if a.id in left_forbidden_arrows(bq)]
            for subset in (lf, lf[::2], lf[1::3]):
                q = r_transform(bq, validate_index(bq, subset)).quiver
                assert _unchanged_by_build(q), (seed, subset)

    def test_hand_built_index_repeating_an_arrow(self, fig5):
        with pytest.raises(DuplicateId):
            r_transform(fig5, RIndex(("a", "a")))
        with pytest.raises(DuplicateId):  # reported before the unknown arrow
            r_transform(fig5, RIndex(("zz", "zz")))

    def test_hand_built_index_out_of_order_splits_in_declaration_order(self, fig5):
        tr = r_transform(fig5, RIndex(("c", "a")))
        assert tr == r_transform(fig5, validate_index(fig5, ["c", "a"]))
        assert tr.quiver.vertices[-2:] == ("v_a", "v_c")
        assert list(tr.vertex_map) == ["a", "c"]

    def test_hand_built_index_naming_an_unknown_arrow(self, fig5):
        with pytest.raises(UnknownArrow):
            r_transform(fig5, RIndex(("zz",)))

    def test_verify_at_a_hand_built_index_naming_an_unknown_arrow(self, fig5):
        with pytest.raises(UnknownArrow):
            verify_endo_dimension(fig5, RIndex(("zz",)))

    def test_verify_at_a_hand_built_index_repeating_an_arrow(self, fig5):
        with pytest.raises(DuplicateId):
            verify_endo_dimension(fig5, RIndex(("a", "a")))

    def test_hand_built_index_naming_an_arrow_that_is_not_left_forbidden(self):
        chain = BoundQuiver.build(
            ["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")]
        )
        with pytest.raises(NotLeftForbidden):
            r_transform(chain, RIndex(("a",)))
        with pytest.raises(NotLeftForbidden):
            verify_endo_dimension(chain, RIndex(("a",)))


class TestLiftWalk:
    def test_reference_band(self, fig5):
        tr = r_transform(fig5, validate_index(fig5, ["a", "b", "c"]))
        lifted = lift_walk(tr, parse_walk(fig5, B_TEXT))
        assert format_walk(lifted) == B_LIFTED
        assert validate_band(tr.quiver, lifted)

    def test_trivial_walk(self, fig5):
        tr = r_transform(fig5, validate_index(fig5, ["a"]))
        w = Walk((), "3")
        assert lift_walk(tr, w) == w

    def test_single_split_letter(self, fig5):
        tr = r_transform(fig5, validate_index(fig5, ["a"]))
        lifted = lift_walk(tr, parse_walk(fig5, "a"))
        assert format_walk(lifted) == "a_L a_R"
        assert validate_string(tr.quiver, lifted)

    def test_inverse_split_letter(self, fig5):
        tr = r_transform(fig5, validate_index(fig5, ["a"]))
        lifted = lift_walk(tr, parse_walk(fig5, "a^-1"))
        assert format_walk(lifted) == "a_R^-1 a_L^-1"

    @pytest.mark.parametrize(
        ("walk", "message"),
        [
            (Walk((), "9"), "anchor '9' not in transformed quiver"),
            (Walk((Letter("zz", False),)), "letter 'zz' unknown to the transform"),
            (Walk((), "v_a"), "anchor 'v_a' is a split vertex"),
            (
                Walk((Letter("b", False), Letter("a_R", False))),
                "letter 'a_R' is a split arrow",
            ),
        ],
        ids=["anchor", "letter", "split-anchor", "split-letter"],
    )
    def test_unknown_walk_is_rejected(self, fig5, walk, message):
        tr = r_transform(fig5, validate_index(fig5, ["a"]))
        with pytest.raises(InvalidWalk) as err:
            lift_walk(tr, walk)
        assert str(err.value) == message


class TestCma:
    def test_fig5_matches_expected(self, fig5, fig6_expected):
        assert cma(fig5).quiver == fig6_expected

    def test_equals_transform_at_perfect_index(self, fig5):
        assert cma(fig5).quiver == r_transform(
            fig5, validate_index(fig5, ["a", "b", "c"])
        ).quiver

    def test_no_perfect_cycles_identity(self):
        bq = BoundQuiver.build(
            ["1", "2", "3"],
            [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
            [("a", "b")],
        )
        assert cma(bq).quiver == bq

    def test_non_sag_rejected(self, fig1):
        with pytest.raises(NotSAG) as info:
            cma(fig1)
        assert info.value.violations == classify(fig1).violations
        assert [kind for kind, _ in info.value.violations] == ["relation-length"] * 3
        assert str(info.value).endswith(
            ": relation-length a' e b; relation-length b' f c; relation-length c' d a"
        )


class TestVerifyEndoDimension:
    def test_fig5_perfect_index(self, fig5):
        report = verify_endo_dimension(fig5, validate_index(fig5, ["a", "b", "c"]))
        assert report.dimensions_match
        assert report.dim_source_endo == report.dim_transformed

    def test_empty_index_gives_algebra_dim(self, fig5):
        report = verify_endo_dimension(fig5, validate_index(fig5, []))
        assert report.dim_source_endo == report.dim_transformed == algebra_dim(fig5)

    def test_perfect_index_singletons(self, fig5):
        for alpha in ("a", "b", "c"):
            report = verify_endo_dimension(fig5, validate_index(fig5, [alpha]))
            assert report.dimensions_match, alpha

    def test_dimension_identity_can_fail_outside_perfect_index(self, fig5):
        # {d'} is a valid left forbidden index, but d'A is simple and the
        # arrow a' is a second radical-annihilated element landing at t(d'),
        # so End(A + d'A) picks up a hom d' |-> a' with no counterpart path
        # in the transformed quiver (d.d'_L lies in the transformed ideal).
        # The identity is only asserted for indices inside the perfect index;
        # this pins the known boundary.  See README "Scope of the dimension
        # identity".
        report = verify_endo_dimension(fig5, validate_index(fig5, ["d'"]))
        assert (report.dim_source_endo, report.dim_transformed) == (33, 32)
        assert not report.dimensions_match
        report = verify_endo_dimension(fig5, validate_index(fig5, ["a'"]))
        assert (report.dim_source_endo, report.dim_transformed) == (33, 30)

    def test_non_sag_rejected(self, fig1):
        with pytest.raises(NotSAG):
            verify_endo_dimension(fig1, validate_index(fig1, ["a"]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_reptype_preserved_and_bands_lift(seed):
    from strquiv import representation_type

    bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=4, num_arrows=5))
    left = sorted(left_forbidden_arrows(bq))
    idx = validate_index(bq, left)
    tr = r_transform(bq, idx)
    assert representation_type(tr.quiver) == representation_type(bq)
    band = find_band(bq)
    if band is not None:
        assert validate_band(tr.quiver, lift_walk(tr, band))


@pytest.mark.parametrize(
    "at_perfect_index, expected", [(True, (887, 887)), (False, (876, 876))]
)
def test_endo_dimension_pinned_at_200_vertices(at_perfect_index, expected):
    # a size at which comparing substrings pair by pair took minutes
    bq = gen_random_sag(
        RandomSagSpec(seed=3, num_vertices=200, num_arrows=300, relation_density=0.4)
    )
    index = perfect_index(bq).arrows if at_perfect_index else []
    report = verify_endo_dimension(bq, validate_index(bq, index))
    assert (report.dim_source_endo, report.dim_transformed) == expected


def test_classification_is_computed_once_per_quiver(monkeypatch):
    module = importlib.import_module("strquiv.classify")
    original = module._continuation_witnesses
    calls = []

    def counted(bq):
        calls.append(bq)
        return original(bq)

    monkeypatch.setattr(module, "_continuation_witnesses", counted)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "fig5.quiver"
    bq = parse_quiver(fixture.read_text())
    index = validate_index(bq, ["a", "b"])
    for _ in range(2):
        verify_endo_dimension(bq, index)
    # one pass yields both the (S2) and the gentle witnesses
    assert len(calls) == 1


def _fresh_fig5():
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "fig5.quiver"
    return parse_quiver(fixture.read_text())


def _count_calls(monkeypatch, module_name, name):
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_product_graph_is_searched_once_per_quiver(monkeypatch):
    calls = _count_calls(monkeypatch, "strquiv.core", "_depth_first")
    bq = _fresh_fig5()
    assert is_finite_dimensional(bq)
    assert algebra_dim(bq) == algebra_dim(bq)
    verify_endo_dimension(bq, validate_index(bq, []))
    # one search of bq's product graph; split at no arrow, bq is its own
    # transformed quiver
    assert len(calls) == 1


def _record_graphs(monkeypatch):
    """Each product graph built, as it is built."""
    core = importlib.import_module("strquiv.core")
    built, graph = [], core._ProductGraph
    monkeypatch.setattr(core, "_ProductGraph", lambda *fields: built.append(graph(*fields)) or built[-1])
    return built


def test_verify_counts_the_source_paths_in_one_pass(monkeypatch):
    """Both sides come from one count of A's paths, at R = ∅ and at {a},
    over A's product graph, the only one built and searched."""
    calls = []
    for name in ("strquiv.core", "strquiv.transform"):
        module = importlib.import_module(name)

        def counted(*args, original=module._paths_into):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_paths_into", counted)
    built = _record_graphs(monkeypatch)
    searches = _count_calls(monkeypatch, "strquiv.core", "_depth_first")
    for arrows in ([], ["a"]):
        calls.clear()
        built.clear()
        searches.clear()
        bq = _fresh_fig5()
        report = verify_endo_dimension(bq, validate_index(bq, arrows))
        assert len(calls) == 1 and calls[0][0] is bq
        assert len(built) == len(searches) == 1
        assert built[0] is searches[0][0] is bq._product_graph
        assert report.dimensions_match
        if not arrows:
            assert report.dim_transformed == algebra_dim(bq) == 27


@pytest.mark.parametrize("make", [_fresh_fig5, lambda: gen_random_sag(RandomSagSpec(0, 20, 30, 0.4))],
                         ids=["fig5", "gen-20-30"])
def test_verify_splits_no_quiver_until_the_result_is_read(monkeypatch, make):
    bq = make()  # generating builds the product graphs of other quivers
    splits = _count_calls(monkeypatch, "strquiv.transform", "_split_quiver")
    built = _record_graphs(monkeypatch)
    index = validate_index(bq, sorted(left_forbidden_arrows(bq), key=bq.arrow_index.get)[:3])
    assert len(index.arrows) == 3
    report = verify_endo_dimension(bq, index)
    assert not splits
    assert built and all(g is bq._product_graph for g in built)
    result = report.result
    assert len(splits) == 1
    assert result == r_transform(bq, index) and result.quiver is not bq
    assert report.result is result and len(splits) == 2  # the second is r_transform's


def _subsets(arrows: list[str], rng: random.Random, cap: int = 64):
    """Every subset of ``arrows``, or ``cap`` distinct ones drawn at random
    when there are more."""
    masks = range(1 << len(arrows))
    if len(masks) > cap:
        masks = rng.sample(masks, cap)
    return [[x for i, x in enumerate(arrows) if mask >> i & 1] for mask in masks]


def test_transformed_dimension_counts_the_split_quiver(fig5):
    """dim A_R read off A's product graph equals the path count of the
    split quiver, on every subset of left forbidden arrows, up to 64 per
    quiver; the subsets include some at which the identity fails."""
    quivers = [fig5] + [gen_random_sag(RandomSagSpec(s, 6, 9, 0.5)) for s in range(40)] + [
        gen_random_sag(RandomSagSpec(s, 8, 12, 0.8)) for s in range(40)]
    rng = random.Random(12)
    checked = mismatched = 0
    for bq in quivers:
        lf = sorted(left_forbidden_arrows(bq), key=bq.arrow_index.get)
        for subset in _subsets(lf, rng):
            index = validate_index(bq, subset)
            report = verify_endo_dimension(bq, index)
            assert report.dim_transformed == algebra_dim(r_transform(bq, index).quiver), subset
            checked += 1
            mismatched += not report.dimensions_match
    assert checked > 2000 and mismatched > 100


def test_split_at_no_arrow_is_the_quiver_itself(fig1, fig5):
    for bq in (fig1, fig5):
        result = r_transform(bq, validate_index(bq, []))
        assert result.quiver is bq
        assert result.vertex_map == {} and result.arrow_map == {}


def test_cma_reuses_the_perfect_index(monkeypatch):
    # computing the index checks each closed walk of the partner map, one
    # on fig5; cma reads the cached index and checks none
    checks = _count_calls(monkeypatch, "strquiv.forbidden", "_cycle_problems")
    searches = _count_calls(monkeypatch, "strquiv.forbidden", "_forbidden_cycles")
    bq = _fresh_fig5()
    perfect_index(bq)
    assert [arrows for _, arrows in checks] == [("a", "b", "c")]
    cma(bq)
    assert len(checks) == 1
    assert not searches  # the perfect index comes from the partner table


def _nontrivial_paths(bq: BoundQuiver) -> list[tuple[str, ...]]:
    return [p.arrows for u in bq.vertices for v in bq.vertices
            for p in enumerate_paths(bq, u, v) if not p.is_trivial]


def _read_back(tr, word: tuple[str, ...]) -> tuple[tuple[str, ...], bool, bool]:
    """A path of A_R read in A: each α_L α_R is α, a leading α_R is α with
    its start cut, and a trailing α_L is α with its end cut."""
    left = {lr[0]: alpha for alpha, lr in tr.arrow_map.items()}
    right = {lr[1]: alpha for alpha, lr in tr.arrow_map.items()}
    cut_start = word[0] in right
    out = [right[word[0]]] if cut_start else []
    i = int(cut_start)
    while i < len(word):
        x = word[i]
        if x not in left:
            out.append(x)
            i += 1
        elif i + 1 < len(word):
            assert word[i + 1] == tr.arrow_map[left[x]][1]  # v_α has one arrow out
            out.append(left[x])
            i += 2
        else:
            out.append(left[x])
            return tuple(out), cut_start, True
    return tuple(out), cut_start, False


def test_split_paths_correspond_to_paths_of_the_source(fig1, fig5):
    """The relation-free paths of A_R are those of A, each end letter in R
    possibly cut, except that a one-letter path cut at both ends is the
    trivial path at v_α.  Checked through enumerate_paths on both sides."""
    quivers = [fig1, fig5] + [gen_random_sag(RandomSagSpec(s, 8, 12, 0.5))
                              for s in range(80)]
    rng = random.Random(17)
    checked = 0
    for bq in quivers:
        lf = sorted(left_forbidden_arrows(bq), key=bq.arrow_index.get)
        source = _nontrivial_paths(bq)
        for _ in range(3):
            index = validate_index(bq, rng.sample(lf, rng.randint(1, len(lf))))
            members = set(index.arrows)
            expected = {
                (p, cut_start, cut_end)
                for p in source
                for cut_start in (False, p[0] in members)
                for cut_end in (False, p[-1] in members)
                if not (len(p) == 1 and cut_start and cut_end)
            }
            tr = r_transform(bq, index)
            found = [_read_back(tr, word) for word in _nontrivial_paths(tr.quiver)]
            assert len(found) == len(set(found))
            assert set(found) == expected
            checked += len(found)
    assert checked > 9000
