import itertools
import random
from pathlib import Path

import pytest

from strquiv import (
    Arrow,
    BoundQuiver,
    ForbiddenCycle,
    NotForbiddenCycle,
    Path as QuiverPath,
    RandomSagSpec,
    cma,
    forbidden_cycles,
    gen_random_sag,
    in_ideal,
    is_perfect,
    left_forbidden_arrows,
    parse_quiver,
    perfect_index,
)
from strquiv import forbidden
from strquiv.cli import run
from strquiv.forbidden import _cycle_problems

FIG5 = Path(__file__).resolve().parent.parent / "fixtures" / "fig5.quiver"


class TestLeftForbidden:
    def test_fig5_all_arrows(self, fig5):
        assert left_forbidden_arrows(fig5) == {a.id for a in fig5.arrows}

    def test_no_relations_empty(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        assert left_forbidden_arrows(bq) == set()

    def test_fig1_contains_a(self, fig1):
        assert "a" in left_forbidden_arrows(fig1)

    def test_final_arrow_of_long_relation_not_member(self):
        bq = BoundQuiver.build(
            ["1", "2", "3", "4"],
            [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "4")],
            [("a", "b", "c")],
        )
        # abc in I does not put any length-2 product in I
        assert left_forbidden_arrows(bq) == set()


class TestForbiddenCycles:
    def test_fig5(self, fig5):
        assert [c.arrows for c in forbidden_cycles(fig5)] == [
            ("a", "b", "c"),
            ("a'", "b'", "c'"),
        ]

    def test_fig1(self, fig1):
        assert [c.arrows for c in forbidden_cycles(fig1)] == [
            ("a", "b", "c"),
            ("a'", "b'", "c'"),
        ]

    def test_no_relations_no_cycles(self):
        bq = BoundQuiver.build(
            ["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")]
        )
        assert forbidden_cycles(bq) == []

    def test_chordal_relation_cycle_excluded(self, fig5):
        # d d' e e' f f' has all consecutive products in the ideal and
        # distinct vertices, but arrow a joins the nonconsecutive cycle
        # vertices 1 and 2, so it is not a cycle on its six vertices.
        candidate = ForbiddenCycle(("d", "d'", "e", "e'", "f", "f'"))
        with pytest.raises(NotForbiddenCycle):
            is_perfect(fig5, candidate)


class TestIsPerfect:
    def test_fig5_abc_perfect(self, fig5):
        abc, apbpcp = forbidden_cycles(fig5)
        assert is_perfect(fig5, abc)
        # witness: d' ends at 5 and d'b' lies in the ideal
        assert not is_perfect(fig5, apbpcp)

    def test_rotation_invariant(self, fig5):
        assert is_perfect(fig5, ForbiddenCycle(("b", "c", "a")))
        assert not is_perfect(fig5, ForbiddenCycle(("b'", "c'", "a'")))

    def test_isolated_cycle_vacuously_perfect(self):
        bq = BoundQuiver.build(
            ["1", "2"],
            [Arrow("a", "1", "2"), Arrow("b", "2", "1")],
            [("a", "b"), ("b", "a")],
        )
        (cycle,) = forbidden_cycles(bq)
        assert is_perfect(bq, cycle)

    def test_not_a_forbidden_cycle_rejected(self, fig5):
        with pytest.raises(NotForbiddenCycle):
            is_perfect(fig5, ForbiddenCycle(("a", "e'")))

    @pytest.mark.parametrize(
        ("arrows", "message"),
        [
            ((), "empty cycle"),
            (("a", "zz"), "unknown arrow 'zz'"),
            (("a", "b", "c", "a", "b", "c"), "cycle vertices are not pairwise distinct"),
        ],
        ids=["empty", "unknown-arrow", "repeated-vertex"],
    )
    def test_each_rejection_names_one_problem(self, fig5, arrows, message):
        with pytest.raises(NotForbiddenCycle) as err:
            is_perfect(fig5, ForbiddenCycle(arrows))
        assert str(err.value) == message


class TestPerfectIndex:
    def test_fig5(self, fig5):
        idx = perfect_index(fig5)
        assert idx.arrows == frozenset({"a", "b", "c"})
        assert [c.arrows for c in idx.cycles] == [("a", "b", "c")]

    def test_no_relations(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        assert perfect_index(bq).arrows == frozenset()

    def test_subset_of_left_forbidden(self, fig1, fig5):
        for bq in (fig1, fig5):
            assert perfect_index(bq).arrows <= left_forbidden_arrows(bq)

    def test_cycle_arrows_left_forbidden(self, fig5):
        lf = left_forbidden_arrows(fig5)
        for cycle in forbidden_cycles(fig5):
            assert set(cycle.arrows) <= lf


def _brute_force_cycles(arrows, pairs):
    """Forbidden cycles by trying every arrow sequence, canonically rotated.

    ``arrows`` are (id, source, target) triples in declaration order and
    ``pairs`` the length-2 relations; shares no code with strquiv.forbidden.
    """
    order = {x: i for i, (x, _, _) in enumerate(arrows)}
    ends = {x: (s, t) for x, s, t in arrows}
    n_vertices = len({v for _, s, t in arrows for v in (s, t)})
    found = set()
    for k in range(1, n_vertices + 1):
        for cyc in itertools.permutations(ends, k):
            on_cycle = [ends[x][0] for x in cyc]
            if len(set(on_cycle)) < k:
                continue
            nxt = cyc[1:] + cyc[:1]
            if any(ends[x][1] != ends[y][0] or (x, y) not in pairs for x, y in zip(cyc, nxt)):
                continue
            neighbours = {frozenset(ends[x]) for x in cyc}
            if any(
                s != t and s in on_cycle and t in on_cycle and frozenset((s, t)) not in neighbours
                for _, s, t in arrows
            ):
                continue
            first = min(range(k), key=lambda i: order[cyc[i]])
            found.add(cyc[first:] + cyc[:first])
    return found


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force(seed):
    # a ring through some vertices plus a few random arrows, which often
    # join two ring vertices as chords
    rng = random.Random(seed)
    vertices = [str(i) for i in range(rng.randint(1, 6))]
    ring = rng.sample(vertices, rng.randint(1, len(vertices)))
    ends = list(zip(ring, ring[1:] + ring[:1]))
    ends += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(ends)
    arrows = [(f"x{i}", s, t) for i, (s, t) in enumerate(ends)]
    density = rng.choice([0.5, 0.8, 1.0])
    pairs = {
        (x, y)
        for x, _, t in arrows
        for y, s, _ in arrows
        if t == s and rng.random() < density
    }
    bq = BoundQuiver.build(vertices, [Arrow(*a) for a in arrows], sorted(pairs))
    assert {c.arrows for c in forbidden_cycles(bq)} == _brute_force_cycles(arrows, pairs)


def _filtered_cycles(bq):
    """Reference: close every relation cycle on distinct vertices, then keep
    those that pass the outside-input check of a forbidden cycle."""
    idx = bq.arrow_index
    succs = {
        a.id: [b.id for b in bq.out_arrows[a.target] if in_ideal(bq, QuiverPath((a.id, b.id)))]
        for a in bq.arrows
    }
    out = []
    for first in bq.arrows:
        stack = [(first.id,)]
        while stack:
            path = stack.pop()
            visited = [bq.arrow_by_id[x].source for x in path]
            for x in succs[path[-1]]:
                if x == first.id:
                    if not _cycle_problems(bq, path):
                        out.append(ForbiddenCycle(path))
                elif idx[x] > idx[first.id] and bq.arrow_by_id[x].source not in visited:
                    stack.append(path + (x,))
    out.sort(key=lambda c: (len(c), tuple(idx[x] for x in c.arrows)))
    return out


def _dense_random_quiver(seed):
    """Up to 7 vertices and 12 arrows with random ends, so loops and
    parallel arrows occur, and each composable pair a relation at a density
    between 0.3 and 1."""
    rng = random.Random(seed)
    vertices = [str(i) for i in range(rng.randint(1, 7))]
    arrows = [
        Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(1, 12))
    ]
    density = rng.choice([0.3, 0.5, 0.8, 1.0])
    pairs = [
        (a.id, b.id) for a in arrows for b in arrows
        if a.target == b.source and rng.random() < density
    ]
    return BoundQuiver.build(vertices, arrows, pairs)


def _pruned_search_quivers():
    yield from (_dense_random_quiver(seed) for seed in range(300))
    for density in (0.8, 1.0):
        for seed in range(10):
            yield gen_random_sag(
                RandomSagSpec(seed=seed, num_vertices=20, num_arrows=30, relation_density=density)
            )


def _chain_and_cycle(feeds_in):
    """The 3-cycle x y z bound by its three relations, and a chain of five
    arrows bound by its four, joined by one more relation: d4 x when the
    chain runs into the cycle, z d0 when it leaves it."""
    cycle = [Arrow("x", "c0", "c1"), Arrow("y", "c1", "c2"), Arrow("z", "c2", "c0")]
    ends = [f"v{i}" for i in range(6)]
    ends[-1 if feeds_in else 0] = "c0"
    chain = [Arrow(f"d{i}", ends[i], ends[i + 1]) for i in range(5)]
    relations = [("x", "y"), ("y", "z"), ("z", "x"), *((f"d{i}", f"d{i + 1}") for i in range(4))]
    relations.append(("d4", "x") if feeds_in else ("z", "d0"))
    vertices = ["c0", "c1", "c2", *(v for v in ends if v != "c0")]
    return BoundQuiver.build(vertices, cycle + chain, relations)


def test_pruned_search_matches_the_filtered_reference(fig1, fig5):
    joined = [_chain_and_cycle(True), _chain_and_cycle(False)]
    for bq in joined:
        # the chain's arrows are trimmed before the search, the cycle's are not
        assert [c.arrows for c in forbidden_cycles(bq)] == [("x", "y", "z")]
    found = 0
    for bq in [fig1, fig5, *joined, *_pruned_search_quivers()]:
        cycles = forbidden_cycles(bq)
        assert cycles == _filtered_cycles(bq)
        assert perfect_index(bq).cycles == tuple(c for c in cycles if is_perfect(bq, c))
        found += len(cycles)
    assert found > 300


def _perfect_by_enumeration(bq):
    """Reference: the forbidden cycles each of whose arrows has every
    relation partner on the cycle, in the search's order."""
    after, before = bq._relation_partners
    return tuple(
        c for c in forbidden_cycles(bq)
        if all(set(c.arrows).issuperset([*after.get(x, ()), *before.get(x, ())]) for x in c.arrows)
    )


def _perfect_index_quivers():
    """300 seeds at each of five shapes, density 1.0 among them, and the
    dense random quivers, whose loops and parallel arrows are no SAG's."""
    for v, a, density in ((6, 9, 0.4), (8, 12, 0.9), (12, 18, 0.6), (20, 30, 1.0), (10, 12, 0.9)):
        for seed in range(300):
            yield gen_random_sag(RandomSagSpec(seed, v, a, density))
    yield from (_dense_random_quiver(seed) for seed in range(300))


def test_one_pass_perfect_index_matches_the_enumeration(fig1, fig5):
    nonempty = 0
    for bq in [fig1, fig5, *_perfect_index_quivers()]:
        expected = _perfect_by_enumeration(bq)
        index = perfect_index(bq)
        assert index.cycles == expected
        assert index.arrows == {x for c in expected for x in c.arrows}
        nonempty += bool(expected)
    assert nonempty > 300


def test_dense_quiver_closes_only_forbidden_cycles(monkeypatch):
    calls = []

    def counted(bq, arrows):
        calls.append(arrows)
        return _cycle_problems(bq, arrows)

    monkeypatch.setattr(forbidden, "_cycle_problems", counted)
    spec = RandomSagSpec(seed=3, num_vertices=100, num_arrows=150, relation_density=0.8)
    bq = gen_random_sag(spec)
    assert forbidden_cycles(bq)
    perfect_index(bq)
    # filtering closed relation cycles (the reference above) checks 10 here,
    # and a perfect_index that re-validates the search's cycles one per cycle
    assert calls == []


def _count_cycles_built(monkeypatch):
    built = []

    def counted(arrows):
        built.append(arrows)
        return ForbiddenCycle(arrows)

    monkeypatch.setattr(forbidden, "ForbiddenCycle", counted)
    return built


def test_forbidden_verb_builds_each_cycle_once(monkeypatch, capsys):
    built = _count_cycles_built(monkeypatch)
    assert run(["forbidden", "--json", str(FIG5)]) == 0
    assert '"perfect": true' in capsys.readouterr().out
    # the perfect index builds its one cycle, then the search both
    assert built == [("a", "b", "c"), ("a", "b", "c"), ("a'", "b'", "c'")]


def test_cycles_index_and_cma_build_each_cycle_once(monkeypatch):
    built = _count_cycles_built(monkeypatch)
    bq = parse_quiver(FIG5.read_text())
    assert len(forbidden_cycles(bq)) == 2
    assert perfect_index(bq).arrows == {"a", "b", "c"}
    cma(bq)
    # the search builds both cycles, and the perfect index its one
    assert built == [("a", "b", "c"), ("a'", "b'", "c'"), ("a", "b", "c")]
    forbidden_cycles(bq), perfect_index(bq), cma(bq)
    assert len(built) == 3  # a second call builds none
