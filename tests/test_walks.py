import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strquiv import (
    Arrow,
    BoundQuiver,
    CyclicWalk,
    InfiniteDimensional,
    Letter,
    NotStringPair,
    RandomSagSpec,
    UnknownArrow,
    Walk,
    algebra_dim,
    arrow_module_string,
    band_exists,
    band_problems,
    canonical_band,
    canonical_string,
    classify,
    cma,
    enumerate_strings,
    format_quiver,
    find_band,
    gen_random_sag,
    is_finite_dimensional,
    left_forbidden_arrows,
    parse_quiver,
    parse_walk,
    perfect_index,
    projective_string,
    representation_type,
    string_problems,
    validate_band,
    validate_index,
    validate_string,
    verify_endo_dimension,
)
from strquiv import core, walks
from strquiv.core import FactorAutomaton
from strquiv.walks import (
    _band_cycle,
    _double,
    _find_product_cycle,
    _primitive_root,
    _walk_key,
    letter_target,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

B_TEXT = "a' d'^-1 a e^-1 b' e'^-1 b f^-1 c' f'^-1 c d^-1"


@pytest.fixture(scope="module")
def band_B(fig5):
    return parse_walk(fig5, f"cycle( {B_TEXT} )")


class TestValidateString:
    def test_reference_band_word_is_a_string(self, fig5):
        assert validate_string(fig5, parse_walk(fig5, B_TEXT))

    def test_trivial_walks(self, fig5):
        for v in fig5.vertices:
            assert validate_string(fig5, Walk((), v))

    def test_run_in_ideal_rejected(self, fig5):
        w = parse_walk(fig5, "a b")
        assert not validate_string(fig5, w)
        assert any("ideal" in p for p in string_problems(fig5, w))

    def test_backtracking_rejected(self, fig5):
        w = Walk((Letter("a", False), Letter("a", True)))
        assert not validate_string(fig5, w)

    def test_disconnected_rejected(self, fig5):
        w = Walk((Letter("a", False), Letter("c", False)))
        assert not validate_string(fig5, w)

    def test_long_relation_inside_run(self, fig1):
        # a'e and eb avoid the ideal but the full run a'eb does not
        assert validate_string(fig1, parse_walk(fig1, "a' e"))
        assert validate_string(fig1, parse_walk(fig1, "e b"))
        assert not validate_string(fig1, parse_walk(fig1, "a' e b"))

    def test_unknown_arrow(self, fig5):
        with pytest.raises(UnknownArrow):
            validate_string(fig5, Walk((Letter("zz", False),)))

    def test_trivial_walk_at_an_unknown_vertex(self, fig5):
        assert string_problems(fig5, Walk((), "9")) == ["anchor '9' is not a vertex"]

    def test_not_string_pair_enforced(self):
        star = BoundQuiver.build(
            ["0", "1", "2", "3"],
            [Arrow("a", "0", "1"), Arrow("b", "0", "2"), Arrow("c", "0", "3")],
        )
        with pytest.raises(NotStringPair):
            validate_string(star, Walk((Letter("a", False),)))


class TestWalkEnds:
    def test_trivial_walk_starts_and_ends_at_its_anchor(self, fig5):
        w = Walk((), "3")
        assert (w.source(fig5), w.target(fig5)) == ("3", "3")

    def test_forward_walk(self, fig5):
        w = parse_walk(fig5, "a e'")  # a: 1 -> 2, e': 2 -> 6
        assert (w.source(fig5), w.target(fig5)) == ("1", "6")

    @pytest.mark.parametrize(
        "text, ends",
        [("a e^-1", ("1", "5")), ("d'^-1 a e^-1", ("5", "5")), ("a' d'^-1", ("4", "1"))],
    )
    def test_walk_ending_in_an_inverse_letter(self, fig5, text, ends):
        # an inverse letter runs from its arrow's target to its source
        w = parse_walk(fig5, text)
        assert (w.source(fig5), w.target(fig5)) == ends

    @pytest.mark.parametrize("text", ["e(2)", "a e'", "a e^-1", B_TEXT])
    def test_the_inverse_swaps_the_ends(self, fig5, text):
        w = parse_walk(fig5, text)
        assert w.inverse().source(fig5) == w.target(fig5)
        assert w.inverse().target(fig5) == w.source(fig5)


class TestValidateBand:
    def test_reference_band(self, fig5, band_B):
        assert validate_band(fig5, band_B)

    def test_square_is_not_primitive(self, fig5, band_B):
        doubled = CyclicWalk(band_B.letters * 2)
        assert not validate_band(fig5, doubled)
        assert any("power" in p for p in band_problems(fig5, doubled))

    def test_rotation_and_inversion_invariance(self, fig5, band_B):
        for t in range(len(band_B)):
            assert validate_band(fig5, band_B.rotate(t))
        assert validate_band(fig5, band_B.inverse())

    def test_wrap_run_checked(self, fig5):
        # e^-1 a^-1: connects cyclically (a then e^-1 ... wraps to a) but
        # the wrapped forward run would need a relation-free cycle
        cw = CyclicWalk((Letter("a", False), Letter("a", True)))
        assert not validate_band(fig5, cw)

    def test_each_problem_is_reported_once_at_its_position_in_the_walk(self, fig5):
        # the power checked holds three copies of a a^-1; each backtrack
        # of the cyclic walk is named once, at its position in the walk
        cw = parse_walk(fig5, "cycle( a a^-1 )")
        assert band_problems(fig5, cw) == [
            "backtrack at position 0: letter followed by its inverse",
            "backtrack at position 1: letter followed by its inverse",
        ]
        # the power's one run is named by the relation it reaches first
        cw = parse_walk(fig5, "cycle( a b c )")
        assert band_problems(fig5, cw) == [
            "forward run at positions 0..2 lies in the ideal: ab",
        ]

    def test_directed_cycle_with_power_in_ideal(self, fig5):
        cw = CyclicWalk(tuple(Letter(x, False) for x in ("a", "b", "c")))
        assert not validate_band(fig5, cw)

    def test_band_subwalks_are_strings(self, fig5, band_B):
        letters = band_B.letters
        n = len(letters)
        doubled = letters * 2
        for start in range(n):
            for length in range(1, n):
                w = Walk(doubled[start : start + length])
                assert validate_string(fig5, w)


def _load_perfbench_oracle():
    """``perfbench/oracle.py``, loaded by path: it shares no code with strquiv."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_closed_walks(bq, rng, attempts):
    """Reduced walks that return to their start, some of them squared; the
    wrap-around pair may still backtrack."""
    steps = {v: [] for v in bq.vertices}
    for a in bq.arrows:
        steps[a.source].append(Letter(a.id, False))
        steps[a.target].append(Letter(a.id, True))
    walks = []
    for _ in range(attempts):
        start = v = rng.choice(bq.vertices)
        letters = []
        while len(letters) < 16:
            choices = [l for l in steps[v] if not letters or l != letters[-1].inverse()]
            if not choices:
                break
            letters.append(rng.choice(choices))
            v = letter_target(bq, letters[-1])
            if v == start and rng.random() < 0.5:
                walks.append(CyclicWalk(tuple(letters) * rng.choice((1, 1, 2))))
                break
    return walks


def test_band_problems_agrees_with_an_independent_oracle(fig1, fig5):
    oracle = _load_perfbench_oracle()
    rng = random.Random(2024)
    verdicts = []
    for bq in [fig1, fig5] + [_random_string_pair(seed) for seed in range(30)]:
        q = oracle.Quiver(
            bq.vertices, [(a.id, a.source, a.target) for a in bq.arrows], bq.relations
        )
        for cw in _random_closed_walks(bq, rng, 300):
            expected = oracle.is_band(q, tuple((l.arrow, l.inv) for l in cw.letters))
            assert (not band_problems(bq, cw)) == expected, cw
            verdicts.append(expected)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def _connected_walks(bq, max_letters):
    """Every connected walk of at most ``max_letters`` letters, trivial
    walks, backtracks and runs in the ideal included."""
    steps = {v: [] for v in bq.vertices}
    for a in bq.arrows:
        steps[a.source].append(Letter(a.id, False))
        steps[a.target].append(Letter(a.id, True))
    level = [(l,) for v in bq.vertices for l in steps[v]]
    walks = [Walk((), v) for v in bq.vertices]
    for _ in range(max_letters):
        walks += [Walk(letters) for letters in level]
        level = [w + (l,) for w in level for l in steps[letter_target(bq, w[-1])]]
    return walks


def _reference_problems(bq, w):
    """:func:`string_problems` of a connected walk, naming each run in the
    ideal by the relation that is a suffix of the run's shortest prefix in
    the ideal, found by scanning the relation list."""
    letters = w.letters
    problems = [
        f"backtrack at position {i}: letter followed by its inverse"
        for i in range(len(letters) - 1)
        if letters[i + 1] == letters[i].inverse()
    ]
    start = 0
    for inv, run in itertools.groupby(letters, key=lambda l: l.inv):
        arrows = [l.arrow for l in run]
        word = tuple(reversed(arrows) if inv else arrows)
        for end in range(1, len(word) + 1):
            named = [r for r in bq.relations if word[:end][-len(r) :] == r]
            if named:
                assert len(named) == 1
                direction = "inverse" if inv else "forward"
                problems.append(
                    f"{direction} run at positions {start}..{start + len(word) - 1} "
                    "lies in the ideal: " + "".join(named[0])
                )
                break
        start += len(word)
    return problems


def test_string_problems_name_the_relation_a_run_meets_first(fig1, fig5):
    named = 0
    for bq in [fig1, fig5] + [_random_string_pair(seed) for seed in range(30)]:
        for w in _connected_walks(bq, 4):
            expected = _reference_problems(bq, w)
            assert string_problems(bq, w) == expected, w
            named += sum("lies in the ideal" in p for p in expected)
    assert named > 1000


class TestCanonical:
    def test_string_inversion_fixed_point(self, fig5):
        w = parse_walk(fig5, B_TEXT)
        assert canonical_string(fig5, w) == canonical_string(fig5, w.inverse())

    def test_trivial_canonical(self, fig5):
        w = Walk((), "3")
        assert canonical_string(fig5, w) is w

    def test_band_rotation_inversion_fixed_point(self, fig5, band_B):
        expected = canonical_band(fig5, band_B)
        for t in range(len(band_B)):
            assert canonical_band(fig5, band_B.rotate(t)) == expected
            assert canonical_band(fig5, band_B.inverse().rotate(t)) == expected

    def test_string_with_an_unknown_arrow(self, fig5):
        with pytest.raises(UnknownArrow):
            canonical_string(fig5, Walk((Letter("zz", False),)))

    def test_band_with_an_unknown_arrow(self, fig5):
        with pytest.raises(UnknownArrow):
            canonical_band(fig5, CyclicWalk((Letter("a", False), Letter("zz", True))))


def brute_force_string_count(bq, max_letters):
    """Independent oracle: filter all letter sequences by the validator."""
    letters = [Letter(a.id, inv) for a in bq.arrows for inv in (False, True)]
    seen = set()
    count = len(bq.vertices)
    for n in range(1, max_letters + 1):
        for combo in itertools.product(letters, repeat=n):
            w = Walk(combo)
            if string_problems(bq, w):
                continue
            inv = tuple(l.inverse() for l in reversed(combo))
            if inv in seen or combo in seen:
                continue
            seen.add(combo)
            count += 1
    return count


class TestEnumerate:
    def test_max_zero_gives_trivial_strings(self, fig5):
        out = enumerate_strings(fig5, 0)
        assert len(out) == len(fig5.vertices)
        assert all(w.is_trivial for w in out)

    def test_single_arrow_quiver(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        assert len(enumerate_strings(bq, 1)) == 3

    def test_fig5_matches_brute_force(self, fig5):
        for n in (1, 2, 3):
            assert len(enumerate_strings(fig5, n)) == brute_force_string_count(fig5, n)

    def test_fig1_matches_brute_force(self, fig1):
        assert len(enumerate_strings(fig1, 2)) == brute_force_string_count(fig1, 2)

    def test_outputs_valid_and_distinct(self, fig5):
        out = enumerate_strings(fig5, 3)
        keys = set()
        for w in out:
            assert validate_string(fig5, w)
            key = w.anchor if w.is_trivial else w.letters
            assert key not in keys
            keys.add(key)
            if not w.is_trivial:
                assert canonical_string(fig5, w) == w


class TestBands:
    def test_fig5_band_exists(self, fig5):
        assert band_exists(fig5)
        assert representation_type(fig5) == "infinite"

    def test_fig1_band_exists(self, fig1):
        witness = find_band(fig1)
        assert witness is not None and validate_band(fig1, witness)

    def test_single_arrow_no_band(self):
        bq = BoundQuiver.build(["1", "2"], [Arrow("a", "1", "2")])
        assert not band_exists(bq)
        assert representation_type(bq) == "finite"

    def test_witness_is_valid(self, fig5):
        witness = find_band(fig5)
        assert witness is not None and validate_band(fig5, witness)

    def test_infinite_dimensional_rejected(self):
        bq = BoundQuiver.build(
            ["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")]
        )
        with pytest.raises(InfiniteDimensional):
            band_exists(bq)

    def test_long_relation_blocks_fake_band(self):
        # Directed 4-cycle whose consecutive pairs all avoid the ideal but
        # whose powers hit the length-3 generator a'eb: a letter-pair-only
        # detector would report a band here.
        from strquiv import is_finite_dimensional

        bq = BoundQuiver.build(
            ["1", "2", "3", "4"],
            [
                Arrow("a'", "1", "2"),
                Arrow("e", "2", "3"),
                Arrow("b", "3", "4"),
                Arrow("c", "4", "1"),
            ],
            [("a'", "e", "b")],
        )
        assert is_finite_dimensional(bq)
        assert not band_exists(bq)
        # band_problems rejects each rotation of either orientation by its run
        cycle = CyclicWalk(tuple(Letter(x, False) for x in ("a'", "e", "b", "c")))
        for orient in (cycle, cycle.inverse()):
            for t in range(len(cycle)):
                problems = band_problems(bq, orient.rotate(t))
                assert any(" run at positions " in p and "a'eb" in p.split(": ")[1] for p in problems)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_band_witnesses_validate(seed):
    bq = gen_random_sag(RandomSagSpec(seed=seed))
    witness = find_band(bq)
    if witness is None:
        assert not band_exists(bq)
    else:
        assert validate_band(bq, witness)


def _degree_three_quiver():
    # vertex 3 is the source of three arrows, and b has two relation-free
    # continuations, c and d
    return BoundQuiver.build(
        ["1", "2", "3", "4", "5", "6"],
        [
            Arrow("b", "1", "2"),
            Arrow("c", "2", "3"),
            Arrow("d", "2", "4"),
            Arrow("e", "3", "4"),
            Arrow("f", "3", "5"),
            Arrow("g", "3", "6"),
        ],
        [("c", "e"), ("c", "f")],
    )


def test_not_string_pair_carries_its_witnesses():
    with pytest.raises(NotStringPair) as info:
        enumerate_strings(_degree_three_quiver(), 2)
    assert info.value.violations == (("degree", "3"), ("continuation-R", "b"))
    assert str(info.value).endswith(": degree 3; continuation-R b")


def test_cli_prints_the_string_pair_witnesses(tmp_path, capsys):
    from strquiv.cli import run

    path = tmp_path / "degree3.quiver"
    path.write_text(format_quiver(_degree_three_quiver()))
    code = run(["strings", str(path), "--max-letters", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("NotStringPair") and "degree 3; continuation-R b" in err


# Reference transition graph of walks: nodes are (letter, forward-state,
# backward-state), the two Aho-Corasick states tracking forbidden factors of
# the current forward run and of the reversed word of the current inverse run.

_REVERSED_AUTOMATA = {}


def _reversed_automaton(bq):
    """The factor automaton of the reversed relations, built once per quiver."""
    if id(bq) not in _REVERSED_AUTOMATA:
        automaton = FactorAutomaton(tuple(rel[::-1]) for rel in bq.relations)
        _REVERSED_AUTOMATA[id(bq)] = (bq, automaton)  # keeps bq, and so its id, alive
    return _REVERSED_AUTOMATA[id(bq)][1]


def _node_successors(bq, node):
    letter, fstate, bstate = node
    end = letter_target(bq, letter)
    for a in bq.out_arrows[end]:
        cand = Letter(a.id, False)
        if cand == letter.inverse():
            continue
        prev = fstate if not letter.inv else 0
        nxt = bq.automaton.step(prev, a.id)
        if nxt is None:
            continue
        yield (cand, nxt, 0)
    for a in bq.in_arrows[end]:
        cand = Letter(a.id, True)
        if cand == letter.inverse():
            continue
        prev = bstate if letter.inv else 0
        nxt = _reversed_automaton(bq).step(prev, a.id)
        if nxt is None:
            continue
        yield (cand, 0, nxt)


def _initial_nodes(bq):
    """Nodes that start a fresh run, one per letter, in letter-key order."""
    nodes = []
    for a in bq.arrows:
        st = bq.automaton.step(0, a.id)
        if st is not None:
            nodes.append((Letter(a.id, False), st, 0))
        st = _reversed_automaton(bq).step(0, a.id)
        if st is not None:
            nodes.append((Letter(a.id, True), 0, st))
    return nodes


def _per_walk_reference(bq, max_letters):
    """Reference: canonicalise every walk the transition-graph DFS visits and
    keep a set of the classes already emitted."""
    seen = set()
    found = []
    stack = [(node, (node[0],)) for node in _initial_nodes(bq)] if max_letters >= 1 else []
    while stack:
        node, letters = stack.pop()
        cano = canonical_string(bq, Walk(letters))
        key = _walk_key(bq, cano.letters)
        if key not in seen:
            seen.add(key)
            found.append(cano)
        if len(letters) < max_letters:
            stack.extend((nxt, letters + (nxt[0],)) for nxt in _node_successors(bq, node))
    found.sort(key=lambda w: (len(w), _walk_key(bq, w.letters)))
    return [Walk((), v) for v in bq.vertices] + found


def _random_string_pair(seed):
    """A finite-dimensional string pair on 3-7 vertices with relations of
    length 2-4: each vertex has at most two arrows in and two out, and the
    relation-free pairs of arrows form a partial matching."""
    rng = random.Random(seed)
    while True:
        vertices = [str(i) for i in range(rng.randint(3, 7))]
        arrows = []
        for i in range(2 * len(vertices)):
            s, t = rng.choice(vertices), rng.choice(vertices)
            if sum(a.source == s for a in arrows) < 2 and sum(a.target == t for a in arrows) < 2:
                arrows.append(Arrow(f"x{i}", s, t))
        pairs = [(a, b) for a in arrows for b in arrows if a.target == b.source]
        rng.shuffle(pairs)
        nxt, prv = {}, {}
        for a, b in pairs:
            if a not in nxt and b not in prv and rng.random() < 0.8:
                nxt[a], prv[b] = b, a
        relations = [(a.id, b.id) for a, b in pairs if nxt.get(a) != b]
        paths = [(a, nxt[a]) for a in nxt]
        for _ in range(2):  # relation-free paths of length 3 and 4
            paths = [p + (nxt[p[-1]],) for p in paths if p[-1] in nxt]
            relations += [[a.id for a in p] for p in paths if rng.random() < 0.3]
        bq = BoundQuiver.build(vertices, arrows, relations)
        assert classify(bq).is_string
        if is_finite_dimensional(bq):
            return bq


class TestEnumerateMatchesReference:
    @pytest.mark.parametrize("name", ["fig1", "fig5"])
    def test_figures(self, request, name):
        bq = request.getfixturevalue(name)
        for k in range(9):
            assert enumerate_strings(bq, k) == _per_walk_reference(bq, k)
        # strings ending in the inverse of their first letter: the full keys decide
        strings = enumerate_strings(bq, 8)
        assert any(w.letters and w.letters[-1] == w.letters[0].inverse() for w in strings)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_sag(self, seed):
        bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=20, num_arrows=30))
        for k in (0, 1, 3, 6):
            assert enumerate_strings(bq, k) == _per_walk_reference(bq, k)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_string_pairs(self, seed):
        bq = _random_string_pair(seed)
        for k in range(7):
            assert enumerate_strings(bq, k) == _per_walk_reference(bq, k)


def _record_steps(monkeypatch):
    """Record each automaton step as (automaton, state, arrow, caller):
    the innermost of ``_product_edges`` and ``word_in_ideal`` running, or
    None; and each call of ``_product_edges`` as (quiver, node, whether the
    quiver had stepped the node before).  Both are wrapped at every module
    that binds them."""
    steps, expansions, callers = [], [], [None]

    def wrapped(fn):
        def inner(*args):
            if fn.__name__ == "_product_edges":
                expansions.append((args[0], args[1], args[1] in args[0]._product_table))
            callers.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                callers.pop()

        return inner

    for fn in (core._product_edges, core.word_in_ideal):
        wrapper = wrapped(fn)
        for name, module in list(sys.modules.items()):
            if name.startswith("strquiv.") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
    step = FactorAutomaton.step

    def counted(automaton, state, sym):
        steps.append((automaton, state, sym, callers[-1]))
        return step(automaton, state, sym)

    monkeypatch.setattr(FactorAutomaton, "step", counted)
    return steps, expansions


def _walker_calls(bq):
    """Every public walker of the product graphs of ``bq`` and its double
    quiver, by name."""
    return {
        "is_finite_dimensional": lambda: is_finite_dimensional(bq),
        "algebra_dim": lambda: algebra_dim(bq),
        "representation_type": lambda: representation_type(bq),
        "enumerate_strings": lambda: enumerate_strings(bq, 10),
        "find_band": lambda: find_band(bq),
        "projective_string": lambda: [projective_string(bq, v) for v in bq.vertices],
        "arrow_module_string": lambda: [arrow_module_string(bq, a.id) for a in bq.arrows],
    }


def _fresh_quivers():
    """fig5, A_50 and a generated 100/150 quiver, with no search cached."""
    fig5 = parse_quiver((FIXTURES / "fig5.quiver").read_text())
    vertices = [str(i) for i in range(50)]
    a50 = BoundQuiver.build(vertices, [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(49)])
    spec = RandomSagSpec(seed=3, num_vertices=100, num_arrows=150, relation_density=0.4)
    generated = gen_random_sag(spec)  # copied below, so that no search is cached on it
    return [fig5, a50, BoundQuiver(generated.vertices, generated.arrows, generated.relations)]


def _long_relation_quiver():
    """The oriented 6-cycle bound by a0 a1 a2 and a3 a4: a finite-dimensional
    string pair with a relation of length 3, so its product graphs and its
    double quiver's step the automaton."""
    vertices = [str(i) for i in range(6)]
    arrows = [Arrow(f"a{i}", str(i), str((i + 1) % 6)) for i in range(6)]
    return BoundQuiver.build(vertices, arrows, [("a0", "a1", "a2"), ("a3", "a4")])


def test_quadratic_quivers_build_no_automaton(monkeypatch):
    built = []
    init = FactorAutomaton.__init__

    def counted(automaton, words):
        built.append(automaton)
        init(automaton, words)

    monkeypatch.setattr(FactorAutomaton, "__init__", counted)
    for bq in _fresh_quivers():
        assert is_finite_dimensional(bq)
        algebra_dim(bq), representation_type(bq), enumerate_strings(bq, 6)
        index = perfect_index(bq).arrows
        cma(bq)
        # the index, and one left forbidden arrow outside it: its split
        # quiver A_R is searched too
        others = sorted(left_forbidden_arrows(bq) - index, key=bq.arrow_index.get)[:1]
        for arrows in (index, others):
            verify_endo_dimension(bq, validate_index(bq, arrows))
    assert built == []


def test_each_product_node_is_stepped_once_per_quiver(monkeypatch):
    steps, expansions = _record_steps(monkeypatch)
    outputs = {}
    for order in (1, -1):
        outputs[order] = []
        for bq in [*_fresh_quivers(), _long_relation_quiver()]:
            steps.clear()
            expansions.clear()
            results = {}
            for name, call in list(_walker_calls(bq).items())[::order]:
                before = len(expansions)
                results[name] = call()
                if name == "algebra_dim" and order == 1:
                    # it counts over the nodes the finiteness search stepped
                    assert all(seen for *_, seen in expansions[before:])
            # each node of each product graph is expanded the first time
            # _product_edges meets it, and read from its table after
            firsts = [(q, node) for q, node, seen in expansions if not seen]
            assert firsts and len(set(firsts)) == len(firsts)
            if all(len(r) == 2 for r in bq.relations):
                assert not steps  # the partner table steps a quadratic quiver
            else:
                # only _product_edges steps from a product node; word_in_ideal
                # reads whole words
                assert all(caller == "_product_edges" for *_, caller in steps)
                stepped = [s[:3] for s in steps]
                assert stepped and len(set(stepped)) == len(stepped)
            outputs[order].append(results)
    assert outputs[1] == outputs[-1]


def test_each_node_is_expanded_once(monkeypatch):
    steps, expansions = _record_steps(monkeypatch)
    spec = RandomSagSpec(seed=3, num_vertices=100, num_arrows=150, relation_density=0.4)
    for bq in (gen_random_sag(spec), _long_relation_quiver()):
        steps.clear()
        expansions.clear()
        enumerate_strings(bq, 10)
        # a node's edges are stepped the first time it is met and read after
        firsts = [node for q, node, seen in expansions if not seen]
        assert 0 < len(firsts) == len(set(firsts))
        assert all(q is _double(bq) for q, *_ in expansions)
        if bq.relations[0] == ("a0", "a1", "a2"):
            assert steps and len({s[:3] for s in steps}) == len(steps)
        else:
            assert not steps


def _uncapped_product_cycle(bq):
    """Reference: a breadth-first search from every initial node to its
    end, keeping the first shortest cycle."""
    best = None
    for init in _initial_nodes(bq):
        parent = {init: None}
        frontier = [init]
        hit = None
        while frontier and hit is None:
            nxt = []
            for node in frontier:
                for succ in _node_successors(bq, node):
                    if succ == init:
                        hit = node
                        break
                    if succ not in parent:
                        parent[succ] = node
                        nxt.append(succ)
                if hit is not None:
                    break
            frontier = nxt
        if hit is None:
            continue
        cycle = []
        cur = hit
        while cur is not None:
            cycle.append(cur[0])
            cur = parent[cur]
        cycle.reverse()
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def _band_quivers():
    yield from (_random_string_pair(seed) for seed in range(40))
    for seed in range(40):
        for vertices, arrows in ((6, 9), (12, 18), (20, 30)):
            yield gen_random_sag(
                RandomSagSpec(seed=seed, num_vertices=vertices, num_arrows=arrows)
            )
    yield gen_random_sag(
        RandomSagSpec(seed=3, num_vertices=200, num_arrows=300, relation_density=0.4)
    )


def test_capped_band_search_matches_uncapped_reference(fig1, fig5):
    with_band = 0
    for bq in [fig1, fig5, *_band_quivers()]:
        reference = _uncapped_product_cycle(bq)
        cycle = _band_cycle(bq)
        assert (cycle is None) == (reference is None)
        if cycle is None:
            assert find_band(bq) is None
            continue
        with_band += 1
        assert len(reference) <= len(cycle)
        assert _find_product_cycle(bq, len(cycle)) == reference
        witness = CyclicWalk(_primitive_root(tuple(reference)))
        assert find_band(bq) == canonical_band(bq, witness)
    assert with_band > 100


def test_shortest_product_cycle_is_primitive(fig1, fig5):
    with_band = 0
    for bq in [fig1, fig5, *_band_quivers()]:
        cycle = _band_cycle(bq)
        if cycle is not None:
            with_band += 1
            letters = tuple(_find_product_cycle(bq, len(cycle)))
            assert _primitive_root(letters) == letters
    assert with_band > 100


def _rebuilt(w):
    return BoundQuiver.build(w.vertices, w.arrows, w.relations)


@pytest.mark.parametrize("name", ["fig1", "fig5"])
def test_double_quiver_passes_validation(request, name):
    bq = request.getfixturevalue(name)
    assert _rebuilt(_double(bq)) == _double(bq)


@pytest.mark.parametrize("seed", range(40))
def test_generated_double_quivers_pass_validation(seed):
    for bq in (_random_string_pair(seed), gen_random_sag(RandomSagSpec(seed=seed))):
        assert _rebuilt(_double(bq)) == _double(bq)


def _finite_type_count(bq):
    """(dim W + |Q0|)/2 for the double quiver W, checked against enumeration:
    W's nontrivial paths are the nontrivial strings, each class twice."""
    assert representation_type(bq) == "finite"
    dim_w = algebra_dim(_double(bq))
    assert (dim_w - len(bq.vertices)) % 2 == 0
    count = (dim_w + len(bq.vertices)) // 2
    assert count == len(enumerate_strings(bq, dim_w))
    assert enumerate_strings(bq, 10**18) == enumerate_strings(bq, dim_w)
    return count


@pytest.mark.parametrize("n", range(31))
def test_finite_type_string_count_on_linear(n):
    bq = BoundQuiver.build(
        [str(i) for i in range(n + 1)], [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(n)]
    )
    assert _finite_type_count(bq) == (n + 1) + n * (n + 1) // 2


def test_finite_type_string_count_on_generated():
    finite = 0
    for seed in range(300):
        spec = RandomSagSpec(seed=seed, num_vertices=7, num_arrows=8, relation_density=0.6)
        bq = gen_random_sag(spec)
        if representation_type(bq) == "finite":
            _finite_type_count(bq)
            finite += 1
    assert finite > 100
