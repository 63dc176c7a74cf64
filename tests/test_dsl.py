import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strquiv import (
    BoundQuiver,
    CyclicWalk,
    ParseError,
    QuiverError,
    RandomSagSpec,
    UnknownArrow,
    UnknownVertex,
    Walk,
    format_quiver,
    format_walk,
    gen_random_sag,
    parse_quiver,
    parse_walk,
    quiver_from_json,
    quiver_to_dot,
    quiver_to_json,
)
from strquiv.dsl import InvalidWalkText

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestParse:
    def test_minimal(self):
        bq = parse_quiver("quiver\nvertices: 1\n")
        assert bq.vertices == ("1",) and bq.arrows == ()

    def test_comments_and_blanks(self, fig5):
        text = format_quiver(fig5)
        noisy = "# header\n\n" + text.replace("relations:", "# mid\nrelations:")
        assert parse_quiver(noisy) == fig5

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_quiver("quiver\nvertices: 1 2\narrows:\n  a: 1 ->\n")
        assert err.value.line == 4

    def test_unknown_relation_arrow(self):
        with pytest.raises(Exception):
            parse_quiver("quiver\nvertices: 1\narrows:\nrelations:\n  zz yy\n")


_HEAD = "quiver\nvertices: 1 2\narrows:\n"


# one case per ParseError raised while reading the DSL; columns count from
# the start of the raw line, indentation included
@pytest.mark.parametrize(
    ("text", "line", "col", "message"),
    [
        ("# nothing\n", 1, 1, "unexpected end of document, expected 'quiver' header"),
        ("# header\n  quiver\n", 2, 1, "unexpected end of document, expected 'vertices:' line"),
        ("  quiverx\n", 1, 3, "expected 'quiver', got 'quiverx'"),
        ("quiver\n  verts: 1\n", 2, 3, "expected 'vertices:', got 'verts: 1'"),
        ("quiver\n  vertices:  # none\n", 2, 11, "at least one vertex is required"),
        ("quiver\nvertices: 1 s:\n", 2, 13, "bad vertex token 's:'"),
        ("quiver\n  vertices: 1 2!\n", 2, 15, "bad vertex token '2!'"),
        ("quiver\nvertices: 1\n  arrow:\n", 3, 3, "expected 'arrows:', got 'arrow:'"),
        (_HEAD + "relations:\n  a a!\n", 5, 5, "bad token 'a!'"),
        (_HEAD + "  a 1 -> 2\n", 4, 3, "expected 'id: source -> target', got 'a 1 -> 2'"),
        (_HEAD + "  a: 1 2\n", 4, 5, "missing '->' in arrow line 'a: 1 2'"),
        (_HEAD + "  a: 1 -> x!\n", 4, 11, "bad token 'x!'"),
        (_HEAD + "  a: -> 2\n", 4, 6, "bad token ''"),
        # separators that str.strip and the arrow-line pattern's \s both skip,
        # and characters inside a token that neither does
        (_HEAD + "\ta:\t1\t->\tx!\n", 4, 10, "bad token 'x!'"),
        (_HEAD + "a: 1\r-> 2!\r\n", 4, 9, "bad token '2!'"),
        (_HEAD + "a:\v1 -> 2\v3\n", 4, 9, "bad token '2\\x0b3'"),
        (_HEAD + "a\x1c:\x1c1\x1c2 -> 2\n", 4, 5, "bad token '1\\x1c2'"),
        (_HEAD + "a:\xa01 ->\xa0\xa02\xa0x\n", 4, 10, "bad token '2\\xa0x'"),
        (_HEAD + "  a: 1\0 -> 2\n", 4, 6, "bad token '1\\x00'"),
        (_HEAD + "  a: 1 -> 2\n  b\u00e9: 2 -> 1\n", 5, 3, "bad token 'b\u00e9'"),
    ],
    ids=[
        "no-header", "no-vertices-line", "not-quiver", "not-vertices", "no-vertex",
        "vertex-token-in-header", "bad-vertex-token", "not-arrows", "bad-relation-token",
        "no-colon", "missing-arrow", "bad-arrow-token", "empty-arrow-token",
        "tab", "cr", "vt", "file-separator", "no-break-space", "nul-in-token",
        "non-ascii-in-token",
    ],
)
def test_parse_error_position(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_quiver(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize("line", ["a:\t1\t->\t2", "a:\r1\r->\r2\r", "a\v:\v1\v->\v2",
                                  "a\x1c: 1 ->\x1c2", "\xa0a\xa0:\xa01\xa0->\xa02\xa0"])
def test_arrow_line_separators(line):
    assert parse_quiver(_HEAD + line + "\n").arrows == (("a", "1", "2"),)


class TestRoundTrip:
    def test_dsl_round_trip(self, fig1, fig5):
        for bq in (fig1, fig5):
            assert parse_quiver(format_quiver(bq)) == bq

    def test_json_round_trip(self, fig1, fig5):
        for bq in (fig1, fig5):
            data = json.loads(json.dumps(quiver_to_json(bq)))
            assert quiver_from_json(data) == bq

    def test_json_keys(self, fig5):
        data = quiver_to_json(fig5)
        assert set(data) == {"vertices", "arrows", "relations"}
        assert set(data["arrows"][0]) == {"id", "source", "target"}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_round_trip(self, seed):
        bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=4, num_arrows=5))
        assert parse_quiver(format_quiver(bq)) == bq
        assert quiver_from_json(quiver_to_json(bq)) == bq


# what a mutation may insert: separators, control and non-ASCII characters,
# DSL and JSON punctuation, and JSON escapes that decode to whitespace
_NOISE = ["\t", "\r", "\0", "\n", " ", "é", "→", "#", ":", "->", "'", "_", "x", "1", "a",
          '"', ",", "[", "]", "{", "}", "\\n", "\\t", "\\u00e9"]
_NEWLINE_ID = ('{"vertices": ["1\\n", "2"], "arrows": [{"id": "a", "source": "1\\n", '
               '"target": "2"}], "relations": []}')


def _mutants(text, rng, count):
    """``count`` copies of ``text``, each with one to three of its tokens
    deleted or copied, or a noise token inserted."""
    pieces = re.findall(r"\w+|\s|.", text)
    for _ in range(count):
        mutant = list(pieces)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(mutant))
            op = rng.randrange(3)
            if op == 0:
                del mutant[i]
            else:
                mutant.insert(i, rng.choice(mutant if op == 1 else _NOISE))
        yield "".join(mutant)


def _writes_back_if_it_loads(load, text):
    """Whether ``text`` loads; if it does, both written forms load back equal."""
    try:
        bq = load(text)
    except QuiverError:
        return False
    assert parse_quiver(format_quiver(bq)) == bq, text
    assert quiver_from_json(json.dumps(quiver_to_json(bq))) == bq, text
    return True


_LOADERS = {"dsl": (parse_quiver, format_quiver),
            "json": (quiver_from_json, lambda bq: json.dumps(quiver_to_json(bq)))}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("form", _LOADERS)
def test_every_mutant_that_loads_writes_back(form, seed, fig1, fig5):
    load, dump = _LOADERS[form]
    rng = random.Random(seed)
    loaded = sum(
        _writes_back_if_it_loads(load, mutant)
        for bq in (fig1, fig5)
        for mutant in _mutants(dump(bq), rng, 150)
    )
    assert loaded > 0


# every verb that reads a file, with the options it needs
_FILE_VERBS = [
    ["validate"], ["classify"], ["strings", "--max-letters", "3"], ["bands", "--find"],
    ["reptype"], ["forbidden"], ["transform", "--R", "a"], ["cma"],
    ["homdim", "--from", "a", "--to", "b"], ["module-string", "--projective", "1"],
    ["module-string", "--arrow", "a"], ["verify", "--R", "a"],
    ["verify", "--all-indices", "--cap", "2"], ["dim"], ["export-dot"],
]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("form", _LOADERS)
def test_every_mutant_exits_0_1_or_2(form, seed, fig1, fig5, tmp_path, capsys):
    """``cli.run`` on a mutated file exits 0, 1 or 2 under every verb, and a
    nonzero exit writes exactly one stderr line and no traceback."""
    from strquiv.cli import run

    dump = _LOADERS[form][1]
    rng = random.Random(seed)
    path = tmp_path / f"mutant.{'json' if form == 'json' else 'quiver'}"
    codes = set()
    for bq in (fig1, fig5):
        for mutant in _mutants(dump(bq), rng, 20):
            path.write_text(mutant)
            for verb in _FILE_VERBS:
                code = run([verb[0], str(path), *verb[1:]])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (verb, mutant)
                assert "Traceback" not in err
                if code:
                    assert err.count("\n") == 1 and err.endswith("\n"), (verb, mutant, err)
                codes.add(code)
    assert {1, 2} <= codes  # domain errors and parse errors both occur


def test_an_id_with_a_trailing_newline_does_not_load():
    assert not _writes_back_if_it_loads(quiver_from_json, _NEWLINE_ID)
    with pytest.raises(ParseError, match="bad token '1\\\\n'"):
        quiver_from_json(_NEWLINE_ID)


_TWO_CYCLE = {
    "vertices": ["1", "2"],
    "arrows": [{"id": "a", "source": "1", "target": "2"}, {"id": "b", "source": "2", "target": "1"}],
    "relations": [["a", "b"], ["b", "a"]],
}


@pytest.mark.parametrize(
    ("key", "value"),
    [("vertices", "12"), ("arrows", "ab"), ("relations", ["ab", "ba"]), ("relations", "ab")],
)
def test_json_strings_are_not_arrays(key, value):
    assert quiver_from_json(_TWO_CYCLE).relations == (("a", "b"), ("b", "a"))
    with pytest.raises(ParseError):
        quiver_from_json(json.dumps({**_TWO_CYCLE, key: value}))


class TestWalkText:
    def test_linear(self, fig5):
        w = parse_walk(fig5, "a'^-1 d a e'")
        assert isinstance(w, Walk) and len(w) == 4
        assert format_walk(w) == "a'^-1 d a e'"

    def test_trivial(self, fig5):
        w = parse_walk(fig5, "e(3)")
        assert w.is_trivial and w.anchor == "3"
        assert format_walk(w) == "e(3)"

    def test_cyclic(self, fig5):
        cw = parse_walk(fig5, "cycle( a e^-1 )")
        assert isinstance(cw, CyclicWalk) and len(cw) == 2
        assert format_walk(cw) == "cycle( a e^-1 )"

    def test_cycle_of_a_trivial_walk_is_rejected(self, fig5):
        with pytest.raises(InvalidWalkText, match="at least one letter"):
            parse_walk(fig5, "cycle(e(1))")

    def test_interpunct_separator(self, fig5):
        assert parse_walk(fig5, "a·e'") == parse_walk(fig5, "a e'")

    def test_unknown_vertex_and_arrow(self, fig5):
        with pytest.raises(UnknownVertex, match="unknown vertex '9'"):
            parse_walk(fig5, "e(9)")
        with pytest.raises(UnknownArrow, match="unknown arrow 'z'"):
            parse_walk(fig5, "a z")


class TestDot:
    def test_dot_mentions_everything(self, fig5):
        dot = quiver_to_dot(fig5)
        assert dot.startswith("digraph")
        for a in fig5.arrows:
            assert f'label="{a.id}"' in dot
        assert "style=dashed" in dot


_TOKEN = re.compile(r"[A-Za-z0-9_']+")
_SEPARATORS = ["\t", " ", "\x1c", "\u2003"]  # whitespace to str.split and to \s


def _reader_mutant(text, rng):
    """``text`` with one to three of these, at random lines: a comment,
    CRLF line ends, a space become a tab, an em space or a file separator,
    one of those at a line's end, a blank line, a repeated 'relations:'
    line, a missing '->' or a bad token."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        op = rng.randrange(8)
        if op == 0:
            lines[i] += rng.choice([" # note", "#", "\t# relations:"])
        elif op == 1:
            lines = [line + "\r" for line in lines[:-1]] + lines[-1:]
        elif op == 2 and " " in line:
            j = rng.choice([j for j, c in enumerate(line) if c == " "])
            lines[i] = line[:j] + rng.choice(_SEPARATORS) + line[j + 1 :]
        elif op == 3:
            space = rng.choice(_SEPARATORS)
            lines[i] = rng.choice([space + line, line + space])
        elif op == 4:
            lines.insert(i, rng.choice(["", "  ", "\t "]))
        elif op == 5:
            lines.insert(lines.index("relations:") + 1 if "relations:" in lines else i, "relations:")
        elif op == 6:
            lines[i] = line.replace("->", "", 1)
        elif op == 7:
            j = rng.choice([m.start() for m in _TOKEN.finditer(line)] or [0])
            lines[i] = line[:j] + rng.choice(["!", "é", "-", ":"]) + line[j:]
    return "\n".join(lines)


def _outcome(read, text):
    """The quiver ``read`` makes of ``text``, or the error it raises."""
    try:
        return read(text)
    except ParseError as err:
        return "ParseError", err.line, err.col, err.message
    except QuiverError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("seed", range(6))
def test_block_reader_matches_line_reader(seed, fig1, fig5):
    """parse_quiver, which matches whole blocks, and the line-by-line reader
    give equal quivers or the same error on mutated texts; the blocks match
    every text that differs from a fixture only in whitespace and comments."""
    from strquiv.dsl import _read_blocks, _read_lines

    rng = random.Random(seed)
    texts = [(FIXTURES / "fig1.quiver").read_text(), (FIXTURES / "fig5.quiver").read_text()]
    texts += [format_quiver(bq) for bq in (fig1, fig5)]
    texts += [format_quiver(gen_random_sag(RandomSagSpec(seed=seed * 10 + k, num_vertices=8, num_arrows=12)))
              for k in range(4)]
    kinds = set()
    for text in texts:
        assert _read_blocks(text) is not None
        for _ in range(60):
            mutant = _reader_mutant(text, rng)
            got = _outcome(parse_quiver, mutant)
            assert got == _outcome(lambda t: BoundQuiver.build(*_read_lines(t)), mutant), mutant
            kinds.add(type(got).__name__ if isinstance(got, BoundQuiver) else got[0])
            if re.sub(r"#[^\n]*|\s", "", mutant) == re.sub(r"#[^\n]*|\s", "", text):
                assert _read_blocks(mutant) is not None, mutant
    assert {"BoundQuiver", "ParseError"} <= kinds
