import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref

import pytest

from pathlib import Path

from strquiv import (
    RandomSagSpec,
    format_quiver,
    format_walk,
    gen_random_sag,
    left_forbidden_arrows,
    parse_quiver,
    perfect_index,
)
from strquiv.cli import run
from strquiv.strmod import projective_string

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIG1 = str(FIXTURES / "fig1.quiver")
FIG5 = str(FIXTURES / "fig5.quiver")


@pytest.fixture
def call(capsys):
    def inner(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return inner


def test_validate(call):
    code, out, _ = call("validate", FIG5)
    assert code == 0 and "12 arrows" in out


def test_classify_text(call):
    code, out, _ = call("classify", FIG1)
    assert code == 0
    assert "string: true" in out and "sag: false" in out


def test_classify_json(call):
    code, out, _ = call("classify", FIG5, "--json")
    data = json.loads(out)
    assert code == 0
    assert set(data) == {"string", "almost_gentle", "sag", "gentle", "violations"}
    assert data["sag"] is True


def test_strings(call):
    code, out, _ = call("strings", FIG5, "--max-letters", "0")
    assert code == 0 and out.splitlines() == [f"e({v})" for v in "123456"]


def test_bands_and_reptype(call):
    code, out, _ = call("bands", FIG5)
    assert code == 0 and out.strip() == "band exists"
    code, out, _ = call("bands", FIG5, "--find")
    assert code == 0 and out.startswith("cycle(")
    code, out, _ = call("reptype", FIG5)
    assert code == 0 and out.strip() == "infinite"


def test_bands_text_needs_no_witness(call, monkeypatch, tmp_path):
    band_free = tmp_path / "chain.quiver"
    band_free.write_text("quiver\nvertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 3\n")

    def no_search(bq):
        raise AssertionError("find_band called")

    # the handler imports find_band when it runs
    monkeypatch.setattr("strquiv.walks.find_band", no_search)
    for file, line in ((FIG1, "band exists"), (FIG5, "band exists"), (band_free, "no band")):
        assert call("bands", str(file)) == (0, line + "\n", "")


def test_forbidden_json(call):
    code, out, _ = call("forbidden", FIG5, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["perfect_index"] == ["a", "b", "c"]
    assert [c["perfect"] for c in data["cycles"]] == [True, False]


def test_transform_and_cma(call, tmp_path, fig4_expected, fig6_expected):
    from strquiv import parse_quiver

    out_file = tmp_path / "out.quiver"
    code, _, _ = call("transform", FIG1, "--R", "a,d,a'", "--out", str(out_file))
    assert code == 0
    assert parse_quiver(out_file.read_text()) == fig4_expected

    code, out, _ = call("cma", FIG5, "--json")
    data = json.loads(out)
    assert code == 0 and data["perfect_index"] == ["a", "b", "c"]


def test_homdim(call):
    code, out, _ = call(
        "homdim", FIG5, "--from", "a'^-1 d a e'", "--to", "c'^-1 f c d'"
    )
    assert code == 0 and out.strip() == "1"


def test_module_string(call):
    code, out, _ = call("module-string", FIG5, "--projective", "1")
    assert code == 0 and out.strip() == "d'^-1 a e'"
    code, out, _ = call("module-string", FIG5, "--arrow", "a")
    assert code == 0 and out.strip() == "e'"


def test_verify(call):
    code, out, _ = call("verify", FIG5, "--R", "a,b,c", "--json")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True


def test_dim(call):
    code, out, _ = call("dim", FIG5)
    assert code == 0 and out.strip() == "27"


def test_export_dot(call):
    code, out, _ = call("export-dot", FIG5)
    assert code == 0 and out.startswith("digraph")


def test_gen_deterministic(call):
    _, out1, _ = call("gen", "--seed", "7")
    _, out2, _ = call("gen", "--seed", "7")
    assert out1 == out2 and out1.startswith("quiver")


def test_domain_error_exit_1(call):
    # cma demands a SAG input; fig1 is not SAG
    code, _, err = call("cma", FIG1)
    assert code == 1 and err.startswith("NotSAG")


@pytest.mark.parametrize("argv", [["cma", FIG1], ["verify", FIG1, "--R", "a"]])
def test_not_sag_names_its_witnesses(call, argv):
    code, out, err = call(*argv)
    assert code == 1 and out == ""
    assert err == (
        "NotSAG bound quiver is not string-almost-gentle: relation-length a' e b; "
        "relation-length b' f c; relation-length c' d a\n"
    )


def test_gen_with_more_than_two_arrows_per_vertex_exits_1(call):
    code, out, err = call("gen", "--seed", "1", "--vertices", "5", "--arrows", "11")
    assert code == 1 and out == ""
    assert err == (
        "GenerationExhausted 11 arrows exceed the 10 that 5 vertices "
        "of out-degree at most 2 allow\n"
    )


def test_usage_error_exit_2(call):
    code, _, _ = call("no-such-verb")
    assert code == 2


def test_missing_file_exit_2(call):
    code, _, err = call("classify", "does-not-exist.quiver")
    assert code == 2


def test_parse_error_exit_2(call, tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("quiver\nvertices: 1\narrows:\n  broken line\n")
    code, _, err = call("classify", str(bad))
    assert code == 2 and err.startswith("ParseError")


def test_python_dash_m_runs_the_cli(call):
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "strquiv", "dim", FIG5],
        env=env, capture_output=True, text=True, timeout=60,
    )
    code, out, _ = call("dim", FIG5)
    assert proc.returncode == 0 and code == 0
    assert proc.stdout == out == "27\n"


def _pinned_runs(tmp_path):
    """Every verb, text and ``--json``, on fig1, fig5 and two generated SAG
    quivers; only invocations that succeed."""
    quivers = {"fig1": FIG1, "fig5": FIG5}
    for seed in (3, 4):
        path = tmp_path / f"sag{seed}.quiver"
        spec = RandomSagSpec(seed=seed, num_vertices=8, num_arrows=12, relation_density=0.4)
        path.write_text(format_quiver(gen_random_sag(spec)))
        quivers[f"sag{seed}"] = str(path)
    runs = []
    for name, file in quivers.items():
        bq = parse_quiver(Path(file).read_text())
        v, w = bq.vertices[:2]
        left, index = (
            ",".join(sorted(arrows, key=bq.arrow_index.__getitem__))
            for arrows in (left_forbidden_arrows(bq), perfect_index(bq).arrows)
        )
        out = str(tmp_path / "out")
        argvs = [
            ["validate", file],
            ["classify", file],
            ["strings", file, "--max-letters", "3"],
            ["bands", file],
            ["bands", file, "--find"],
            ["reptype", file],
            ["forbidden", file],
            ["transform", file, "--R", left, "--out", out + ".quiver", "--dot", out + ".dot"],
            ["transform", file, "--R", left.split(",")[0], "--out", out + ".json"],
            ["homdim", file, "--from", format_walk(projective_string(bq, w)),
             "--to", format_walk(projective_string(bq, v))],
            ["module-string", file, "--projective", v],
            ["module-string", file, "--arrow", bq.arrows[0].id],
            ["dim", file],
            ["export-dot", file],
        ]
        if name != "fig1":  # cma and verify need a SAG quiver
            argvs += [
                ["cma", file, "--out", out + ".quiver", "--dot", out + ".dot"],
                ["verify", file, "--R", index],
                ["verify", file, "--all-indices", "--cap", "1"],
            ]
        runs += [(name, argv) for argv in argvs]
    runs += [("", ["gen", "--seed", "3"])]
    runs += [("", ["gen", "--seed", "4", "--vertices", "8", "--arrows", "12", "--density", "0.4"])]
    return runs


# sha256 over the exit code, stdout, stderr and written files of every run
# in _pinned_runs, recorded before the CLI became table-driven.
CLI_OUTPUT_SHA256 = "a3ac895c1bed03ae35a1cdf8387eec18bfae9c3b8615bec36536322ea72f6fa4"


def test_output_is_pinned(call, tmp_path):
    digest = hashlib.sha256()
    for name, argv in _pinned_runs(tmp_path):
        for extra in ([], ["--json"]):
            for f in tmp_path.glob("out.*"):
                f.unlink()
            code, out, err = call(*argv, *extra)
            assert code == 0, (argv, extra, err)
            label = " ".join([argv[0], name] + argv[2:] + extra).replace(str(tmp_path), "")
            written = [(f.name, f.read_text()) for f in sorted(tmp_path.glob("out.*"))]
            digest.update(repr((label, code, out, err, written)).encode())
    assert digest.hexdigest() == CLI_OUTPUT_SHA256


# sha256 over the exit code and stdout of `strings` on a 100/150 SAG quiver
# (10 letters, --json) and on fig1 and fig5 (6 letters, text), recorded
# before enumeration expanded each transition-graph node once.
STRINGS_OUTPUT_SHA256 = "1ee03761734788be89de8fc0dd1b863649b138157e89b3f47af7f4e186867633"


def test_strings_output_is_pinned(call, tmp_path):
    path = tmp_path / "sag100.quiver"
    spec = RandomSagSpec(seed=3, num_vertices=100, num_arrows=150, relation_density=0.4)
    path.write_text(format_quiver(gen_random_sag(spec)))
    digest = hashlib.sha256()
    for name, argv in [
        ("sag100", ["strings", str(path), "--max-letters", "10", "--json"]),
        ("fig1", ["strings", FIG1, "--max-letters", "6"]),
        ("fig5", ["strings", FIG5, "--max-letters", "6"]),
    ]:
        code, out, _ = call(*argv)
        digest.update(repr((name, argv[2:], code, out)).encode())
    assert digest.hexdigest() == STRINGS_OUTPUT_SHA256


# sha256 over the exit code and stdout of `forbidden`, text and --json, on
# two 100/150 SAG quivers, recorded before the search flagged its own cycles
# as perfect: one with 3 cycles, 2 of them perfect, and a dense one with 44.
FORBIDDEN_OUTPUT_SHA256 = "39595a73ccff68983a902fa838ef618a3c06ad952c049c55640441c2e401ee57"


def test_forbidden_output_is_pinned(call, tmp_path):
    digest = hashlib.sha256()
    for seed, density, cycles, perfect in [(4, 0.6, 3, 2), (3, 1.0, 44, 0)]:
        path = tmp_path / f"sag{seed}.quiver"
        spec = RandomSagSpec(seed=seed, num_vertices=100, num_arrows=150, relation_density=density)
        path.write_text(format_quiver(gen_random_sag(spec)))
        for extra in ([], ["--json"]):
            code, out, _ = call("forbidden", str(path), *extra)
            digest.update(repr((seed, density, extra, code, out)).encode())
        flags = [c["perfect"] for c in json.loads(out)["cycles"]]  # the --json run
        assert (len(flags), sum(flags)) == (cycles, perfect)
    assert digest.hexdigest() == FORBIDDEN_OUTPUT_SHA256


TWO_CYCLE = "quiver\nvertices: 1 2\narrows:\na: 1 -> 2\nb: 2 -> 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reptype"],
        ["bands"],
        ["module-string", "--projective", "1"],
        ["verify"],
        ["cma"],
    ],
)
def test_infinite_dimensional_names_the_cycle(call, tmp_path, argv):
    path = tmp_path / "cycle.quiver"
    path.write_text(TWO_CYCLE)
    code, _, err = call(argv[0], str(path), *argv[1:])
    assert code == 1
    assert err == "InfiniteDimensional relation-free oriented cycle exists: a b\n"


@pytest.mark.parametrize(
    ("content", "argv", "tag"),
    [
        ('{"vertices": ["1"], "arr', ["validate"], "ParseError"),
        ('{"vertices": ["1"], "relations": []}', ["validate"], "ParseError"),
        ("[1, 2]", ["validate"], "ParseError"),
        ('{"vertices": [1], "arrows": [], "relations": []}', ["dim"], "ParseError"),
        ('{"vertices": [{}], "arrows": [], "relations": []}', ["validate"], "ParseError"),
        (b"quiver\nvertices: \xff\n", ["validate"], "UnicodeDecodeError"),
        (None, ["validate"], "IsADirectoryError"),
        (
            '{"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}],'
            ' "relations": []}',
            ["homdim", "--from", "cycle()", "--to", "a"],
            "InvalidWalkText",
        ),
        (
            '{"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}],'
            ' "relations": []}',
            ["homdim", "--from", "cycle(e(1))", "--to", "a"],
            "InvalidWalkText",
        ),
        (
            '{"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}],'
            ' "relations": []}',
            ["homdim", "--from", "cycle( a )", "--to", "a"],
            "InvalidWalkText",
        ),
        ("[" * 100_000 + "]" * 100_000, ["validate"], "ParseError"),
        ('{"vertices": [' + "1" * 5000 + '], "arrows": [], "relations": []}', ["validate"],
         "ParseError"),
        # no DSL token can hold the newline, so cma --out could not write it
        ('{"vertices": ["1\\n", "2"], "arrows": [{"id": "a", "source": "1\\n", "target": "2"}],'
         ' "relations": []}', ["cma"], "ParseError"),
    ],
    ids=[
        "truncated", "no-arrows", "list", "int-id", "dict-id", "not-utf8", "directory",
        "empty-cycle", "trivial-cycle", "cyclic-homdim", "nested-too-deep", "long-number",
        "newline-id",
    ],
)
def test_bad_input_exit_2(call, tmp_path, content, argv, tag):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = call(argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(tag + " ") and err.count("\n") == 1 and err.endswith("\n")


def test_json_strings_are_not_arrays_exit_2(call, tmp_path):
    path = tmp_path / "input.json"
    arrows = '[{"id": "a", "source": "1", "target": "2"}, {"id": "b", "source": "2", "target": "1"}]'
    path.write_text(f'{{"vertices": "12", "arrows": {arrows}, "relations": ["ab", "ba"]}}')
    code, out, err = call("dim", str(path))
    assert code == 2 and out == ""
    assert err.startswith("ParseError ") and "JSON arrays" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    ("argv", "option"),
    [
        (["gen", "--seed", "1", "--vertices", "0", "--arrows", "0"], "--vertices"),
        (["gen", "--seed", "1", "--arrows", "-1"], "--arrows"),
        (["verify", FIG5, "--all-indices", "--cap", "-1"], "--cap"),
        (["strings", FIG5, "--max-letters", "-1"], "--max-letters"),
    ],
)
def test_unusable_numbers_are_usage_errors(call, argv, option):
    code, out, err = call(*argv)
    assert code == 2 and out == ""
    assert f"argument {option}: must be at least" in err


@pytest.mark.parametrize(
    ("density", "message"),
    [(d, "must be in [0, 1]") for d in ("2", "-1", "nan", "inf", "1.0000001")]
    + [("half", "invalid float value: 'half'")],
)
def test_unusable_density_is_a_usage_error(call, density, message):
    code, out, err = call("gen", "--seed", "1", "--vertices", "3", "--arrows", "2",
                          "--density", density)
    assert code == 2 and out == ""
    assert f"argument --density: {message}" in err


@pytest.mark.parametrize("density", ["0", "1", "0.4"])
def test_density_in_the_unit_interval_is_accepted(call, density):
    code, out, _ = call("gen", "--seed", "1", "--vertices", "3", "--arrows", "2",
                        "--density", density)
    assert code == 0 and out.startswith("quiver")


def test_verify_mismatch_exits_1(call):
    # R = {d'} is outside fig5's perfect index, and the dimensions differ
    code, out, err = call("verify", FIG5, "--R", "d'")
    assert code == 1 and err == ""
    assert out == "R={d'}: endo=33 transformed=32 MISMATCH\n"
    code, out, _ = call("verify", FIG5, "--R", "d'", "--json")
    assert code == 1 and json.loads(out)["ok"] is False


@pytest.mark.parametrize("given, label", [("c,a", ["a", "c"]), ("a,a", ["a"])])
def test_verify_labels_the_index_it_checks(call, given, label):
    code, out, _ = call("verify", FIG5, "--R", given)
    assert code == 0 and out.startswith(f"R={{{','.join(label)}}}: ")
    code, out, _ = call("verify", FIG5, "--R", given, "--json")
    assert code == 0 and [r["R"] for r in json.loads(out)["reports"]] == [label]


@pytest.mark.parametrize(
    "argv",
    [
        ["--all-indices", "--R", "b"],
        ["--all-indices", "--R", "a"],
        ["--all-indices", "--R", ""],
        ["--R", "a", "--cap", "3"],
        ["--cap", "3"],
    ],
)
def test_verify_flags_that_do_not_go_together_are_usage_errors(call, argv):
    code, out, err = call("verify", FIG5, *argv)
    assert code == 2 and out == ""
    assert err == "ArgumentError --cap needs --all-indices, which excludes --R\n"


def test_verify_all_indices_on_many_arrows_needs_a_cap(call, tmp_path):
    # A_19 with every two consecutive arrows a relation: 17 left forbidden arrows
    arrows = "".join(f"  a{i}: {i} -> {i + 1}\n" for i in range(1, 19))
    relations = "".join(f"  a{i} a{i + 1}\n" for i in range(1, 18))
    file = tmp_path / "chain.quiver"
    file.write_text(f"quiver\nvertices: {' '.join(map(str, range(1, 20)))}\n"
                    f"arrows:\n{arrows}relations:\n{relations}")
    code, out, err = call("verify", str(file), "--all-indices")
    assert (code, out) == (2, "")
    assert err == "ArgumentError --all-indices on 17 left forbidden arrows needs --cap\n"
    code, out, _ = call("verify", str(file), "--all-indices", "--cap", "2")
    assert code == 0 and out.splitlines() == [
        "R={}: endo=37 transformed=37 ok", "R={a1}: endo=40 transformed=40 ok"
    ]


def test_verify_all_indices_lists_every_subset_of_few_arrows(call):
    code, out, _ = call("verify", FIG5, "--all-indices", "--json")
    assert len(json.loads(out)["reports"]) == 1 << 12


def test_verify_all_indices_holds_at_most_one_earlier_split_quiver(call, monkeypatch):
    # each report's split quiver is freed once its line is made, so at most
    # the previous one is still alive when the next subset is verified
    import strquiv.transform

    verify = strquiv.transform.verify_endo_dimension
    refs, alive = [], []

    def tracked(bq, index):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        report = verify(bq, index)
        if report.result.quiver is not bq:  # R = ∅ splits nothing
            refs.append(weakref.ref(report.result.quiver))
        return report

    monkeypatch.setattr(strquiv.transform, "verify_endo_dimension", tracked)
    code, out, _ = call("verify", FIG5, "--all-indices", "--cap", "16")
    assert code == 0 and len(out.splitlines()) == 16
    assert len(alive) == 16 and len(refs) == 15 and max(alive) <= 1


def test_verify_without_index_flags_checks_the_empty_index(call):
    code, out, _ = call("verify", FIG5)
    assert code == 0 and out == "R={}: endo=27 transformed=27 ok\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["module-string", FIG5, "--projective", "9"],
        ["homdim", FIG5, "--from", "e(9)", "--to", "a"],
        ["homdim", FIG5, "--from", "a", "--to", "e(9)"],
    ],
)
def test_unknown_vertex_is_named_as_a_vertex(call, argv):
    code, out, err = call(*argv)
    assert code == 1 and out == ""
    assert err == "UnknownVertex unknown vertex '9'\n"


def test_unknown_arrow_is_still_named_as_an_arrow(call):
    code, out, err = call("module-string", FIG5, "--arrow", "z")
    assert code == 1 and out == ""
    assert err == "UnknownArrow unknown arrow 'z'\n"


@pytest.mark.parametrize("argv", [["transform", FIG5, "--R", "z"], ["verify", FIG5, "--R", "a,z"]])
def test_unknown_index_arrow_is_named_as_an_arrow(call, argv):
    code, out, err = call(*argv)
    assert code == 1 and out == ""
    assert err == "UnknownArrow unknown arrow 'z'\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv", [["forbidden", "--json", FIG5], ["strings", FIG5, "--max-letters", "3"]]
)
def test_closed_output_pipe_exits_2(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = run(argv)
    sys.stdout.close()  # the os.devnull stream the CLI switched to
    err = capsys.readouterr().err
    assert code == 2
    assert err == "BrokenPipeError [Errno 32] Broken pipe\n"


def test_closed_output_pipe_leaves_no_traceback_at_exit():
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONUNBUFFERED", None)  # stdout holds its output until a flush
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "strquiv", "dim", FIG5],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "BrokenPipeError [Errno 32] Broken pipe\n"
