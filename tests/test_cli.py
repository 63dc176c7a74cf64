import json
import os
import subprocess
import sys

import pytest

from pathlib import Path

from strquiv.cli import run

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
