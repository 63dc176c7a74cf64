"""Searches on the linear quiver A_3000, deeper than Python's recursion limit."""

import pytest

from strquiv import (
    Arrow,
    BoundQuiver,
    algebra_dim,
    enumerate_paths,
    enumerate_strings,
    find_band,
    format_quiver,
    representation_type,
    validate_index,
    verify_endo_dimension,
)
from strquiv.cli import run

N = 3000  # arrows; the quiver has N + 1 vertices
DIM = (N + 1) * (N + 2) // 2


def linear_arrows():
    return [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(N)]


@pytest.fixture(scope="module")
def linear():
    return BoundQuiver.build([str(i) for i in range(N + 1)], linear_arrows())


def test_algebra_dim(linear):
    assert algebra_dim(linear) == DIM == 4_504_501


def test_one_relation_as_long_as_the_quiver():
    # normalization compares only windows as long as some relation, so one
    # N-arrow relation is kept without reading its N² factors
    relation = [a.id for a in linear_arrows()]
    bq = BoundQuiver.build([str(i) for i in range(N + 1)], linear_arrows(), [relation])
    assert bq.relations == (tuple(relation),)
    assert algebra_dim(bq) == DIM - 1 == 4_504_500


def test_representation_type(linear):
    assert representation_type(linear) == "finite"


def test_no_band(linear):
    assert find_band(linear) is None


def test_strings(linear):
    # one trivial string per vertex, and n + 1 - l classes of length l
    expected = (N + 1) + sum(N + 1 - length for length in range(1, 5))
    assert len(enumerate_strings(linear, 4)) == expected


def test_verify(linear):
    report = verify_endo_dimension(linear, validate_index(linear, []))
    assert (report.dim_source_endo, report.dim_transformed) == (DIM, DIM)


def test_one_path_end_to_end(linear):
    paths = enumerate_paths(linear, "0", str(N))
    assert len(paths) == 1 and len(paths[0]) == N


def test_cli_dim(linear, tmp_path, capsys):
    path = tmp_path / "linear.quiver"
    path.write_text(format_quiver(linear))
    assert run(["dim", str(path)]) == 0
    assert capsys.readouterr().out.strip() == str(DIM)
