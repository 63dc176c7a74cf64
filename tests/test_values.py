"""Value semantics of the data model and the records: each value is
immutable, equal values compare and hash equal, and ``copy`` and ``pickle``
give back an equal value."""

import copy
import pickle
from pathlib import Path as FilePath

import pytest

from strquiv import (
    Arrow,
    BoundQuiver,
    Classification,
    CyclicWalk,
    ForbiddenCycle,
    InvalidPath,
    Letter,
    Path,
    PerfectIndex,
    RandomSagSpec,
    RIndex,
    TransformedAlgebraReport,
    TransformResult,
    Walk,
    classify,
    cma,
    parse_quiver,
    verify_endo_dimension,
    validate_index,
)

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


def _fig5():
    return parse_quiver((FIXTURES / "fig5.quiver").read_text())


def _report():
    bq = _fig5()
    return verify_endo_dimension(bq, validate_index(bq, ["a"]))


def _values():
    """For each class, a function that makes a fresh value of it."""
    letters = (Letter("a", False), Letter("b", True))
    return {
        "BoundQuiver": _fig5,
        "Path": lambda: Path(("a", "b")),
        "trivial Path": lambda: Path((), "1"),
        "Walk": lambda: Walk(letters),
        "trivial Walk": lambda: Walk((), "1"),
        "CyclicWalk": lambda: CyclicWalk(letters),
        "Arrow": lambda: Arrow("a", "1", "2"),
        "Letter": lambda: Letter("a", True),
        "Classification": lambda: Classification(True, True, True, False, (("gentle-R", "a"),)),
        "ForbiddenCycle": lambda: ForbiddenCycle(("a", "b", "c")),
        "PerfectIndex": lambda: PerfectIndex(frozenset("abc"), (ForbiddenCycle(("a", "b", "c")),)),
        "RandomSagSpec": lambda: RandomSagSpec(3, num_vertices=8, num_arrows=12),
        "RIndex": lambda: RIndex(("a", "b")),
        "TransformResult": lambda: cma(_fig5()),
        "TransformedAlgebraReport": _report,
    }


VALUES = _values()
# values holding a dict, which no hash can cover
UNHASHABLE = {"TransformResult", "TransformedAlgebraReport"}
# the first field of each class
FIRST = {"BoundQuiver": "vertices", "Path": "arrows", "Walk": "letters", "CyclicWalk": "letters",
         "Arrow": "id", "Letter": "arrow", "Classification": "is_string", "ForbiddenCycle": "arrows",
         "PerfectIndex": "arrows", "RandomSagSpec": "seed", "RIndex": "arrows",
         "TransformResult": "quiver", "TransformedAlgebraReport": "result"}


@pytest.mark.parametrize("name", VALUES)
def test_assignment_raises(name):
    value = VALUES[name]()
    with pytest.raises(AttributeError):
        setattr(value, FIRST[type(value).__name__], None)
    with pytest.raises(AttributeError):
        value.no_such_field = None


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", VALUES)
def test_copies_are_equal(name):
    value = VALUES[name]()
    for made in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(made) is type(value)
        assert made == value


def test_copied_quiver_answers_as_the_original():
    bq = _fig5()
    # computed on bq, so that bq carries cached facts when it is copied
    dim = verify_endo_dimension(bq, validate_index(bq, ["a"])).dim_source_endo
    for made in (copy.deepcopy(bq), pickle.loads(pickle.dumps(bq))):
        assert verify_endo_dimension(made, validate_index(made, ["a"])).dim_source_endo == dim
        assert classify(made) == classify(bq)


def test_values_of_different_classes_differ():
    assert Walk((), "1") != Path((), "1")
    assert Walk((Letter("a", False),)) != CyclicWalk((Letter("a", False),))
    assert BoundQuiver(("1",), (), ()) != Path((), "1")


def test_reprs():
    assert repr(Walk((Letter("a", False),))) == (
        "Walk(letters=(Letter(arrow='a', inv=False),), anchor=None)"
    )
    assert repr(Path(("a",))) == "Path(arrows=('a',), anchor=None)"
    assert repr(CyclicWalk((Letter("a", True),))) == (
        "CyclicWalk(letters=(Letter(arrow='a', inv=True),))"
    )
    assert repr(Arrow("a", "1", "2")) == "Arrow(id='a', source='1', target='2')"
    assert repr(BoundQuiver(("1",), (), ())) == (
        "BoundQuiver(vertices=('1',), arrows=(), relations=())"
    )
    assert repr(RIndex(("a",))) == "RIndex(arrows=('a',))"


def test_constructor_checks():
    with pytest.raises(InvalidPath, match="anchor"):
        Path(())
    with pytest.raises(ValueError, match="anchor"):
        Walk(())
    with pytest.raises(ValueError, match="nonempty"):
        CyclicWalk(())


def test_record_defaults():
    assert Classification(True, True, True, True).violations == ()
    spec = RandomSagSpec(7)
    assert (spec.num_vertices, spec.num_arrows, spec.relation_density) == (5, 7, 0.5)
    assert len(ForbiddenCycle(("a", "b"))) == 2
    report = verify_endo_dimension(_fig5(), RIndex(()))
    assert isinstance(report, TransformedAlgebraReport) and report.dimensions_match
    assert isinstance(report.result, TransformResult)
