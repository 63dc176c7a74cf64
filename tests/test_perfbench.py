"""The names that the benchmark's span recorder patches exist in strquiv, so
a rename that would break a traced benchmark run fails here."""

import importlib
import importlib.util
from pathlib import Path

from strquiv import core


def _load_perfbench_spans():
    """``perfbench/spans.py``, loaded by path; nothing there changes."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_perfbench_spans()
    for mod, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module("strquiv." + mod), attr)), (mod, attr)
    assert isinstance(core.BoundQuiver.__dict__["build"], classmethod)
    assert callable(core.FactorAutomaton.step)
