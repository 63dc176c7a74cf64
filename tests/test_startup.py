"""What a fresh process loads: ``import strquiv`` loads the data model only,
each CLI verb imports just the modules it runs, and no module loads
``dataclasses``.  Each case runs in its own interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG5 = str(ROOT / "fixtures" / "fig5.quiver")


def _fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last.
    ``loaded()`` there names the modules loaded since it started, beyond
    those its start-up loaded."""
    prelude = textwrap.dedent("""\
        import json, sys
        _before = set(sys.modules)
        def loaded():
            return sorted(set(sys.modules) - _before)
        """)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _ours(modules):
    return [m for m in modules if m.startswith("strquiv.")]


def test_import_loads_the_data_model_only():
    loaded = _fresh("import strquiv; print(json.dumps(loaded()))")
    assert _ours(loaded) == ["strquiv.classify", "strquiv.core", "strquiv.errors"]
    assert "dataclasses" not in loaded


def test_dim_loads_neither_dataclasses_nor_the_other_verbs_modules():
    loaded = _fresh(f"""
        from strquiv.cli import run
        assert run(["dim", {FIG5!r}]) == 0
        print(json.dumps(loaded()))
        """)
    assert _ours(loaded) == ["strquiv.classify", "strquiv.cli", "strquiv.core", "strquiv.dsl",
                             "strquiv.errors"]
    assert "dataclasses" not in loaded


def test_verify_adds_only_transform_and_forbidden():
    loaded = _fresh(f"""
        from strquiv.cli import run
        assert run(["verify", {FIG5!r}, "--R", "a,b,c"]) == 0
        print(json.dumps(loaded()))
        """)
    assert _ours(loaded) == ["strquiv.classify", "strquiv.cli", "strquiv.core", "strquiv.dsl",
                             "strquiv.errors", "strquiv.forbidden", "strquiv.transform"]


def test_every_exported_name_resolves_and_star_import_binds_it():
    found = _fresh("""
        import strquiv
        listed = set(strquiv.__all__) <= set(dir(strquiv))  # before any is resolved
        names = {n: type(getattr(strquiv, n)).__name__ for n in strquiv.__all__}
        star = {}
        exec("from strquiv import *", star)
        home = {n: getattr(strquiv, n).__module__ for n in strquiv.__all__}
        print(json.dumps([names, sorted(set(strquiv.__all__) - set(star)), star["classify"].__name__,
                          home, len(strquiv.__all__), listed]))
        """)
    names, unbound, classify_name, home, count, listed = found
    assert count == 66 and unbound == [] and listed
    assert "module" not in names.values()
    assert classify_name == "classify" and names["classify"] == "function"
    assert home["find_band"] == "strquiv.walks" and home["Arrow"] == "strquiv.core"


def test_importing_the_classify_module_keeps_the_function():
    kinds = _fresh("""
        import strquiv.walks
        import strquiv.classify
        import strquiv
        from strquiv import classify
        print(json.dumps([type(strquiv.classify).__name__, type(classify).__name__]))
        """)
    assert kinds == ["function", "function"]


def test_unknown_name_raises_attribute_error():
    raised = _fresh("""
        import strquiv
        out = []
        try:
            strquiv.no_such_name
        except AttributeError as exc:
            out.append(str(exc))
        try:
            from strquiv import no_such_name
        except ImportError as exc:
            out.append(type(exc).__name__)
        print(json.dumps(out))
        """)
    assert raised == ["module 'strquiv' has no attribute 'no_such_name'", "ImportError"]
