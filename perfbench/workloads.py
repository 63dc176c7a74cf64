"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass of
operations in ``run_pass`` and checks a pass's outputs against references
from ``oracle``, closed formulas and the fixture files in ``check``.  An
operation is one user request: a verification (``endo``), a query
(``long``) or a CLI process (``cli-cold``).  A pass starts from the DSL
text made in set-up, so no cached state on a ``BoundQuiver`` carries over
from one pass to the next.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracle as O
import strquiv as S
from spans import import_ms, span_rows

DENSITY = 0.4


class Failed:
    """Output of an operation that raised or exited nonzero."""

    def __init__(self, why: str):
        self.why = why

    def __eq__(self, other):
        return isinstance(other, Failed) and other.why == self.why

    def __repr__(self):
        return f"Failed({self.why})"


class Pass:
    """Runs operations, timing each and keeping its raw result for ``finish``.

    With a tracer, ``finish`` also gathers the pass's spans: those recorded
    in this process and those that traced CLI children handed back.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.times: list[float] = []
        self.failed = 0
        self.raw: dict[str, tuple] = {}
        self.children: list[dict] = []
        self.outputs: dict[str, object] = {}
        self.trace: dict = {}

    def op(self, key: str, summarize, fn, *args):
        """Time ``fn(*args)``; ``summarize`` turns its result into the output
        that the checks compare, after the pass."""
        t = time.perf_counter()
        try:
            result = fn(*args) if self.tracer is None else self.tracer.op(key, fn, *args)
        except Exception as exc:
            self.times.append(time.perf_counter() - t)
            self.fail(key, type(exc).__name__)
            return None
        self.times.append(time.perf_counter() - t)
        self.raw[key] = (summarize, result)
        return result

    def keep(self, key: str, summarize, value) -> None:
        """Record an output that an operation produced along the way."""
        self.raw[key] = (summarize, value)

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.raw[key] = (None, Failed(why))

    def finish(self) -> None:
        """Summarize raw results and spans, outside the pass's timed region."""
        self.outputs = {k: r if f is None else f(r) for k, (f, r) in self.raw.items()}
        self.raw = {}
        if self.tracer is None:
            return
        taken = self.tracer.take()
        rows, counters, steps = span_rows(taken["spans"]), taken["counters"], taken["loose_steps"]
        for child in self.children:
            rows += child["rows"]
            counters = {k: counters[k] + child["counters"][k] for k in counters}
            steps += child["loose_steps"]
        self.trace = {"rows": rows, "counters": counters, "loose_steps": steps,
                      "imports": [child["imports"] for child in self.children]}


def plain(bq) -> O.Quiver:
    return O.Quiver(bq.vertices, [(a.id, a.source, a.target) for a in bq.arrows], bq.relations)


def walk_key(w) -> tuple:
    return ("e", w.anchor) if w.is_trivial else tuple((l.arrow, l.inv) for l in w.letters)


def gen_text(seed: int, vertices: int, arrows: int) -> str:
    spec = S.RandomSagSpec(seed=seed, num_vertices=vertices, num_arrows=arrows, relation_density=DENSITY)
    return S.format_quiver(S.gen_random_sag(spec))


class Checker:
    def __init__(self, outputs: dict):
        self.outputs = outputs
        self.problems: list[str] = []

    def get(self, key: str):
        """The output of ``key``, or None when the operation failed."""
        value = self.outputs.get(key)
        return None if isinstance(value, Failed) else value

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Endo:
    """classify -> perfect_index -> cma -> verify_endo_dimension.

    Random quivers are drawn per size class and stratified by the size of
    their perfect index (0, 1 or 2 arrows), so every seed gets the same mix
    of index subsets and nonempty indices are always exercised.  The cost
    of one verification varies by about 20% between random quivers of one
    size, so a pass holds many small quivers rather than a few big ones.
    """

    name = "endo"
    # (vertices, arrows, perfect-index size of each quiver)
    SIZES = (
        (20, 30, (0,) * 8 + (1,) * 3 + (2,)),
        (30, 45, (0,)),
        (40, 60, (0,)),
    )
    TINY = ((8, 12, (0, 1)),)
    WITNESSES = {("d'",): (33, 32), ("a'",): (33, 30)}

    def __init__(self, root: Path, work: Path, tiny: bool):
        self.root = root
        self.sizes = self.TINY if tiny else self.SIZES

    def setup(self, seed: int) -> dict[str, str]:
        texts = {"fig5": (self.root / "fixtures" / "fig5.quiver").read_text()}
        for v, a, strata in self.sizes:
            j = 0
            for k in strata:
                while True:
                    text = gen_text(seed * 100_000 + v * 1000 + j, v, a)
                    j += 1
                    if len(O.perfect_index(O.read_dsl(text))) == k:
                        break
                    if j >= 1000:
                        raise RuntimeError(f"no quiver with a {k}-arrow perfect index at V={v}")
                texts[f"sag{v}-{len(texts)}-pi{k}"] = text
        return texts

    def run_pass(self, texts: dict[str, str], p: Pass) -> None:
        """One operation per verification request.

        The first request on a quiver (at the empty index) also loads it:
        parse, classify, perfect index and CMA, as a user does on opening it.
        """

        def load_and_verify(text):
            bq = S.parse_quiver(text)
            loaded = (bq, S.classify(bq), S.perfect_index(bq), S.cma(bq))
            return loaded, verify(bq, ())

        def verify(bq, index):
            return S.verify_endo_dimension(bq, S.validate_index(bq, index))

        def report(r):
            return (r.dim_source_endo, r.dim_transformed, plain(r.result.quiver))

        for name, text in texts.items():
            first = p.op(f"{name}/verify/", lambda r: report(r[1]), load_and_verify, text)
            if first is None:
                continue
            bq, c, pi, tr = first[0]
            p.keep(f"{name}/parse", plain, bq)
            p.keep(f"{name}/classify", None, (c.is_string, c.is_sag))
            p.keep(f"{name}/perfect_index", frozenset, pi.arrows)
            p.keep(f"{name}/cma", plain, tr.quiver)
            indices = O.subsets(pi.arrows)[1:]
            if name == "fig5":
                indices += list(self.WITNESSES)
            for index in indices:
                p.op(f"{name}/verify/{','.join(index)}", report, verify, bq, index)

    def check(self, texts: dict[str, str], outputs: dict) -> list[str]:
        c = Checker(outputs)
        fig6 = O.read_dsl((self.root / "fixtures" / "fig6.expected").read_text())
        for name, text in texts.items():
            q = O.read_dsl(text)
            pi = O.perfect_index(q)
            parsed = c.get(f"{name}/parse")
            c.expect(parsed is None or parsed.key() == q.key(), f"{name}: parsed quiver differs from its text")
            c.expect(c.get(f"{name}/classify") in (None, (O.is_string_pair(q), O.is_sag(q))), f"{name}: classify")
            c.expect(c.get(f"{name}/perfect_index") in (None, pi), f"{name}: perfect index")
            cma = c.get(f"{name}/cma")
            if cma is not None:
                c.expect(
                    (len(cma.vertices), len(cma.arrows), len(cma.relations))
                    == (len(q.vertices) + len(pi), len(q.arrows) + len(pi), len(q.relations)),
                    f"{name}: cma does not split exactly the perfect index",
                )
            if name == "fig5":
                c.expect(pi == {"a", "b", "c"}, "fig5: perfect index is not {a,b,c}")
                c.expect(cma is None or cma.key() == fig6.key(), "fig5: cma differs from fig6.expected")
            dim = O.count_paths(q)
            for key in [k for k in outputs if k.startswith(f"{name}/verify/")]:
                index = tuple(x for x in key.rsplit("/", 1)[1].split(",") if x)
                r = c.get(key)
                if r is None:
                    continue
                endo, transformed, tq = r
                c.expect(transformed == O.count_paths(tq), f"{key}: transformed dimension")
                if set(index) <= pi:
                    c.expect(endo == transformed, f"{key}: dimensions differ inside the perfect index")
                if not index:
                    c.expect(endo == dim, f"{key}: End(A_A) differs from dim A")
                if name == "fig5" and index in self.WITNESSES:
                    c.expect((endo, transformed) == self.WITNESSES[index], f"{key}: README witness")
        return c.problems


class Long:
    """Read queries on big quivers: no hom work, product-graph searches only."""

    name = "long"
    # (n of A_n, SAG sizes, letters on A_n, letters on the SAG quivers).
    # representation_type on A_n takes about half of a pass; few SAG quivers
    # keep the pass short enough to be timed twice in a 30 s run.
    FULL = (1200, ((100, 150),) * 4 + ((200, 300),), 4, 10)
    TINY = (30, ((12, 18),), 4, 6)

    def __init__(self, root: Path, work: Path, tiny: bool):
        self.linear, self.sags, self.k_linear, self.k_sag = self.TINY if tiny else self.FULL

    def setup(self, seed: int) -> dict[str, str]:
        texts = {f"A{self.linear}": O.write_dsl(O.linear_quiver(self.linear))}
        for i, (v, a) in enumerate(self.sags):
            texts[f"sag{v}-{i}"] = gen_text(seed * 100_000 + v * 10 + i, v, a)
        return texts

    def run_pass(self, texts: dict[str, str], p: Pass) -> None:
        """One operation per query; opening a quiver parses and classifies it."""

        def open_quiver(text):
            bq = S.parse_quiver(text)
            return bq, S.classify(bq)

        def forbidden(bq):
            return S.perfect_index(bq), S.forbidden_cycles(bq)

        for name, text in texts.items():
            k = self.k_linear if name.startswith("A") else self.k_sag
            opened = p.op(f"{name}/classify", lambda r: (r[1].is_string, r[1].is_sag), open_quiver, text)
            if opened is None:
                continue
            bq = opened[0]
            p.keep(f"{name}/parse", plain, bq)
            p.op(f"{name}/algebra_dim", None, S.algebra_dim, bq)
            p.op(f"{name}/representation_type", None, S.representation_type, bq)
            p.op(f"{name}/strings", lambda ws: [walk_key(w) for w in ws], S.enumerate_strings, bq, k)
            p.op(f"{name}/forbidden", lambda r: (frozenset(r[0].arrows), {c.arrows for c in r[1]}), forbidden, bq)

    def check(self, texts: dict[str, str], outputs: dict) -> list[str]:
        c = Checker(outputs)
        for name, text in texts.items():
            q = O.read_dsl(text)
            linear = name.startswith("A")
            k = self.k_linear if linear else self.k_sag
            parsed = c.get(f"{name}/parse")
            c.expect(parsed is None or parsed.key() == q.key(), f"{name}: parsed quiver differs from its text")
            c.expect(c.get(f"{name}/classify") in (None, (O.is_string_pair(q), O.is_sag(q))), f"{name}: classify")
            dim = O.linear_dim(self.linear) if linear else O.count_paths(q)
            c.expect(c.get(f"{name}/algebra_dim") in (None, dim), f"{name}: algebra_dim")
            reptype = c.get(f"{name}/representation_type")
            c.expect(reptype in (None, "finite", "infinite"), f"{name}: representation type {reptype!r}")
            if linear:
                c.expect(reptype in (None, "finite"), f"{name}: A_n is representation-finite")
            found = c.get(f"{name}/strings")
            if found is not None:
                classes = {O.string_class(w) for w in found}
                c.expect(len(classes) == len(found), f"{name}: repeated string classes")
                c.expect(classes == O.strings(q, k), f"{name}: strings differ from the reference")
                if linear:
                    c.expect(len(found) == O.linear_string_count(self.linear, k), f"{name}: A_n string count")
            c.expect(c.get(f"{name}/forbidden") in (None, (O.perfect_index(q), O.forbidden_cycles(q))),
                     f"{name}: perfect index or forbidden cycles")
        return c.problems


class CliCold:
    """One cold ``strquiv`` process per operation, read and write verbs.

    Read verbs run on a fixture and on a seeded SAG file; write verbs make
    one fresh quiver per command.  ``dim`` also runs on A_1200, where it
    fails today.  Traced passes spawn ``launch.py`` under ``-X importtime``.
    """

    name = "cli-cold"
    SAGS = ((8, 12), (12, 18))
    LINEAR = 1200
    TINY_LINEAR = 30
    CMD = "from strquiv.cli import main; main()"

    def __init__(self, root: Path, work: Path, tiny: bool):
        self.root = root
        self.work = work
        self.linear = self.TINY_LINEAR if tiny else self.LINEAR
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self, seed: int) -> dict:
        files = {"fig1": "fixtures/fig1.quiver", "fig5": "fixtures/fig5.quiver"}
        for v, a in self.SAGS:
            name = f"sag{v}"
            path = self.work / f"{name}.quiver"
            path.write_text(gen_text(seed * 100_000 + v, v, a))
            files[name] = str(path.relative_to(self.root))
        path = self.work / f"A{self.linear}.quiver"
        path.write_text(O.write_dsl(O.linear_quiver(self.linear)))
        files["A"] = str(path.relative_to(self.root))
        quivers = {k: O.read_dsl((self.root / f).read_text()) for k, f in files.items()}
        rng = random.Random(seed)
        pick = {k: (rng.choice(quivers[k].vertices), rng.choice(quivers[k].vertices)) for k in ("fig5", "sag12")}
        out = str((self.work / "out").relative_to(self.root))
        f = files
        ops = [
            ("validate", [f["fig1"]]),
            ("validate", [f["sag12"]]),
            ("classify", [f["fig1"], "--json"]),
            ("classify", [f["sag8"], "--json"]),
            ("dim", [f["fig5"]]),
            ("dim", [f["sag12"]]),
            ("dim", [f["A"]]),
            ("reptype", [f["fig5"]]),
            ("reptype", [f["sag12"]]),
            ("bands", [f["fig5"], "--find"]),
            ("bands", [f["sag12"], "--find"]),
            ("forbidden", [f["fig5"], "--json"]),
            ("forbidden", [f["sag8"], "--json"]),
            ("strings", [f["fig5"], "--max-letters", "6", "--json"]),
            ("strings", [f["sag8"], "--max-letters", "6", "--json"]),
            ("module-string", [f["fig5"], "--arrow", "a"]),
            ("module-string", [f["sag8"], "--projective", quivers["sag8"].vertices[seed % 8]]),
            ("verify", [f["fig5"], "--R", "a,b,c", "--json"]),
            ("verify", [f["sag12"], "--R", "", "--json"]),
            ("transform", [f["fig1"], "--R", "a,d,a'", "--out", out + "-fig4.quiver"]),
            ("cma", [f["fig5"], "--out", out + "-fig6.quiver", "--dot", out + "-fig6.dot"]),
            ("gen", ["--seed", str(seed), "--vertices", "10", "--arrows", "15", "--density", str(DENSITY)]),
            ("export-dot", [f["fig5"]]),
            ("export-dot", [f["sag8"]]),
        ]
        for k in ("fig5", "sag12"):
            v, w = pick[k]
            ops.append(("homdim", [f[k], "--from", O.format_letters(O.projective_string(quivers[k], w)),
                                   "--to", O.format_letters(O.projective_string(quivers[k], v)), "--json"]))
        return {"files": files, "quivers": quivers, "pick": pick, "ops": ops}

    def _spawn(self, argv: list[str], spans: str | None) -> subprocess.CompletedProcess:
        if spans is None:
            cmd = [sys.executable, "-c", self.CMD] + argv
        else:
            cmd = [sys.executable, "-X", "importtime", str(self.root / "perfbench" / "launch.py"), spans] + argv
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)

    def run_pass(self, inputs: dict, p: Pass) -> None:
        for i, (verb, args) in enumerate(inputs["ops"]):
            key = _op_key(i, verb, args)
            spans = None if p.tracer is None else str(self.work / f"spans-{i}.json")
            t = time.perf_counter()
            proc = self._spawn([verb] + args, spans)
            wall = time.perf_counter() - t
            p.times.append(wall)
            if proc.returncode != 0:
                p.fail(key, f"exit {proc.returncode}")
            else:
                p.raw[key] = (None, proc.stdout)
            if spans is not None:
                p.children.append(_child_trace(spans, proc.stderr, wall))

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        c = Checker(outputs)
        names = {path: name for name, path in inputs["files"].items()}
        fixtures = self.root / "fixtures"
        keys = {(verb, args[0]): _op_key(i, verb, args) for i, (verb, args) in enumerate(inputs["ops"])}
        for i, (verb, args) in enumerate(inputs["ops"]):
            where = "cli " + _op_key(i, verb, args)
            out = c.get(_op_key(i, verb, args))
            if out is None:
                continue
            name = names.get(args[0])
            quiver = inputs["quivers"].get(name)
            if verb == "validate":
                c.expect(out.strip() == f"ok: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows, "
                         f"{len(quiver.relations)} relations", where)
            elif verb == "classify":
                got = json.loads(out)
                c.expect((got["string"], got["sag"]) == (O.is_string_pair(quiver), O.is_sag(quiver)), where)
            elif verb == "dim":
                ref = O.linear_dim(self.linear) if name == "A" else O.count_paths(quiver)
                c.expect(out.strip() == str(ref), where)
            elif verb == "reptype":
                c.expect(out.strip() in ("finite", "infinite"), where)
                if name == "fig5":
                    c.expect(out.strip() == "infinite", where + ": fig5 has a band")
            elif verb == "bands":
                band = out.strip()
                if band != "no band":
                    c.expect(O.is_band(quiver, O.parse_letters(band)), where + ": not a band")
                reptype = c.get(keys[("reptype", args[0])])
                c.expect(reptype is None or (reptype.strip() == "infinite") == (band != "no band"),
                         where + ": disagrees with reptype")
            elif verb == "forbidden":
                got = json.loads(out)
                c.expect(set(got["perfect_index"]) == O.perfect_index(quiver), where)
                c.expect({tuple(x["arrows"]) for x in got["cycles"]} == O.forbidden_cycles(quiver), where)
                if name == "fig5":
                    c.expect(set(got["perfect_index"]) == {"a", "b", "c"}, where + ": fig5 index")
            elif verb == "strings":
                got = [O.string_class(O.parse_letters(s)) for s in json.loads(out)["strings"]]
                c.expect(len(set(got)) == len(got) and set(got) == O.strings(quiver, 6), where)
            elif verb == "module-string":
                ref = (O.arrow_module_string(quiver, args[2]) if args[1] == "--arrow"
                       else O.projective_string(quiver, args[2]))
                c.expect(out.strip() == O.format_letters(ref), where)
            elif verb == "verify":
                got = json.loads(out)["reports"][0]
                c.expect(got["match"] and got["dim_source_endo"] == got["dim_transformed"], where)
                if name == "fig5":
                    fig6 = O.read_dsl((fixtures / "fig6.expected").read_text())
                    c.expect(got["dim_transformed"] == O.count_paths(fig6), where + ": fig6 dimension")
                else:
                    c.expect(got["dim_source_endo"] == O.count_paths(quiver), where + ": End(A_A) = dim A")
            elif verb == "homdim":
                v, w = inputs["pick"][name]
                c.expect(json.loads(out)["hom_dim"] == O.paths_between(quiver, v, w), where)
            elif verb in ("transform", "cma"):
                expected = "fig4.expected" if verb == "transform" else "fig6.expected"
                ref = O.read_dsl((fixtures / expected).read_text())
                written = O.read_dsl((self.root / args[args.index("--out") + 1]).read_text())
                c.expect(written == ref and O.read_dsl(out) == ref, where + f": differs from {expected}")
                if verb == "cma":
                    dot = (self.root / args[args.index("--dot") + 1]).read_text()
                    c.expect(_dot_matches(dot, ref), where + ": DOT")
            elif verb == "gen":
                got = O.read_dsl(out)
                c.expect(O.is_sag(got) and (len(got.vertices), len(got.arrows)) == (10, 15), where)
                try:
                    O.count_paths(got, limit=100_000)
                except ValueError:
                    c.expect(False, where + ": infinite-dimensional")
            elif verb == "export-dot":
                c.expect(_dot_matches(out, quiver), where)
        return c.problems


def _child_trace(spans: str, stderr: str, wall: float) -> dict:
    """Spans of one traced CLI child, with its import times from ``-X importtime``."""
    with open(spans) as fh:
        child = json.load(fh)
    os.unlink(spans)
    imports = import_ms(stderr)
    run = sum(r["end"] - r["start"] for r in child["rows"] if r["name"] == "cli.run")
    imports["spawn"] = wall * 1000 - imports["strquiv"] - run * 1000
    child["imports"] = imports
    return child


def _op_key(i: int, verb: str, args: list[str]) -> str:
    return f"{i}:{verb} {' '.join(args)}"


def _dot_matches(dot: str, q: O.Quiver) -> bool:
    """One node per vertex and one solid labelled edge per arrow."""
    nodes = {line.strip()[1:-2] for line in dot.splitlines() if line.strip().endswith('";')}
    edges = {
        line.split("label=")[1].split('"')[1]
        for line in dot.splitlines()
        if "->" in line and "dashed" not in line
    }
    return nodes == set(q.vertices) and edges == {a for a, _, _ in q.arrows}


WORKLOADS = {w.name: w for w in (Endo, Long, CliCold)}
