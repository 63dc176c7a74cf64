"""Outside-in span recorder for the traced runs.

``Tracer.install`` replaces each traced public function of ``strquiv`` at
every module attribute that binds it, so calls between modules open nested
spans.  It also counts ``FactorAutomaton.step`` calls and charges them to
the innermost open span.  Spans stay in memory until ``take`` hands them
over; ``aggregate`` turns them into per-layer calls, self times and counts.
Nothing in the program itself changes: ``uninstall`` restores every
attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) of each traced function -> span name
TRACED = {
    ("dsl", "parse_quiver"): "dsl.parse_quiver",
    ("dsl", "format_quiver"): "dsl.emit",
    ("dsl", "quiver_to_json"): "dsl.emit",
    ("dsl", "quiver_to_dot"): "dsl.emit",
    ("core", "algebra_dim"): "core.algebra_dim",
    ("core", "is_finite_dimensional"): "core.is_finite_dimensional",
    ("classify", "classify"): "classify.classify",
    ("walks", "find_band"): "walks.find_band",
    ("walks", "enumerate_strings"): "walks.enumerate_strings",
    ("walks", "string_problems"): "walks.string_problems",
    ("strmod", "hom_dim"): "strmod.hom_dim",
    ("forbidden", "perfect_index"): "forbidden.perfect_index",
    ("forbidden", "forbidden_cycles"): "forbidden.forbidden_cycles",
    ("transform", "verify_endo_dimension"): "transform.verify_endo_dimension",
    ("transform", "r_transform"): "transform.r_transform",
    ("generate", "gen_random_sag"): "generate.gen_random_sag",
    ("cli", "run"): "cli.run",
}

# span fields
NAME, PARENT, OP, STEPS, FAILED, START, END = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._root = [None, None, None, 0, False, 0.0, 0.0]
        self._stack = [self._root]
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self.counters = {"substring_pairs": 0, "hom_total": 0, "strings_out": 0}
        self.quivers: dict[int, object] = {}  # id -> quiver, keeps ids unique
        self._occurrences: dict[tuple, int] = {}

    # -- spans --

    def _open(self, name: str) -> list:
        parent = self._stack[-1]
        span = [name, parent, self._op, 0, False, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def op(self, label: str, fn, *args):
        """Run one benchmark operation under a top-level span."""
        self._op = label
        span = self._open("op")
        try:
            return fn(*args)
        except Exception:
            span[FAILED] = True
            raise
        finally:
            self._close(span)
            self._op = None

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                tracer._close(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters computed from arguments and results --

    def _count_occurrences(self, letters: tuple, factor: bool) -> int:
        """Factor (or image) substring occurrences of a walk, trivial ones included."""
        key = (letters, factor)
        if key not in self._occurrences:
            n = len(letters)
            # an occurrence [i, j) is bounded by an inverse letter (factor) or
            # forward letter (image) before it and the opposite after it
            left = [i == 0 or letters[i - 1][1] == factor for i in range(n + 1)]
            right = [j == n or letters[j][1] != factor for j in range(n + 1)]
            self._occurrences[key] = sum(
                left[i] and right[j] for i in range(n + 1) for j in range(i, n + 1)
            )
        return self._occurrences[key]

    def _after_hom_dim(self, args, result) -> None:
        s2, s1 = args[1], args[2]
        self.counters["substring_pairs"] += self._count_occurrences(
            tuple(s2.letters), True
        ) * self._count_occurrences(tuple(s1.letters), False)
        self.counters["hom_total"] += result

    def _after_classify(self, args, result) -> None:
        self.quivers[id(args[0])] = args[0]

    def _after_enumerate(self, args, result) -> None:
        self.counters["strings_out"] += len(result)

    # -- patching --

    def install(self) -> None:
        from strquiv import core

        after = {
            "strmod.hom_dim": self._after_hom_dim,
            "classify.classify": self._after_classify,
            "walks.enumerate_strings": self._after_enumerate,
        }
        wrappers = {}
        for (mod, attr), name in TRACED.items():
            fn = getattr(importlib.import_module("strquiv." + mod), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, after.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "strquiv" and not modname.startswith("strquiv."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])

        build = core.BoundQuiver.__dict__["build"]
        self._patch(core.BoundQuiver, "build", classmethod(self._wrap("core.build", build.__func__)))

        step = core.FactorAutomaton.step
        stack = self._stack

        def counted_step(automaton, state, sym):
            stack[-1][STEPS] += 1
            return step(automaton, state, sym)

        self._patch(core.FactorAutomaton, "step", counted_step)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def take(self) -> dict:
        """Hand over the recorded spans and counters, and start afresh."""
        out = {
            "spans": self.spans,
            "counters": dict(self.counters, quivers=len(self.quivers)),
            "loose_steps": self._root[STEPS],
        }
        self.spans = []
        self._root[STEPS] = 0
        self.counters = dict.fromkeys(self.counters, 0)
        self.quivers = {}
        return out


def span_rows(spans: list[list]) -> list[dict]:
    """Spans as records with ids, parent ids and self times."""
    index = {id(s): i for i, s in enumerate(spans)}
    child = [0.0] * len(spans)
    for s in spans:
        if id(s[PARENT]) in index:
            child[index[id(s[PARENT])]] += s[END] - s[START]
    return [
        {
            "id": i,
            "parent": index.get(id(s[PARENT])),
            "op": s[OP],
            "name": s[NAME],
            "start": s[START],
            "end": s[END],
            "self_s": s[END] - s[START] - child[i],
            "steps": s[STEPS],
            "failed": s[FAILED],
        }
        for i, s in enumerate(spans)
    ]


def aggregate(rows: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, failures, automaton steps."""
    out: dict[str, dict] = {}
    for r in rows:
        a = out.setdefault(r["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0, "steps": 0})
        a["calls"] += 1
        a["total_s"] += r["end"] - r["start"]
        a["self_s"] += r["self_s"]
        a["failed"] += r["failed"]
        a["steps"] += r["steps"]
    return out


def import_ms(stderr: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` milliseconds of ``strquiv`` and ``networkx``."""
    found = {"strquiv": 0.0, "networkx": 0.0}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if name.strip() in found:
                found[name.strip()] = int(cumulative) / 1000
    return found


def dump(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
