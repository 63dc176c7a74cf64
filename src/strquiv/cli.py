"""Command-line interface: one table of verbs, each a handler that turns
the loaded quiver into a JSON payload and lines of text.

Exit codes: 0 success, 1 domain errors (reported to stderr as
``<ErrorTag> <message>``) and a failed ``verify``, 2 usage, parse and file
errors.

Each handler imports the modules it needs, so a command loads only those.
"""

from __future__ import annotations

import math
import os
import sys
from argparse import ArgumentError, ArgumentParser, ArgumentTypeError
from pathlib import Path as FilePath

from .classify import classify
from .core import BoundQuiver, algebra_dim
from .dsl import (
    InvalidWalkText,
    format_quiver,
    format_walk,
    parse_quiver,
    parse_walk,
    quiver_from_json,
    quiver_to_dot,
    quiver_to_json,
)
from .errors import ParseError, QuiverError


def _load_quiver(path: str) -> BoundQuiver:
    text = FilePath(path).read_text()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return quiver_from_json(text)
    return parse_quiver(text)


def _in_order(bq: BoundQuiver, arrows) -> list[str]:
    """``arrows`` sorted by declaration order."""
    return sorted(arrows, key=bq.arrow_index.__getitem__)


def _split_index(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _single(key: str, value) -> tuple[dict, list[str]]:
    return {key: value}, [str(value)]


def _validate(bq, args):
    v, a, r = len(bq.vertices), len(bq.arrows), len(bq.relations)
    payload = {"ok": True, "vertices": v, "arrows": a, "relations": r}
    return payload, [f"ok: {v} vertices, {a} arrows, {r} relations"]


def _classify(bq, args):
    c = classify(bq)
    flags = {"string": c.is_string, "almost_gentle": c.is_almost_gentle, "sag": c.is_sag,
             "gentle": c.is_gentle}
    lines = [f"{name}: {str(flag).lower()}" for name, flag in flags.items()]
    violations = []
    for kind, w in c.violations:
        violations.append({"kind": kind, "witness": list(w) if isinstance(w, tuple) else w})
        lines.append(f"violation: {kind} {''.join(w) if isinstance(w, tuple) else w}")
    return {**flags, "violations": violations}, lines


def _strings(bq, args):
    from .walks import enumerate_strings

    out = [format_walk(w) for w in enumerate_strings(bq, args.max_letters)]
    return {"count": len(out), "strings": out}, out


def _bands(bq, args):
    from .walks import band_exists, find_band

    if not (args.find or args.json):  # no witness is printed
        return {}, ["band exists" if band_exists(bq) else "no band"]
    band = find_band(bq)
    text = None if band is None else format_walk(band)
    return {"exists": band is not None, "band": text}, [text or "no band"]


def _reptype(bq, args):
    from .walks import representation_type

    return _single("representation_type", representation_type(bq))


def _forbidden(bq, args):
    from .forbidden import forbidden_cycles, left_forbidden_arrows, perfect_index

    left = _in_order(bq, left_forbidden_arrows(bq))
    perfect = perfect_index(bq).arrows
    cycles = [(c.arrows, perfect.issuperset(c.arrows)) for c in forbidden_cycles(bq)]
    index = _in_order(bq, perfect)
    lines = ["left forbidden: " + " ".join(left)]
    lines += [f"cycle: {' '.join(c)}" + (" (perfect)" if flag else "") for c, flag in cycles]
    lines.append("perfect index: " + " ".join(index))
    payload = {
        "left_forbidden": left,
        "cycles": [{"arrows": list(c), "perfect": flag} for c, flag in cycles],
        "perfect_index": index,
    }
    return payload, lines


def _transformed(tr, args, payload: dict):
    """Write ``--out``/``--dot`` and report the transformed quiver."""
    q = tr.quiver
    if args.out:
        import json

        json_out = args.out.endswith(".json")
        text = json.dumps(quiver_to_json(q), indent=2) + "\n" if json_out else format_quiver(q)
        FilePath(args.out).write_text(text)
    if args.dot:
        FilePath(args.dot).write_text(quiver_to_dot(q))
    payload["quiver"] = quiver_to_json(q)
    payload["vertex_map"] = tr.vertex_map
    payload["arrow_map"] = {k: list(v) for k, v in tr.arrow_map.items()}
    return payload, format_quiver(q).splitlines()


def _transform(bq, args):
    from .transform import r_transform, validate_index

    return _transformed(r_transform(bq, validate_index(bq, _split_index(args.R))), args, {})


def _cma(bq, args):
    from .forbidden import perfect_index
    from .transform import cma

    tr = cma(bq)
    return _transformed(tr, args, {"perfect_index": _in_order(bq, perfect_index(bq).arrows)})


def _homdim(bq, args):
    from .strmod import hom_dim
    from .walks import CyclicWalk

    s2 = parse_walk(bq, getattr(args, "from"))
    s1 = parse_walk(bq, args.to)
    if isinstance(s2, CyclicWalk) or isinstance(s1, CyclicWalk):
        raise InvalidWalkText("homdim expects linear walks, not cycle(...)")
    return _single("hom_dim", hom_dim(bq, s2, s1))


def _module_string(bq, args):
    from .strmod import arrow_module_string, projective_string

    if args.projective is not None:
        return _single("walk", format_walk(projective_string(bq, args.projective)))
    return _single("walk", format_walk(arrow_module_string(bq, args.arrow)))


def _verify(bq, args):
    from .forbidden import left_forbidden_arrows
    from .transform import validate_index, verify_endo_dimension

    if args.R is not None and args.all_indices or args.cap is not None and not args.all_indices:
        raise ArgumentError(None, "--cap needs --all-indices, which excludes --R")
    if args.all_indices:
        left = _in_order(bq, left_forbidden_arrows(bq))
        if args.cap is None and len(left) > _ALL_INDICES_UNCAPPED:
            message = f"--all-indices on {len(left)} left forbidden arrows needs --cap"
            raise ArgumentError(None, message)
        count = 1 << len(left) if args.cap is None else min(1 << len(left), args.cap)
        subsets = ([x for i, x in enumerate(left) if (mask >> i) & 1] for mask in range(count))
    else:
        subsets = [_split_index(args.R or "")]
    # only each report's numbers are kept, so no split algebra outlives the next subset
    entries, lines = [], []
    for s in subsets:
        index = validate_index(bq, s)
        r = verify_endo_dimension(bq, index)
        entries.append({"R": index.arrows, "dim_source_endo": r.dim_source_endo,
                        "dim_transformed": r.dim_transformed, "match": r.dimensions_match})
        verdict = "ok" if r.dimensions_match else "MISMATCH"
        lines.append(f"R={{{','.join(index.arrows)}}}: endo={r.dim_source_endo} "
                     f"transformed={r.dim_transformed} {verdict}")
    return {"ok": all(e["match"] for e in entries), "reports": entries}, lines


def _gen(bq, args):
    from .generate import RandomSagSpec, gen_random_sag

    spec = RandomSagSpec(
        seed=args.seed,
        num_vertices=args.vertices,
        num_arrows=args.arrows,
        relation_density=args.density,
    )
    q = gen_random_sag(spec)
    return quiver_to_json(q), format_quiver(q).splitlines()


def _within(kind: type, least: float, most: float = math.inf):
    """An argparse type: a ``kind`` value in [least, most], never NaN."""

    def parse(text: str):
        value = kind(text)
        if not least <= value <= most:
            bound = f"at least {least}" if most == math.inf else f"in [{least}, {most}]"
            raise ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_OUT = ("--out", {"help": "write the transformed quiver to a file"})
_DOT = ("--dot", {"help": "write DOT to a file"})
# the most left forbidden arrows whose 2^k subsets verify --all-indices lists without --cap
_ALL_INDICES_UNCAPPED = 16

# verb -> (handler, help, arguments).  Every verb but gen also takes a quiver
# file; a list of arguments is a required choice between them.  export-dot
# has no JSON form: its payload is None and it always prints DOT.
_VERBS = {
    "validate": (_validate, "parse a quiver file and check well-formedness", []),
    "classify": (_classify, "report string/almost-gentle/SAG/gentle flags", []),
    "strings": (_strings, "enumerate string classes up to a length bound",
                [("--max-letters", {"type": _within(int, 0), "required": True})]),
    "bands": (_bands, "decide band existence",
              [("--find", {"action": "store_true", "help": "print a witness band"})]),
    "reptype": (_reptype, "decide representation type", []),
    "forbidden": (_forbidden, "forbidden arrows, cycles, perfect index", []),
    "transform": (_transform, "arrow-splitting transform at an index R",
                  [("--R", {"required": True, "help": "comma-separated arrow ids"}), _OUT, _DOT]),
    "cma": (_cma, "Cohen-Macaulay Auslander algebra", [_OUT, _DOT]),
    "homdim": (_homdim, "hom dimension between two string modules",
               [("--from", {"required": True, "help": "source string (walk syntax)"}),
                ("--to", {"required": True, "help": "target string (walk syntax)"})]),
    "module-string": (_module_string, "projective or arrow module string",
                      [[("--projective", {"metavar": "VERTEX"}),
                        ("--arrow", {"metavar": "ARROW"})]]),
    "verify": (_verify, "check the endomorphism-dimension equality",
               [("--R", {"help": "comma-separated arrow ids"}),
                ("--all-indices", {"action": "store_true"}),
                ("--cap", {"type": _within(int, 0),
                           "help": "max number of subsets with --all-indices"})]),
    "dim": (lambda bq, args: _single("dim", algebra_dim(bq)),
            "dimension of the path algebra modulo the ideal", []),
    "export-dot": (lambda bq, args: (None, quiver_to_dot(bq).splitlines()),
                   "GraphViz DOT output", []),
    "gen": (_gen, "generate a random SAG quiver",
            [("--seed", {"type": int, "required": True}),
             ("--vertices", {"type": _within(int, 1), "default": 5}),
             ("--arrows", {"type": _within(int, 0), "default": 7}),
             ("--density", {"type": _within(float, 0, 1), "default": 0.5})]),
}


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="strquiv",
        description="Analyze bound quivers of string / SAG algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if verb != "gen":
            p.add_argument("file")
        for argument in arguments:
            if isinstance(argument, list):  # a required choice
                group = p.add_mutually_exclusive_group(required=True)
                for flag, kwargs in argument:
                    group.add_argument(flag, **kwargs)
            else:
                p.add_argument(argument[0], **argument[1])
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        bq = _load_quiver(args.file) if "file" in args else None
        payload, lines = _VERBS[args.verb][0](bq, args)
        if args.json and payload is not None:
            import json

            lines = [json.dumps(payload)]
        for line in lines:
            print(line)
        sys.stdout.flush()
    except (ParseError, InvalidWalkText, ArgumentError, OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, BrokenPipeError):  # the interpreter flushes stdout again at exit
            sys.stdout = open(os.devnull, "w")
        tag = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(f"{tag} {exc}", file=sys.stderr)
        return 2
    except QuiverError as exc:
        print(f"{exc.tag} {exc}", file=sys.stderr)
        return 1
    return 0 if payload is None or payload.get("ok", True) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
