#!/usr/bin/env python3
"""Benchmark of strquiv: end-to-end metrics, or per-layer metrics when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload endo|long|cli-cold --seed N \\
        --seconds S --trace 0|1 [--tiny]

A run sets up its inputs from the seed several times (``setup_s`` is the
median), discards one warm-up pass, whose outputs it checks against
independent references, and then runs timed passes until ``--seconds`` have
passed.  Every later pass must give the warm-up pass's outputs.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every workload for a quick smoke run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_ok_frac": "fraction",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> unit; what each should move is in README.md
PER_LAYER = {
    "classify.classify.calls": "count",
    "classify.classify.self_s": "s",
    "classify.calls_per_quiver": "count",
    "strmod.hom_dim.calls": "count",
    "strmod.hom_dim.self_s": "s",
    "strmod.substring_pairs": "count",
    "strmod.pair_hit_ratio": "ratio",
    "walks.find_band.calls": "count",
    "walks.find_band.self_s": "s",
    "walks.enumerate_strings.calls": "count",
    "walks.enumerate_strings.self_s": "s",
    "walks.strings_out": "count",
    "walks.string_problems.calls": "count",
    "core.build.calls": "count",
    "core.build.self_s": "s",
    "core.algebra_dim.calls": "count",
    "core.algebra_dim.self_s": "s",
    "core.algebra_dim.failed": "count",
    "core.is_finite_dimensional.calls": "count",
    "core.automaton_steps": "count",
    "forbidden.perfect_index.self_s": "s",
    "forbidden.forbidden_cycles.self_s": "s",
    "transform.verify_endo_dimension.self_s": "s",
    "transform.r_transform.self_s": "s",
    "dsl.parse_quiver.self_s": "s",
    "dsl.emit.self_s": "s",
    "generate.gen_random_sag.self_s": "s",
    "cli.run.self_s": "s",
    "import.strquiv_ms": "ms",
    "import.networkx_ms": "ms",
    "cli.spawn_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def harrell_davis(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile of ``values``.

    A weighted mean of all order statistics, with weights from the Beta
    distribution that a sample quantile follows.  Unlike a single order
    statistic, it moves smoothly when values near the percentile trade
    places, which steadies percentiles of a few dozen operations.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = min(max(pct / 100.0, 0.0), 1.0)
    if n == 1 or q in (0.0, 1.0):
        return ordered[0] if q == 0.0 else ordered[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def timed_pass(workload, inputs, tracer=None, reference=None, problems=None):
    """One pass, started from a freshly collected heap.

    With a ``reference``, the pass's outputs are compared with it and then
    dropped, so that passes do not grow the heap that later passes collect.
    """
    from workloads import Pass

    p = Pass(tracer)
    gc.collect()
    t = time.perf_counter()
    workload.run_pass(inputs, p)
    p.wall = time.perf_counter() - t
    p.finish()
    if reference is not None:
        differ = sorted(k for k in reference if p.outputs.get(k) != reference[k])
        if differ:
            problems.append(f"outputs changed between passes: {differ[:5]}")
        p.outputs = None
    return p


def layer_metrics(p, setup_trace: dict | None) -> dict[str, float]:
    from spans import aggregate

    agg = aggregate(p.trace["rows"])
    counters = p.trace["counters"]

    def get(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    m = {}
    for key in PER_LAYER:
        if key.endswith((".calls", ".self_s", ".failed")):
            layer, _, field = key.rpartition(".")
            m[key] = get(layer, field)
    m["classify.calls_per_quiver"] = (
        get("classify.classify", "calls") / counters["quivers"] if counters["quivers"] else 0.0
    )
    m["strmod.substring_pairs"] = counters["substring_pairs"]
    m["strmod.pair_hit_ratio"] = (
        counters["hom_total"] / counters["substring_pairs"] if counters["substring_pairs"] else 0.0
    )
    m["walks.strings_out"] = counters["strings_out"]
    m["core.automaton_steps"] = sum(r["steps"] for r in p.trace["rows"]) + p.trace["loose_steps"]
    if setup_trace is not None:
        m["generate.gen_random_sag.self_s"] = aggregate(setup_trace["rows"]).get(
            "generate.gen_random_sag", {}
        ).get("self_s", 0.0)
    imports = p.trace["imports"]
    if imports:
        m["import.strquiv_ms"] = statistics.median(i["strquiv"] for i in imports)
        m["import.networkx_ms"] = statistics.median(i["networkx"] for i in imports)
        m["cli.spawn_ms"] = statistics.median(i["spawn"] for i in imports)
    else:
        m["cli.spawn_ms"] = 0.0
    return m


def import_times() -> dict[str, float]:
    """Median ``-X importtime`` cumulative times of a cold ``import strquiv``."""
    from spans import import_ms

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        import_ms(subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import strquiv"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stderr)
        for _ in range(IMPORT_REPEATS)
    ]
    return {
        "import.strquiv_ms": statistics.median(r["strquiv"] for r in runs),
        "import.networkx_ms": statistics.median(r["networkx"] for r in runs),
    }


def measure(args, work: Path) -> dict:
    t = time.perf_counter()
    import strquiv  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t
    from spans import Tracer, dump, span_rows
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, work, args.tiny)
    setup_times = []

    def set_up():
        """Make the inputs once more, timed.  Set-up repeats are spread over
        the run, so that their median does not hang on the host's speed in
        the first seconds of the run."""
        t = time.perf_counter()
        made = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
        return made

    inputs = set_up()
    warm = timed_pass(workload, inputs)
    problems = workload.check(inputs, warm.outputs)
    set_up()

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    # Passes (or untraced/traced pairs) run while more than half of the last
    # one still fits before the deadline, so the timed passes add up to about
    # --seconds; there is always at least one.
    deadline = time.perf_counter() + args.seconds
    while True:
        t = time.perf_counter()
        untraced.append(timed_pass(workload, inputs, None, warm.outputs, problems))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(timed_pass(workload, inputs, tracer, warm.outputs, problems))
            finally:
                tracer.uninstall()
        set_up()
        now = time.perf_counter()
        if now + (now - t) / 2 > deadline:
            break

    attempted = sum(len(p.times) for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    if tracer is None:
        # A pass runs the same operations in the same order every time, so
        # the i-th time of each pass belongs to the same operation.
        per_op = [statistics.fmean(times) for times in zip(*(p.times for p in untraced), strict=True)]
        pct = tail_percentile(len(per_op))
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "run_s": statistics.fmean(p.wall for p in untraced),
            "op_p50_ms": 1000 * harrell_davis(per_op, 50.0),
            "op_tail_ms": 1000 * harrell_davis(per_op, pct),
            "ops_ok_frac": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        units = END_TO_END
        print(f"{len(untraced)} timed passes of {len(per_op)} ops; "
              f"op_tail_ms is p{pct:.1f} of the ops' mean latencies")
    else:
        setup_trace = None
        if args.workload != "cli-cold":
            # endo and long generate their quivers in set-up: trace one more set-up
            tracer.install()
            try:
                workload.setup(args.seed)
            finally:
                tracer.uninstall()
            setup_trace = {"rows": span_rows(tracer.take()["spans"])}
        per_pass = [layer_metrics(p, setup_trace) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        if args.workload != "cli-cold":
            metrics.update(import_times())
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1
        )
        units = PER_LAYER
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        dump(out, traced[-1].trace["rows"])
        print(f"spans of the last traced pass: {out.relative_to(ROOT)}")
        print(f"{len(traced)} traced and {len(untraced)} untraced passes")

    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("endo", "long", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a smoke run")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "strquiv" / "__init__.py").is_file():
        print(f"no strquiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
