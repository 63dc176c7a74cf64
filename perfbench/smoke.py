#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and asserts that each run passes its output checks and reports exactly the
declared end-to-end (untraced) or per-layer (traced) metrics, each with its
declared unit.  Then runs the benchmark from a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a result.

Usage (from the repository root): python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = bench["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{workload['name']} --trace {trace}"
            proc = run(bench, ROOT, "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            print(f"ok: {where}")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench, bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("ok: fails without sources")

    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
