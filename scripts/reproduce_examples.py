#!/usr/bin/env python3
"""Reproduce the worked fixture computations end to end.

Runs every headline computation on the bundled fixtures and prints a
compact report: classification of fig1, the arrow-splitting transform of
fig1 at R = {a, d, a'}, the forbidden-cycle analysis and Cohen-Macaulay
Auslander construction for fig5, the band lift, and the endomorphism
dimension identity over the full powerset of fig5's perfect index.

Usage:  python scripts/reproduce_examples.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strquiv import (  # noqa: E402
    algebra_dim,
    classify,
    cma,
    forbidden_cycles,
    format_walk,
    is_perfect,
    left_forbidden_arrows,
    lift_walk,
    parse_quiver,
    parse_walk,
    perfect_index,
    r_transform,
    representation_type,
    validate_band,
    validate_index,
    verify_endo_dimension,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BAND_TEXT = "cycle( a' d'^-1 a e^-1 b' e'^-1 b f^-1 c' f'^-1 c d^-1 )"


def load(name: str):
    return parse_quiver((FIXTURES / name).read_text())


def main() -> None:
    fig1 = load("fig1.quiver")
    fig5 = load("fig5.quiver")

    print("== fig1: classification ==")
    c = classify(fig1)
    print(f"string={c.is_string} almost_gentle={c.is_almost_gentle} "
          f"sag={c.is_sag} gentle={c.is_gentle}")
    for kind, witness in c.violations:
        print(f"  violation {kind}: {witness}")

    print("\n== fig1: arrow-splitting transform at R = {a, d, a'} ==")
    tr = r_transform(fig1, validate_index(fig1, ["a", "d", "a'"]))
    print(f"vertices: {len(tr.quiver.vertices)}  arrows: {len(tr.quiver.arrows)}  "
          f"relations: {len(tr.quiver.relations)}")
    for rel in sorted(tr.quiver.relations):
        print("  " + " ".join(rel))

    print("\n== fig5: forbidden cycles and perfect index ==")
    for cyc in forbidden_cycles(fig5):
        print(f"  cycle {' '.join(cyc.arrows)}  perfect={is_perfect(fig5, cyc)}")
    perfect = perfect_index(fig5)
    print(f"perfect index: {sorted(perfect.arrows)}")

    print("\n== fig5: Cohen-Macaulay Auslander construction ==")
    tr5 = cma(fig5)
    print(f"dim A = {algebra_dim(fig5)},  dim CMA = {algebra_dim(tr5.quiver)}")
    print(f"representation type: source={representation_type(fig5)} "
          f"cma={representation_type(tr5.quiver)}")
    band = parse_walk(fig5, BAND_TEXT)
    lifted = lift_walk(tr5, band)
    print(f"band B      = {format_walk(band)}")
    print(f"band B^x    = {format_walk(lifted)}")
    print(f"B valid: {validate_band(fig5, band)}   "
          f"B^x valid on CMA: {validate_band(tr5.quiver, lifted)}")

    print("\n== fig5: endomorphism dimension identity on the perfect index ==")
    arrows = sorted(perfect.arrows, key=fig5.arrow_index.__getitem__)
    for n in range(len(arrows) + 1):
        for subset in itertools.combinations(arrows, n):
            rep = verify_endo_dimension(fig5, validate_index(fig5, subset))
            mark = "ok" if rep.dimensions_match else "MISMATCH"
            print(f"  R={{{','.join(subset)}}}: endo={rep.dim_source_endo} "
                  f"transformed={rep.dim_transformed}  {mark}")

    print("\n== fig5: the identity fails outside the perfect index ==")
    print(f"left forbidden arrows: {sorted(left_forbidden_arrows(fig5))}")
    for alpha in ("d'", "a'"):
        rep = verify_endo_dimension(fig5, validate_index(fig5, [alpha]))
        print(f"  R={{{alpha}}}: endo={rep.dim_source_endo} "
              f"transformed={rep.dim_transformed}  "
              f"{'ok' if rep.dimensions_match else 'mismatch (expected)'}")


if __name__ == "__main__":
    main()
