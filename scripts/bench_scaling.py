#!/usr/bin/env python3
"""Closed-form vs oracle timing across moduli, printed as a JSON table.

Usage: python scripts/bench_scaling.py [m ...]    (default: 12 16 20 24)

The instance is the canonical large-regime one (A=2, B=1, k=1, c1=2, c2=1):
odd k keeps the characteristic congruence solvable at every m, so the whole
pipeline (solver, witness, eighth-root factor) is always exercised.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from charsum.characters import Character  # noqa: E402
from charsum.cyclotomic import matches_dense  # noqa: E402
from charsum.evaluator import SumInstance, closed_form  # noqa: E402
from charsum.oracle import brute_force  # noqa: E402


def best_lap(fn, laps=200):
    best = float("inf")
    for _ in range(laps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ms = [int(a) for a in sys.argv[1:]] or [12, 16, 20, 24]
    rows = []
    for m in ms:
        inst = SumInstance(m, 2, 1, 1)
        chi1, chi2 = Character(m, 1, 2), Character(m, 1, 1)
        closed_s = best_lap(lambda: closed_form(inst, chi1, chi2))
        t0 = time.perf_counter()
        val = brute_force(inst, chi1, chi2)
        oracle_s = time.perf_counter() - t0
        cf = closed_form(inst, chi1, chi2)
        rows.append(
            {
                "m": m,
                "case": cf.case,
                "closed_seconds": closed_s,
                "oracle_seconds": oracle_s,
                "ratio": oracle_s / closed_s,
                "match": matches_dense(cf.ring_exponent, cf.terms, val),
            }
        )
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps(rows, indent=2))
    return 0 if all(r["match"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
