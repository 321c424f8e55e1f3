#!/usr/bin/env python3
"""Mutation check of the closed form, the oracle and the checker: does Tier-1
notice a known fault?

Each mutant replaces one exact piece of text in one file with another.  For
each, the script copies this checkout into a temporary directory, applies
the mutant there, runs the Tier-1 suite with `-x`, and prints `killed` and
the first failing test, or `survived`.  The checkout itself is never edited.
A run of the whole list takes a few minutes; it is not part of Tier-1, which
only checks that each mutant's old text still occurs exactly once
(tests/test_mutants.py).

Usage: python scripts/mutants.py [NAME ...]
  NAME  mutants to run (default: all)

Exits 0 when every mutant run was killed, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CYCLOTOMIC = "src/charsum/cyclotomic.py"
EVALUATOR = "src/charsum/evaluator.py"
ORACLE = "src/charsum/oracle.py"
RING2ADIC = "src/charsum/ring2adic.py"
SWEEP = "src/charsum/sweep.py"
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 1200

Mutant = namedtuple("Mutant", "name path old new reason")

MUTANTS = [
    Mutant("M2", EVALUATOR, "(pow(2, n, 8) - 1) * c3", "(pow(2, n, 8) + 1) * c3",
           "h uses (2^n + 1) c3"),
    Mutant("M4", EVALUATOR, "    return min(x1, low - x1)\n", "    return x1\n",
           "the Large witness is the root x1, not min(x1, 2^(w-t) - x1)"),
    Mutant("M5", EVALUATOR,
           "if c1 & -c1 != 1 << nt or (inst.k % 2 == 0 and chi1.s != 1):",
           "if c1 & -c1 != 1 << nt:",
           "Large drops the k-even sign test"),
    Mutant("M6", EVALUATOR, "params.N, params.n, m - 2)", "params.N, params.n, m - 3)",
           "the small regimes test C(+-1) mod 2^(m-3)"),
    Mutant("E2", EVALUATOR, "c1 & -c1 != 1 << nt", "c1 & -c1 < 1 << nt",
           "Large accepts v2(c1) > n + t"),
    Mutant("E6", EVALUATOR, "chi1.s * chi2.s if k & 1 else chi1.s", "chi1.s * chi2.s",
           "the swap multiplies s1 by s2 for even k too"),
    Mutant("M7", EVALUATOR, "        if cf.terms:\n            return cf\n",
           "        return cf\n",
           "drop the cancel fallback: cancelling witnesses return a fresh empty result"),
    Mutant("M8", EVALUATOR, "if len(witnesses) == 2 and regime == REGIME_MIDRANGE:",
           "if len(witnesses) == 2:",
           "assert cannot-both-vanish in every regime, EdgeT2 and EdgeT3 included"),
    Mutant("V1", EVALUATOR, "            terms = ((e1, c1),) if c1 else ()\n",
           "            terms = ((e1, c1),)\n",
           "a cancelled merge in _closed keeps its zero coefficient"),
    Mutant("Q1", EVALUATOR, "        elif e2 - e1 == half >> 1:\n",
           "        elif e2 != e1:\n",
           "_closed takes any two distinct exponents for a quarter turn and "
           "squares them as c1^2 + c2^2"),
    Mutant("D1", RING2ADIC, ", tail, h - 2\n", ", tail, h - 1\n",
           "dlog5 shifts its linear tail by h - 1 bits, not h - 2"),
    Mutant("S1", SWEEP, "        run = recs[i : i + _PHASE]\n        cfs, matches, tc, tb",
           "        run = recs[i : i + _PHASE - 1]\n        cfs, matches, tc, tb",
           "check's phase runs slice one record short"),
    Mutant("S2", SWEEP, "zip(recs, cfs, wants)", "zip(recs, cfs, [wants[0]] * len(wants))",
           "every record of a phase run is compared with the run's first oracle value"),
    Mutant("S3", SWEEP, "            if cf.case in (CASE_LARGE_EVEN, CASE_LARGE_ODD):",
           "            if i == 0 and cf.case in (CASE_LARGE_EVEN, CASE_LARGE_ODD):",
           "the magnitude check reads only the first phase run of a part"),
    Mutant("O1", ORACLE, "p = max((m - n + 1) // 2 - 2 - t, 0)",
           "p = max((m - n + 1) // 2 - 3 - t, 0)",
           "the oracle builds one bit too few rows per half, so rows outrun their linear stretch"),
    Mutant("O2", ORACLE, "p = max((m - n + 1) // 2 - 2 - t, 0)",
           "p = max((m - n + 1) // 2 - 2 - t, 0) + 1",
           "the oracle builds one bit too many rows per half: every count is unchanged, "
           "since 2P rows meet both valuation conditions of _counts, but the work doubles"),
    Mutant("O3", ORACLE, "cnt[key ^ lsb] += rows[key] * (per_row * lsb >> r) * weight",
           "cnt[key ^ lsb] += (per_row * lsb >> r) * weight",
           "the class tally counts each residue class once, however many rows it holds"),
    Mutant("C1", CYCLOTOMIC, "        for e, x in terms:\n            coeffs[e] = x\n",
           "        for e, x in terms[:-1]:\n            coeffs[e] = x\n",
           "CycInt.from_terms drops its last term"),
]


def first_failure(output: str) -> str | None:
    """The id of the first FAILED or ERROR line of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(mutant: Mutant) -> tuple[str, str | None]:
    """('killed', first failing test), ('survived', None) or ('timeout', None)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".tmp"))
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", None
    if proc.returncode == 0:
        return "survived", None
    return "killed", first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def main() -> int:
    names = sys.argv[1:]
    unknown = set(names) - {mu.name for mu in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    ok = True
    for mu in MUTANTS:
        if names and mu.name not in names:
            continue
        outcome, test = run(mu)
        ok &= outcome == "killed"
        print(f"{mu.name:3} {outcome:8} {test or '-'}  ({mu.reason})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
