"""Command-line surface: evaluate one sum, sweep-verify, benchmark, or dump grids.

Exit codes are a stable contract: 0 success/match, 1 mismatch, 2 usage,
3 width cap, 4 I/O failure, 5 internal error (a broken solver or
self-check invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .characters import Character
from .cyclotomic import approx_terms, matches_dense
from .errors import MAX_M, MAX_ORACLE_M, WidthCapError
from .evaluator import SumInstance, closed_form
from .oracle import brute_force

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="modulus exponent (sum over x mod 2^m)")
    p.add_argument("--A", type=int, default=2, help="coefficient A")
    p.add_argument("--B", type=int, default=1, help="offset B")
    p.add_argument("--k", type=int, default=1, help="exponent k")
    p.add_argument("--c1", type=int, default=2, help="chi1(5) parameter in [1, 2^(m-2)]")
    p.add_argument("--s1", type=int, default=1, choices=(1, -1), help="chi1(-1)")
    p.add_argument("--c2", type=int, default=1, help="chi2(5) parameter in [1, 2^(m-2)]")
    p.add_argument("--s2", type=int, default=1, choices=(1, -1), help="chi2(-1)")


def _check_m(flag: str, m: int, cap: int) -> None:
    """Refuse m outside [3, cap] before anything of size 2^m is built:
    below 3 is a usage error (exit 2), above cap a width cap (exit 3)."""
    if m < 3:
        raise ValueError(f"{flag} {m} is outside [3, {cap}]")
    if m > cap:
        raise WidthCapError(f"modulus exponent {m} exceeds cap {cap}")


def _instance(args) -> tuple[SumInstance, Character, Character]:
    _check_m("--m", args.m, MAX_M)
    mod = 1 << args.m
    inst = SumInstance(args.m, args.A % mod, args.B % mod, args.k)
    return inst, Character(args.m, args.s1, args.c1), Character(args.m, args.s2, args.c2)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a non-empty comma-separated list of integers, got {text!r}"
        )
    return values


def cmd_eval(args) -> int:
    inst, chi1, chi2 = _instance(args)
    doc: dict = {
        "instance": {
            "m": inst.m, "A": inst.A, "B": inst.B, "k": inst.k,
            "c1": chi1.c, "s1": chi1.s, "c2": chi2.c, "s2": chi2.s,
        }
    }
    code = EXIT_OK
    if args.method in ("closed", "both"):
        doc["closed_form"] = closed_form(inst, chi1, chi2).to_json_dict()
    if args.method in ("brute", "both"):
        value = brute_force(inst, chi1, chi2).to_json_dict()
        re, im = approx_terms(value["ring_exponent"], value["terms"])
        doc["oracle"] = {"value": value, "approx": {"re": re, "im": im}}
    if args.method == "both":
        match = doc["closed_form"]["value"] == doc["oracle"]["value"]
        doc["match"] = match
        if not match:
            code = EXIT_MISMATCH
    json.dump(doc, sys.stdout, indent=2)
    print()
    return code


def cmd_check(args) -> int:
    from .sweep import DEFAULT_KS, default_jobs, exhaustive_records, run_check, sample_records

    if args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    _check_m("--m-min", args.m_min, MAX_ORACLE_M)
    _check_m("--m-max", args.m_max, MAX_ORACLE_M)
    jobs = args.jobs or default_jobs()
    if args.exhaustive:
        ks = DEFAULT_KS if args.k_list is None else args.k_list
        records = []
        for m in range(args.m_min, args.m_max + 1):
            records.extend(exhaustive_records(m, ks))
        seed = None
    else:
        seed = args.seed
        records = sample_records(seed, args.m_min, args.m_max, args.samples)
    report = run_check(records, jobs=jobs, seed=seed)
    doc = report.to_json_dict()
    doc["m_min"], doc["m_max"] = args.m_min, args.m_max
    doc["exhaustive"] = bool(args.exhaustive)
    json.dump(doc, sys.stdout, indent=2)
    print()
    return EXIT_OK if report.ok() else EXIT_MISMATCH


def cmd_bench(args) -> int:
    inst, chi1, chi2 = _instance(args)
    # closed form: repeat until the clock resolves it, report the best lap
    reps = 0
    best = float("inf")
    budget_end = time.perf_counter() + 0.5
    while reps < 2000 and time.perf_counter() < budget_end:
        t0 = time.perf_counter()
        cf = closed_form(inst, chi1, chi2)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        reps += 1
    t0 = time.perf_counter()
    val = brute_force(inst, chi1, chi2)
    brute_seconds = time.perf_counter() - t0
    match = matches_dense(cf.ring_exponent, cf.terms, val)
    doc = {
        "m": inst.m,
        "case": cf.case,
        "closed_form_seconds": best,
        "closed_form_reps": reps,
        "oracle_seconds": brute_seconds,
        "ratio": brute_seconds / best if best > 0 else None,
        "match": match,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_grid(args) -> int:
    from .sweep import DEFAULT_KS, GRID_HEADER, default_jobs, grid_rows

    m = args.m
    _check_m("--m", m, MAX_ORACLE_M)
    mod = 1 << m
    cmax = 1 << (m - 2)
    a_list = args.A_list if args.A_list else tuple(range(mod))
    b_list = args.B_list if args.B_list else tuple(range(1, mod, 2))
    c1_list = args.c1_list if args.c1_list else tuple(range(1, cmax + 1))
    c2_list = args.c2_list if args.c2_list else tuple(range(1, cmax + 1))
    s1_list = args.s1_list if args.s1_list else (1, -1)
    s2_list = args.s2_list if args.s2_list else (1, -1)
    k_list = DEFAULT_KS if args.k_list is None else args.k_list
    records = [
        (m, a, b, k, c1, s1, c2, s2)
        for c1 in c1_list
        for s1 in s1_list
        for c2 in c2_list
        for s2 in s2_list
        for a in a_list
        for b in b_list
        for k in k_list
    ]
    rows, bad = grid_rows(records, jobs=args.jobs or default_jobs())
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(GRID_HEADER + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as ex:
        print(f"error: cannot write {args.out}: {ex}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps({"rows": len(rows), "mismatches": bad, "out": args.out}))
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charsum",
        description="Exact evaluation of complete character sums over Z/2^m: "
        "closed form vs direct summation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one sum and emit JSON")
    _add_instance_flags(p)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="both")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="sweep-verify closed form against the oracle")
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--exhaustive", action="store_true",
                   help="full grid over characters, A, odd B for each m")
    p.add_argument("--k-list", dest="k_list", type=_parse_int_list, default=None,
                   help="comma-separated k values (exhaustive mode)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="processes, this one included (default: CHARSUM_JOBS or CPU count)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="time closed form vs oracle on one instance")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("grid", help="write a CSV of instances and case tags")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--A-list", dest="A_list", type=_parse_int_list, default=())
    p.add_argument("--B-list", dest="B_list", type=_parse_int_list, default=())
    p.add_argument("--k-list", dest="k_list", type=_parse_int_list, default=None)
    p.add_argument("--c1-list", dest="c1_list", type=_parse_int_list, default=())
    p.add_argument("--c2-list", dest="c2_list", type=_parse_int_list, default=())
    p.add_argument("--s1-list", dest="s1_list", type=_parse_int_list, default=())
    p.add_argument("--s2-list", dest="s2_list", type=_parse_int_list, default=())
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="processes, this one included (default: CHARSUM_JOBS or CPU count)")
    p.set_defaults(func=cmd_grid)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WidthCapError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, RuntimeError) as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
