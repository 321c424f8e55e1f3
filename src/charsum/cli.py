"""Command-line surface: evaluate one sum, sweep-verify, benchmark, or dump grids.

Exit codes are a stable contract: 0 success/match, 1 mismatch, 2 usage,
3 width or size cap, 4 I/O failure, 5 internal error (a broken solver or
self-check invariant).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable

from .characters import Character
from .cyclotomic import ring_exponent_for, value_json
from .errors import MAX_M, MAX_ORACLE_M, MAX_SWEEP_TERMS, WidthCapError, record_terms
from .evaluator import ClosedForm, SumInstance, closed_form

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


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="most processes, this one included (default: CPU count): a "
                        "block of records uses one per 2^20 priced oracle terms")


def _check_m(flag: str, m: int, cap: int) -> None:
    """Refuse m outside [3, cap] before anything of size 2^m is built:
    below 3 is a usage error (exit 2), above cap a width cap (exit 3)."""
    if m < 3:
        raise ValueError(f"{flag} {m} is outside [3, {cap}]")
    if m > cap:
        raise WidthCapError(f"modulus exponent {m} exceeds cap {cap}")


def _check_sweep(counts: Iterable[tuple[int, float]]) -> None:
    """Refuse (exit 3) a sweep of (m, record count) pairs whose oracle terms,
    priced by record_terms (2^(m-1) per record plus its fixed cost), exceed
    MAX_SWEEP_TERMS, before a record is compared."""
    terms = sum(n * record_terms(m) for m, n in counts)
    if terms > MAX_SWEEP_TERMS:
        raise WidthCapError(
            f"sweep of about {terms:.3g} oracle terms exceeds cap {MAX_SWEEP_TERMS:.3g}"
        )


def _check_list(flag: str, values: tuple[int, ...], ok, allowed: str) -> None:
    """Refuse (exit 2) a list value that fails ok, naming the flag and the
    allowed values, before a sweep compares a record or opens its output."""
    for v in values:
        if not ok(v):
            raise ValueError(f"{flag} value {v} is outside {allowed}")


def _instance(args, cap: int = MAX_M) -> tuple[SumInstance, Character, Character]:
    _check_m("--m", args.m, cap)
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
        cf = closed_form(inst, chi1, chi2)
        doc["closed_form"] = cf.to_json_dict()
    if args.method in ("brute", "both"):
        from .oracle import brute_terms

        r = ring_exponent_for(inst.m)
        terms = brute_terms(inst, chi1, chi2)
        doc["oracle"] = value_json(r, terms)
    if args.method == "both":
        match = cf.ring_exponent == r and cf.terms == terms
        doc["match"] = match
        if not match:
            code = EXIT_MISMATCH
    json.dump(doc, sys.stdout, indent=2)
    print()
    return code


def cmd_check(args) -> int:
    from .sweep import exhaustive_count, exhaustive_records, run_check, sample_records

    if args.k_list is not None and not args.exhaustive:
        raise ValueError("--k-list needs --exhaustive: sampled checks draw k themselves")
    _check_list("--k-list", args.k_list or (), lambda k: k >= 1, "[1, inf)")
    if args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    _check_m("--m-min", args.m_min, MAX_ORACLE_M)
    _check_m("--m-max", args.m_max, MAX_ORACLE_M)
    ms = range(args.m_min, args.m_max + 1)
    if args.exhaustive:
        ks = args.k_list or ()
        _check_sweep((m, exhaustive_count(m, ks)) for m in ms)
        records = (r for m in ms for r in exhaustive_records(m, ks))
        seed = None
    else:
        # sample_records draws m uniformly from ms
        _check_sweep((m, args.samples / len(ms)) for m in ms)
        seed = args.seed
        records = sample_records(seed, args.m_min, args.m_max, args.samples)
    report = run_check(records, jobs=args.jobs, seed=seed)
    doc = report.to_json_dict()
    doc["m_min"], doc["m_max"] = args.m_min, args.m_max
    doc["exhaustive"] = bool(args.exhaustive)
    json.dump(doc, sys.stdout, indent=2)
    print()
    return EXIT_OK if report.ok() else EXIT_MISMATCH


def best_closed_time(
    inst: SumInstance, chi1: Character, chi2: Character, laps: int
) -> tuple[float, ClosedForm]:
    """The fastest of laps timed closed_form calls, in seconds, and the result."""
    best = float("inf")
    for _ in range(laps):
        t0 = time.perf_counter()
        cf = closed_form(inst, chi1, chi2)
        best = min(best, time.perf_counter() - t0)
    return best, cf


def cmd_bench(args) -> int:
    from .oracle import brute_terms

    inst, chi1, chi2 = _instance(args, MAX_ORACLE_M)
    # closed form: 2000 laps, so the clock resolves it; report the best lap
    reps = 2000
    best, cf = best_closed_time(inst, chi1, chi2, reps)
    t0 = time.perf_counter()
    terms = brute_terms(inst, chi1, chi2)
    brute_seconds = time.perf_counter() - t0
    match = cf.ring_exponent == ring_exponent_for(inst.m) and cf.terms == terms
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
    from .sweep import exhaustive_count, exhaustive_records, write_grid

    _check_m("--m", args.m, MAX_ORACLE_M)
    lists = dict(
        a_list=args.A_list, b_list=args.B_list, c1_list=args.c1_list,
        s1_list=args.s1_list, c2_list=args.c2_list, s2_list=args.s2_list,
    )
    ks = args.k_list or ()
    mod, cmax = 1 << args.m, 1 << (args.m - 2)
    for flag, key in (("--A-list", "a_list"), ("--B-list", "b_list")):
        _check_list(flag, lists[key], lambda v: 0 <= v < mod, f"[0, {mod - 1}]")
    for flag, key in (("--c1-list", "c1_list"), ("--c2-list", "c2_list")):
        _check_list(flag, lists[key], lambda c: 1 <= c <= cmax, f"[1, {cmax}]")
    for flag, key in (("--s1-list", "s1_list"), ("--s2-list", "s2_list")):
        _check_list(flag, lists[key], lambda s: s in (1, -1), "{1, -1}")
    _check_list("--k-list", ks, lambda k: k >= 1, "[1, inf)")
    _check_sweep([(args.m, exhaustive_count(args.m, ks, **lists))])
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            rows, bad = write_grid(fh, exhaustive_records(args.m, ks, **lists), args.jobs)
    except OSError as ex:
        print(f"error: cannot write {args.out}: {ex}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps({"rows": rows, "mismatches": bad, "out": args.out}))
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
                   help="comma-separated k values (needs --exhaustive)")
    _add_jobs_flag(p)
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
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_grid)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull, so that the
        # interpreter's final flush of what is left cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the result was written", file=sys.stderr)
        return EXIT_IO
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
