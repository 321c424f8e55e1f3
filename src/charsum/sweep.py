"""Verification sweeps: instance sampling, the exact compare loop, parallel runs.

A record is the flat tuple (m, A, B, k, c1, s1, c2, s2).  Comparing a record
means evaluating the closed form, summing the oracle, and comparing the
closed form's ring and sparse terms with the oracle's (`brute_terms`; no
dense vector is built on either side).  `_compare` does this for a phase
run of at most _PHASE consecutive records, in three passes: every closed
form of the run, then every oracle sum, then the compares, so the two
computations do not alternate record by record.  Its two sinks take records
lazily, one block of _BLOCK at a time, and walk each part of a block one
phase run at a time: `run_check` adds up a report (and checks Large-regime
results' squared magnitude, a sparse product of the matched terms, against
the regime formula), `write_grid` writes CSV rows in record order.
Sampling is seeded and single-streamed, so reports are reproducible and
independent of the worker count.  `sample_records` yields its records one at
a time, as `exhaustive_records` does, rotating through aimed case shapes;
each aim makes a fixed sequence of draws, and the MidRange and Large aims
draw their shared root shape (A, k, c1 = 2^(n+t) * odd, an odd c2) in one
place, `_root_shape`.  The benchmark's pinned inputs come from this
sampler, so a change to it must keep every draw and its order.

Each block goes through `_pool_map`: it gets one process per FORK_TERMS of
its priced oracle terms, up to `jobs`, so a small block starts no child, and
it is cut into contiguous parts, one per process; the calling process
computes the first itself and one child process computes each of the others.
Each child sends back its result or its exception over a pipe; the
exception is re-raised in the caller with its type unchanged (so an
AssertionError stays an internal error), and a child that dies without
answering raises RuntimeError.  No child outlives the call.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import islice, starmap

from .characters import Character, SumInstance
from .cyclotomic import abs2_terms, ring_exponent_for
from .errors import record_terms
from .evaluator import CASE_LARGE_EVEN, CASE_LARGE_ODD, characteristic_value, closed_form
from .oracle import brute_terms
from .ring2adic import v2

Record = tuple[int, int, int, int, int, int, int, int]

DEFAULT_KS = (1, 2, 3, 4, 6, 8, 12)

_BLOCK = 1 << 16  # records per block: a sweep holds one block and its results
# priced oracle terms (errors.record_terms) per process of a block: a child
# takes milliseconds to start, and `run_check` on 2 processes first beat 1
# at 2.1M priced terms in most series, and always by 8.5M (2-vCPU VM shared
# with other tenants; README, "Performance notes")
FORK_TERMS = 1 << 20
# records per phase run: `_compare` runs the closed form over a whole run, then
# the oracle, instead of alternating the two code paths record by record.  On
# the verify-sweep batches of m = 6..14 a record cost 34-35 us in runs of 1,
# 26-28 us in runs of 16, 25-26 us of 32, 24-26 us of 64 and 24-25 us of 128
# (a whole batch), against 31-33 us record by record (one process, median of
# 7 passes, 3 series, 2-vCPU VM): flat from 32 up, and 64 keeps a run small
_PHASE = 64


class CheckReport:
    """What `run_check` adds up: the mismatching and magnitude-violating
    records (sorted at the end), case tag counts, and the seconds spent in
    each method.

    Unlike the frozen records it is a plain object: `run_check` fills it in,
    and callers may attach more (the acceptance tests attach their wall time).
    """

    def __init__(self, seed: int | None, jobs: int) -> None:
        self.instances_checked = 0
        self.mismatches: list[Record] = []
        self.tag_counts: Counter = Counter()
        self.magnitude_violations: list[Record] = []
        self.closed_seconds = 0.0
        self.brute_seconds = 0.0
        self.seed = seed
        self.jobs = jobs

    def ok(self) -> bool:
        return not self.mismatches and not self.magnitude_violations

    def to_json_dict(self) -> dict:
        return {
            "instances_checked": self.instances_checked,
            "mismatches": [list(r) for r in self.mismatches],
            "magnitude_violations": [list(r) for r in self.magnitude_violations],
            "tag_counts": dict(sorted(self.tag_counts.items())),
            "wall_time": {"closed": self.closed_seconds, "brute": self.brute_seconds},
            "seed": self.seed,
            "jobs": self.jobs,
        }


def _compare(recs: list[Record]) -> tuple:
    """Closed form and oracle on one phase run of records, in three passes:
    (cfs, matches, closed_s, oracle_s), the lists in record order."""
    args = [
        (SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2))
        for m, a, b, k, c1, s1, c2, s2 in recs
    ]
    t0 = time.perf_counter()
    cfs = list(starmap(closed_form, args))
    t1 = time.perf_counter()
    wants = list(starmap(brute_terms, args))
    t2 = time.perf_counter()
    matches = [
        cf.ring_exponent == ring_exponent_for(rec[0]) and cf.terms == want
        for rec, cf, want in zip(recs, cfs, wants)
    ]
    return cfs, matches, t1 - t0, t2 - t1


def _check_chunk(recs: list[Record]) -> tuple:
    tags: Counter = Counter()
    mismatches: list[Record] = []
    mag_bad: list[Record] = []
    t_closed = t_brute = 0.0
    for i in range(0, len(recs), _PHASE):
        run = recs[i : i + _PHASE]
        cfs, matches, tc, tb = _compare(run)
        t_closed += tc
        t_brute += tb
        for rec, cf, match in zip(run, cfs, matches):
            tags[cf.case] += 1
            if not match:
                mismatches.append(rec)
                continue
            if cf.case in (CASE_LARGE_EVEN, CASE_LARGE_ODD):
                m, a, b, k = rec[:4]
                swapped = (a & 1) and not (b & 1)
                n = v2(b if swapped else a)
                t = v2(k)
                expected = m + n + 2 * t + 2 * min(1, t)
                # cf.terms equals the oracle's value here, so its sparse |S|^2 is the oracle's
                if abs2_terms(cf.ring_exponent, cf.terms) != {0: 1 << expected}:
                    mag_bad.append(rec)
    return len(recs), mismatches, tags, mag_bad, t_closed, t_brute


def _worker(func, part: list[Record], conn) -> None:
    """Child side of `_pool_map`: one message, ("ok", result) or ("error", exc)."""
    try:
        msg = ("ok", func(part))
    except Exception as ex:
        msg = ("error", ex)
    conn.send(msg)
    conn.close()


def _pool_map(func, records: list[Record], jobs: int) -> list:
    """func over contiguous parts of records, results in record order.

    `jobs` is an upper bound on the processes, this one included.  The block
    gets one process per FORK_TERMS of its records' price (errors.record_terms,
    the price the CLI's size gate charges), at least one and at most `jobs` or
    one per record.  The records are cut into that many contiguous parts of
    equal size (the last one shorter, and fewer parts if they run out); this
    process computes part 0 itself and child p computes part p, so no child
    starts without records.  Each child sends back one message on its own pipe: its
    result, or the exception it raised, which is re-raised here with its type
    unchanged.  A child that exits without a message raises RuntimeError
    naming it and its exit code.  On any error the remaining children are
    terminated and joined before the exception propagates.

    A block priced at one process is computed here; only a real fan-out
    imports multiprocessing, so processes that never fork do not pay for it.
    """
    if jobs > 1:
        priced = sum(record_terms(rec[0]) for rec in records)
        jobs = min(jobs, len(records), priced // FORK_TERMS)
    if jobs <= 1:
        return [func(records)]
    import multiprocessing

    size = (len(records) + jobs - 1) // jobs
    parts = [records[i : i + size] for i in range(0, len(records), size)]
    workers = []
    try:
        for part in parts[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_worker, args=(func, part, send), daemon=True)
            proc.start()
            workers.append((proc, recv))
            send.close()  # the child holds the only write end, so its exit means EOF here
        results = [func(parts[0])]
        for p, (proc, recv) in enumerate(workers, 1):
            try:
                status, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"sweep worker {p} (pid {proc.pid}) exited with code {proc.exitcode} "
                    "without sending its results"
                ) from None
            if status == "error":
                raise value
            results.append(value)
            proc.join()
        return results
    finally:
        for proc, recv in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()


def _blocks(func, records: Iterable[Record], jobs: int) -> Iterator:
    """func's results over records, one per part, in record order, holding one block at a time."""
    it = iter(records)
    while block := list(islice(it, _BLOCK)):
        yield from _pool_map(func, block, jobs)


def run_check(
    records: Iterable[Record], jobs: int | None = None, seed: int | None = None
) -> CheckReport:
    """Compare closed form and oracle over the records, optionally in parallel.

    jobs, the most processes a block may use (this one included), defaults to
    the CPU count; a block starts a child only for each FORK_TERMS of its
    priced oracle terms beyond the first (`_pool_map`), and the report keeps
    the requested jobs.  Results are merged order-insensitively, so the
    report does not depend on the worker count.
    """
    jobs = jobs or os.cpu_count() or 1
    report = CheckReport(seed, jobs)
    for n, mis, tags, mag, tc, tb in _blocks(_check_chunk, records, jobs):
        report.instances_checked += n
        report.mismatches.extend(mis)
        report.tag_counts.update(tags)
        report.magnitude_violations.extend(mag)
        report.closed_seconds += tc
        report.brute_seconds += tb
    report.mismatches.sort()
    report.magnitude_violations.sort()
    return report


# ---------------------------------------------------------------------------
# record generators

def _grid_axes(
    m: int,
    ks: tuple[int, ...] = (),
    *,
    a_list: tuple[int, ...] = (),
    b_list: tuple[int, ...] = (),
    c1_list: tuple[int, ...] = (),
    s1_list: tuple[int, ...] = (),
    c2_list: tuple[int, ...] = (),
    s2_list: tuple[int, ...] = (),
) -> tuple:
    """The grid's axes at modulus 2^m in the order c1, s1, c2, s2, A, B, k.

    Each list narrows one coordinate; an empty one means its full range:
    every character parameter, both signs, every A, every odd B, DEFAULT_KS.
    """
    mod = 1 << m
    cs = range(1, (1 << (m - 2)) + 1)
    return (
        c1_list or cs, s1_list or (1, -1), c2_list or cs, s2_list or (1, -1),
        a_list or range(mod), b_list or range(1, mod, 2), ks or DEFAULT_KS,
    )


def exhaustive_records(
    m: int, ks: tuple[int, ...] = (), **lists: tuple[int, ...]
) -> Iterator[Record]:
    """Grid at modulus 2^m, generated lazily along `_grid_axes`, the last axis fastest."""
    c1s, s1s, c2s, s2s, as_, bs, ks = _grid_axes(m, ks, **lists)
    return (
        (m, a, b, k, c1, s1, c2, s2)
        for c1 in c1s for s1 in s1s for c2 in c2s for s2 in s2s
        for a in as_ for b in bs for k in ks
    )


def exhaustive_count(m: int, ks: tuple[int, ...] = (), **lists: tuple[int, ...]) -> int:
    """Number of records exhaustive_records(m, ks, **lists) yields."""
    return math.prod(map(len, _grid_axes(m, ks, **lists)))


def _rand_k(rng: random.Random, t: int) -> int:
    return (1 << t) * rng.choice((1, 3, 5, 7, 9, 11, 13, 15))


def _rand_char(rng: random.Random, m: int, parity: str = "any") -> tuple[int, int]:
    cmax = 1 << (m - 2)
    if parity == "odd":
        c = rng.randrange(1, cmax + 1, 2)
    elif parity == "even":
        c = rng.randrange(2, cmax + 1, 2)
    else:
        c = rng.randint(1, cmax)
    return c, rng.choice((1, -1))


def _even_a(rng: random.Random, m: int, n: int) -> int:
    """Random A = 2^n * odd inside [0, 2^m)."""
    if n >= m:
        return 0
    return (1 << n) * rng.randrange(1, 1 << (m - n), 2)


def _root_shape(rng: random.Random, m: int, n: int, t: int) -> tuple[int, int, int, int, int]:
    """(A, k, c1, c2, s2) with v2(A) = n, v2(k) = t, c1 = 2^(n+t) * odd below
    2^(m-2) and an odd c2: the shape whose characteristic congruence MidRange
    and Large solve.  Needs n >= 1 and n + t <= m - 3."""
    a = _even_a(rng, m, n)
    k = _rand_k(rng, t)
    c1 = (1 << (n + t)) * rng.randrange(1, 1 << (m - 2 - n - t), 2)
    c2, s2 = _rand_char(rng, m, "odd")
    return a, k, c1, c2, s2


def _solved_b(
    rng: random.Random, m: int, a: int, k: int, c1: int, c2: int, x0: int, width: int
) -> int:
    """Odd B making the characteristic value vanish at x0 mod 2^width."""
    n, t = v2(a), v2(k)
    probe = SumInstance(m, a, 1, k)
    cv = characteristic_value(x0, probe, Character(m, 1, c1), Character(m, 1, c2), width)
    coef_term = (cv - c1) % (1 << width)  # coefficient * x0^k
    q = coef_term >> (n + t)
    c3 = c1 >> (n + t)
    w2 = width - n - t  # >= 2 for every caller's shape
    b = (-q * pow(c3, -1, 1 << w2)) % (1 << w2)
    b += rng.randrange(0, 1 << (m - w2)) << w2
    return b


def _aimed_record(rng: random.Random, m: int, aim: str) -> Record | None:
    """Try to build an instance likely to land on the aimed case tag."""
    mod = 1 << m
    cmax = 1 << (m - 2)

    if aim == "ZeroParity":
        a = rng.randrange(mod)
        b = rng.randrange(1, mod, 2) if a & 1 else rng.randrange(0, mod, 2)
        c1, s1 = _rand_char(rng, m)
        c2, s2 = _rand_char(rng, m)
        return (m, a, b, rng.randint(1, 24), c1, s1, c2, s2)

    if aim in ("ZeroImprimitive", "Reduced"):
        # an imprimitive chi2 zeroes a primitive chi1's sum; with an imprimitive chi1 it reduces
        c1, s1 = _rand_char(rng, m, "even" if aim == "Reduced" else "odd")
        c2, s2 = _rand_char(rng, m, "even")
        a = _even_a(rng, m, rng.randint(1, m - 1))
        b = rng.randrange(1, mod, 2)
        return (m, a, b, rng.randint(1, 24), c1, s1, c2, s2)

    if aim == "Swap":
        a = rng.randrange(1, mod, 2)
        b = rng.randrange(0, mod, 2)
        c1, s1 = _rand_char(rng, m)
        c2, s2 = _rand_char(rng, m)
        return (m, a, b, rng.randint(1, 24), c1, s1, c2, s2)

    if aim == "Uniform":
        c1, s1 = _rand_char(rng, m)
        c2, s2 = _rand_char(rng, m)
        return (m, rng.randrange(mod), rng.randrange(mod), rng.randint(1, 24), c1, s1, c2, s2)

    if aim == "Tiny":
        t = rng.randint(0, 3)
        n = rng.randint(max(m - t - 1, 1), m)
        a = _even_a(rng, m, n)
        k = _rand_k(rng, t)
        c2, s2 = _rand_char(rng, m, "odd")
        if rng.random() < 0.5:
            c1, s1 = cmax, 1  # principal: the nonzero branch
        else:
            c1, s1 = _rand_char(rng, m)
        return (m, a, rng.randrange(1, mod, 2), k, c1, s1, c2, s2)

    if aim == "ZeroCondition":
        # Large shape with a primitive chi1: the power condition must fail
        t = rng.choice((0, 0, 1))
        n_hi = m - 2 * t - 5
        if n_hi < 1:
            return None
        n = rng.randint(1, n_hi)
        a = _even_a(rng, m, n)
        c1, s1 = _rand_char(rng, m, "odd")
        c2, s2 = _rand_char(rng, m, "odd")
        return (m, a, rng.randrange(1, mod, 2), _rand_k(rng, t), c1, s1, c2, s2)

    if aim == "EdgeT2":
        t = rng.randint(0, max(0, m - 3))
        n = m - t - 2
        a = _even_a(rng, m, n)
        k = _rand_k(rng, t)
        s1 = 1 if k % 2 == 0 else -1  # principal for even k, mod-4 sign for odd
        c2, s2 = _rand_char(rng, m, "odd")
        return (m, a, rng.randrange(1, mod, 2), k, cmax, s1, c2, s2)

    if aim == "EdgeT3":
        t = rng.randint(0, max(0, m - 4))
        n = m - t - 3
        if n < 1:
            return None
        a = _even_a(rng, m, n)
        k = _rand_k(rng, t)
        s1 = 1 if k % 2 == 0 else rng.choice((1, -1))
        c2, s2 = _rand_char(rng, m, "odd")
        return (m, a, rng.randrange(1, mod, 2), k, 1 << (m - 3), s1, c2, s2)

    if aim == "MidRange":
        choices = [(t, d) for t in (0, 1, 2) for d in range(t + 4, 2 * t + 5) if m - d >= 1]
        if not choices:
            return None
        t, d = rng.choice(choices)
        a, k, c1, c2, s2 = _root_shape(rng, m, m - d, t)
        x0 = (1 << (m - 2)) - 1 if k % 2 and rng.random() < 0.5 else 1
        b = _solved_b(rng, m, a, k, c1, c2, x0, m - 2)
        s1 = 1 if k % 2 == 0 else rng.choice((1, -1))
        return (m, a, b, k, c1, s1, c2, s2)

    if aim in ("LargeEven", "LargeOdd"):
        ds = range(5 if aim == "LargeOdd" else 6, m, 2)
        if not ds:
            return None
        # odd k: the characteristic congruence always solves
        a, k, c1, c2, s2 = _root_shape(rng, m, m - rng.choice(ds), 0)
        s1 = rng.choice((1, -1))
        return (m, a, rng.randrange(1, mod, 2), k, c1, s1, c2, s2)

    if aim == "LargeKeven":
        t = rng.choice((1, 2))
        ds = range(2 * t + 5, m)
        if not ds:
            return None
        n = m - rng.choice(ds)
        a, k, c1, c2, s2 = _root_shape(rng, m, n, t)
        m_exp = ((m + n) >> 1) + t
        x0 = rng.randrange(1, 1 << m_exp, 2)
        b = _solved_b(rng, m, a, k, c1, c2, x0, m_exp)
        return (m, a, b, k, c1, 1, c2, s2)

    raise ValueError(f"unknown aim {aim!r}")


SAMPLE_AIMS = (
    "LargeEven",
    "LargeOdd",
    "LargeKeven",
    "MidRange",
    "EdgeT3",
    "EdgeT2",
    "Tiny",
    "ZeroParity",
    "ZeroImprimitive",
    "ZeroCondition",
    "Reduced",
    "Swap",
    "Uniform",
)


def sample_records(seed: int, m_min: int, m_max: int, count: int) -> Iterator[Record]:
    """Seeded stratified sample, yielded lazily: rotates through aimed case
    shapes so every branch of the evaluator keeps getting traffic."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(m_min, m_max)
        rec = _aimed_record(rng, m, SAMPLE_AIMS[i % len(SAMPLE_AIMS)])
        yield rec if rec is not None else _aimed_record(rng, m, "Uniform")


# ---------------------------------------------------------------------------
# CSV grid

GRID_HEADER = "m,A,B,k,c1,s1,c2,s2,case,magnitude_halves,match,re,im"


def _grid_chunk(recs: list[Record]) -> tuple[str, int, int]:
    """The CSV lines of the records, their count, and how many mismatch."""
    rows = []
    bad = 0
    for i in range(0, len(recs), _PHASE):
        run = recs[i : i + _PHASE]
        cfs, matches, _, _ = _compare(run)
        for (m, a, b, k, c1, s1, c2, s2), cf, match in zip(run, cfs, matches):
            re, im = cf.approx()
            mag = "" if cf.magnitude_halves is None else str(cf.magnitude_halves)
            rows.append(
                f"{m},{a},{b},{k},{c1},{s1},{c2},{s2},{cf.case},{mag},"
                f"{'true' if match else 'false'},{re:.12g},{im:.12g}\n"
            )
            bad += not match
    return "".join(rows), len(recs), bad


def write_grid(fh, records: Iterable[Record], jobs: int | None = None) -> tuple[int, int]:
    """Write the CSV header and the records' rows to fh, a block at a time, in
    record order; jobs defaults to the CPU count.  Returns (rows, mismatches)."""
    fh.write(GRID_HEADER + "\n")
    rows = bad = 0
    for text, n, part_bad in _blocks(_grid_chunk, records, jobs or os.cpu_count() or 1):
        fh.write(text)
        rows += n
        bad += part_bad
    return rows, bad
