"""Acceptance suite: one test per verification criterion, each printing a
single PASS/FAIL line (run with -s to watch).  All comparisons are exact ring
equality; the only tolerances anywhere are the explicit performance bounds of
criterion 8."""

import random
import time

import pytest

from charsum.characters import Character
from charsum.evaluator import (
    CASE_LARGE_EVEN,
    CASE_LARGE_ODD,
    SumInstance,
    closed_form,
    derive,
    evaluate_large,
)
from charsum.oracle import brute_force, half_sum
from charsum.ring2adic import jacobi2, v2
from charsum.sweep import (
    Record,
    _aimed_record,
    _pool_map,
    exhaustive_records,
    run_check,
    sample_records,
)
from ringref import (
    add,
    counted_sum,
    from_int,
    mul,
    root_of_unity,
    scalar_mul,
    solve_characteristic,
    sqrt2,
)

JOBS = 2
REGIME_TAGS = (
    "LargeEven", "LargeOdd", "MidRange", "EdgeT3", "EdgeT2", "Tiny",
    "ZeroParity", "ZeroImprimitive", "ZeroCondition",
)


def sample_violating(seed: int, m_min: int, m_max: int, count: int) -> list[Record]:
    """Instances breaking the standing hypotheses: even B, same parity,
    imprimitive chi2, or two imprimitive characters."""
    rng = random.Random(seed)
    aims = ("Swap", "ZeroParity", "ZeroImprimitive", "Reduced")
    out: list[Record] = []
    i = 0
    while len(out) < count:
        m = rng.randint(m_min, m_max)
        rec = _aimed_record(rng, m, aims[i % len(aims)])
        i += 1
        if rec is not None:
            out.append(rec)
    return out


def sample_large_nonzero(seed: int, m_min: int, m_max: int, count: int) -> list[Record]:
    """Large-regime records whose closed form is guaranteed nonzero (odd k)."""
    rng = random.Random(seed)
    out: list[Record] = []
    while len(out) < count:
        m = rng.randint(max(m_min, 6), m_max)
        rec = _aimed_record(rng, m, rng.choice(("LargeEven", "LargeOdd")))
        if rec is not None:
            out.append(rec)
    return out


def _report(num, name, ok, detail):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def small_report():
    records = []
    for m in (3, 4, 5):
        records.extend(exhaustive_records(m))
    t0 = time.perf_counter()
    report = run_check(records, jobs=JOBS)
    report.elapsed = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def medium_report():
    records = sample_records(1002, 6, 14, 100_000)
    t0 = time.perf_counter()
    report = run_check(records, jobs=JOBS)
    report.elapsed = time.perf_counter() - t0
    return report


def test_criterion_1_exhaustive_small_moduli(small_report):
    r = small_report
    ok = r.instances_checked == 978_432 and not r.mismatches
    _report(
        1, "exhaustive equivalence m=3..5", ok,
        f"{r.instances_checked} instances, {len(r.mismatches)} mismatches, "
        f"{r.elapsed:.0f}s with {JOBS} workers",
    )


def test_criterion_2_randomized_medium_moduli(medium_report):
    r = medium_report
    quotas = {tag: r.tag_counts.get(tag, 0) for tag in REGIME_TAGS}
    ok = r.instances_checked == 100_000 and not r.mismatches and all(
        v >= 1000 for v in quotas.values()
    )
    _report(
        2, "randomized equivalence m=6..14", ok,
        f"{r.instances_checked} instances, {len(r.mismatches)} mismatches, "
        f"tag floor {min(quotas.values())}, {r.elapsed:.0f}s with {JOBS} workers",
    )


def test_criterion_3_magnitude_law(small_report, medium_report):
    larges = sum(
        rep.tag_counts.get(t, 0)
        for rep in (small_report, medium_report)
        for t in (CASE_LARGE_EVEN, CASE_LARGE_ODD)
    )
    violations = len(small_report.magnitude_violations) + len(
        medium_report.magnitude_violations
    )
    ok = violations == 0 and larges > 0
    _report(
        3, "magnitude law |S|^2 = 2^(m+n+2t+2min(1,t))", ok,
        f"{larges} nonzero large instances, {violations} violations",
    )


def _decomposition_chunk(recs):
    bad = 0
    for m, a, b, k, c1, s1, c2, s2 in recs:
        inst = SumInstance(m, a, b, k)
        chi1 = Character(m, s1, c1)
        chi2 = Character(m, s2, c2)
        whole = brute_force(inst, chi1, chi2)
        plus = half_sum(inst, chi1, chi2, 1)
        if k % 2 == 0:
            rhs = scalar_mul(1 + s1, plus)
        else:
            rhs = add(plus, scalar_mul(s1, half_sum(inst, chi1, chi2, -1)))
        if whole != rhs:
            bad += 1
    return bad


def _half_sums_by_count(recs):
    """Failures of half_sum against a per-x count of each half's terms, which
    shares no summation code with the oracle."""
    bad = 0
    for m, a, b, k, c1, s1, c2, s2 in recs:
        inst = SumInstance(m, a, b, k)
        chi1 = Character(m, s1, c1)
        chi2 = Character(m, s2, c2)
        plus = range(1, 1 << m, 4)  # the x = 5^gamma, each once
        for sign in (1, -1):
            want = counted_sum(inst, chi1, chi2, plus, sign * a % (1 << m))
            bad += half_sum(inst, chi1, chi2, sign) != want
    return bad


def test_criterion_4_decomposition_identities():
    # brute_force and half_sum share the oracle's summation loop, so the
    # identity alone tests only how brute_force combines the halves
    records = list(sample_records(1004, 6, 12, 10_000))
    bad = sum(_pool_map(_decomposition_chunk, records, JOBS))
    counted = records[::20]
    bad_counts = sum(_pool_map(_half_sums_by_count, counted, JOBS))
    _report(
        4, "half-sum decomposition identities, half sums by per-x count", bad + bad_counts == 0,
        f"{len(records)} instances, {bad} failures; {len(counted)} counted, "
        f"{bad_counts} failures",
    )


def test_criterion_5_representative_independence():
    records = sample_large_nonzero(1005, 6, 14, 1000)
    checked = multi = 0
    bad = 0
    for m, a, b, k, c1, s1, c2, s2 in records:
        inst = SumInstance(m, a, b, k)
        chi1 = Character(m, s1, c1)
        chi2 = Character(m, s2, c2)
        _, sols = solve_characteristic(inst, chi1, chi2)
        if len(sols) < 2:
            continue
        multi += 1
        params = derive(inst)
        forms = [evaluate_large(inst, chi1, chi2, params, x0=x) for x in sols]
        if any(f.terms != forms[0].terms or not f.terms for f in forms):
            bad += 1
        checked += len(sols)
    ok = bad == 0 and multi >= 1000
    _report(
        5, "representative independence of x0", ok,
        f"{multi} instances with >= 2 witnesses, {checked} witnesses, {bad} failures",
    )


def test_criterion_6_eighth_root_identity():
    bad = 0
    for r in (3, 4, 6, 8):
        for h in (1, 3, 5, 7):
            lhs = add(from_int(1, r), root_of_unity(r, 2 * h << (r - 3)))
            rhs = scalar_mul(jacobi2(h), mul(sqrt2(r), root_of_unity(r, h << (r - 3))))
            if lhs != rhs:
                bad += 1
    _report(6, "1 + i^h = sqrt2 * omega^h * (2/h)", bad == 0, f"h mod 8 x 4 rings, {bad} failures")


def _brute_filter(m, a, b, k, c1, c2, w):
    """All odd x mod 2^w killing the characteristic combination, by direct
    scan.  The two cofactors are exact integer powers computed once."""
    n, t = v2(a), v2(k)
    d = m - n
    N = (d + 1) // 2 if d > 2 * t + 4 else t + 2
    mod = 1 << w
    rn = ((5 ** (1 << (N - 2)) - 1) >> N) % mod
    rnn = ((5 ** (1 << (N + n - 2)) - 1) >> (N + n)) % mod
    coef = (c1 * a + c2 * a * k * rn * pow(rnn, -1, mod)) % mod
    const = c1 * b % mod
    return tuple(x for x in range(1, mod, 2) if (const + coef * pow(x, k, mod)) % mod == 0)


def test_criterion_7_solver_completeness():
    rng = random.Random(1007)
    cases = []
    while len(cases) < 250:
        m = rng.randint(6, 16)
        t = rng.choice((0, 0, 1, 2))
        n_hi = m - 2 * t - 5
        if n_hi < 1:
            continue
        n = rng.randint(1, n_hi)
        a = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        k = (1 << t) * rng.choice((1, 3, 5, 7))
        cmax = 1 << (m - 2)
        c1 = (1 << (n + t)) * rng.randrange(1, max(cmax >> (n + t), 2), 2)
        if c1 > cmax:
            continue
        cases.append((m, a, rng.randrange(1, 1 << m, 2), k, c1, rng.randrange(1, cmax, 2)))
    # two deep witnesses pushing the characteristic modulus to 2^19 and 2^20
    cases.append((22, (1 << 14) * 3, 11, 1, (1 << 14) * 5, 7))   # M_exp = 18
    cases.append((24, (1 << 16) * 7, 5, 1, (1 << 16) * 3, 9))    # M_exp = 20
    bad = 0
    biggest = 0
    for m, a, b, k, c1, c2 in cases:
        inst = SumInstance(m, a, b, k)
        w, sols = solve_characteristic(inst, Character(m, 1, c1), Character(m, 1, c2))
        biggest = max(biggest, w)
        if sols != _brute_filter(m, a, b, k, c1, c2, w):
            bad += 1
    _report(
        7, "characteristic solver completeness", bad == 0,
        f"{len(cases)} instances, deepest modulus 2^{biggest}, {bad} failures",
    )


def _best_closed_time(inst, chi1, chi2, laps=200):
    best = float("inf")
    for _ in range(laps):
        t0 = time.perf_counter()
        closed_form(inst, chi1, chi2)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_8_performance():
    timings = {}
    for m in (16, 20, 24):
        inst = SumInstance(m, 2, 1, 1)
        chi1, chi2 = Character(m, 1, 2), Character(m, 1, 1)
        timings[m] = _best_closed_time(inst, chi1, chi2)
    inst = SumInstance(24, 2, 1, 1)
    chi1, chi2 = Character(24, 1, 2), Character(24, 1, 1)
    cf = closed_form(inst, chi1, chi2)
    t0 = time.perf_counter()
    val = brute_force(inst, chi1, chi2)
    oracle_s = time.perf_counter() - t0
    ratio = oracle_s / timings[24]
    growth_16_20 = timings[20] / timings[16]
    growth_20_24 = timings[24] / timings[20]
    # deep valuation: 2^20 characteristic solutions, none of them enumerated
    deep = SumInstance(30, 3 << 20, 5, 1)
    deep_s = _best_closed_time(deep, Character(30, 1, 5 << 20), Character(30, 1, 7))
    ok = (
        timings[24] < 1e-3
        and ratio >= 1e3
        and growth_16_20 < 16
        and growth_20_24 < 16
        and cf.value() == val
        and deep_s < 1e-3
    )
    _report(
        8, "closed form < 1 ms at m=24 and at n=20, m=30, oracle ratio >= 10^3", ok,
        f"closed {timings[24] * 1e6:.0f} us, oracle {oracle_s:.1f} s, ratio {ratio:.0f}, "
        f"growth x{growth_16_20:.2f}/x{growth_20_24:.2f} per +4 in m (vs x16 for 2^m), "
        f"n=20 at m=30 {deep_s * 1e6:.0f} us",
    )


def test_criterion_9_normalization_soundness():
    records = sample_violating(1009, 3, 12, 10_000)
    report = run_check(records, jobs=JOBS)
    ok = report.instances_checked == 10_000 and not report.mismatches
    _report(
        9, "hypothesis-violating instances match the oracle", ok,
        f"{report.instances_checked} instances, {len(report.mismatches)} mismatches",
    )
