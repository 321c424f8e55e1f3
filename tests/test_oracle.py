import functools
import importlib.util
import os
import random
import re
import subprocess
import sys
from array import array
from collections import Counter
from operator import sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charsum
import charsum.oracle as oracle
from charsum.characters import Character, SumInstance, char_exp
from charsum.cyclotomic import CycInt, ring_exponent_for
from charsum.errors import MAX_ORACLE_M, WidthCapError
from charsum.evaluator import closed_form, derive, normalize
from charsum.oracle import (
    _LEAF,
    _SPAN,
    _counts,
    _fold,
    _low_logs,
    brute_force,
    brute_terms,
    half_sum,
)
from charsum.sweep import sample_records
from ringref import (
    add,
    counted_sum,
    eval_char,
    from_int,
    mul,
    per_x_counts,
    principal,
    scalar_mul,
    sign_mod4,
    zero,
)


def test_same_parity_sums_vanish():
    for a, b in ((1, 7), (3, 3), (0, 4), (2, 6)):
        inst = SumInstance(5, a, b, 3)
        assert not any(brute_force(inst, Character(5, 1, 3), Character(5, -1, 5)).coeffs)


def test_tiny_closed_shape():
    # deep A valuation freezes the inner argument at A + B for every odd x
    inst = SumInstance(4, 8, 1, 4)
    chi2 = Character(4, -1, 1)
    got = brute_force(inst, principal(4), chi2)
    assert got == scalar_mul(8, eval_char(chi2, 9, got.r))
    assert not any(brute_force(inst, sign_mod4(4), chi2).coeffs)


def test_frozen_worked_instance():
    got = brute_force(SumInstance(7, 2, 1, 1), Character(7, 1, 2), Character(7, 1, 1))
    want = [0] * 16
    want[3] = 16  # 16 * zeta_32^3
    assert got == CycInt(5, tuple(want))


def test_imprimitive_chi2_with_primitive_chi1_vanishes():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(4, 9)
        cmax = 1 << (m - 2)
        chi1 = Character(m, rng.choice((1, -1)), rng.randrange(1, cmax, 2))
        if cmax < 2:
            continue
        chi2 = Character(m, rng.choice((1, -1)), rng.randrange(2, cmax + 1, 2))
        n = rng.randint(1, m)
        a = 0 if n >= m else (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        inst = SumInstance(m, a, rng.randrange(1, 1 << m, 2), rng.randint(1, 12))
        assert not any(brute_force(inst, chi1, chi2).coeffs)


@pytest.mark.parametrize("seed", range(4))
def test_decomposition_identities(seed):
    # whole sum against the two half sums, exactly in the ring
    rng = random.Random(seed)
    for _ in range(60):
        m = rng.randint(3, 9)
        mod = 1 << m
        inst = SumInstance(m, rng.randrange(mod), rng.randrange(mod), rng.randint(1, 20))
        chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, mod >> 2))
        chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, mod >> 2))
        whole = brute_force(inst, chi1, chi2)
        plus = half_sum(inst, chi1, chi2, 1)
        if inst.k % 2 == 0:
            assert whole == scalar_mul(1 + chi1.s, plus)
        else:
            minus = half_sum(inst, chi1, chi2, -1)
            assert whole == add(plus, scalar_mul(chi1.s, minus))


def test_half_sum_tiny_shape():
    inst = SumInstance(4, 8, 1, 4)
    chi2 = Character(4, -1, 1)
    got = half_sum(inst, principal(4), chi2, 1)
    assert got == scalar_mul(4, eval_char(chi2, 9, got.r))


def test_half_sum_sign_validation():
    with pytest.raises(ValueError):
        half_sum(SumInstance(4, 2, 1, 1), principal(4), Character(4, 1, 1), 0)


def test_oracle_width_cap():
    with pytest.raises(WidthCapError):
        brute_force(SumInstance(27, 2, 1, 1), Character(27, 1, 2), Character(27, 1, 1))


def test_ring_matches_small_moduli():
    # m = 3 still lives in the eighth-root ring; x^2 = 1 mod 8 pins the
    # inner argument at 3, so the principal-chi1 sum is 4 * chi2(3) = -4
    got = brute_force(SumInstance(3, 2, 1, 2), principal(3), Character(3, 1, 1))
    assert got.r == 3
    assert got == from_int(-4, 3)


def _row_log(m, n, t):
    """log2 of the oracle's row period P at v2(A) = n (n = m for A = 0) and
    v2(k) = t: P = 2^max(V - 2 - t, 0) with V = ceil((m - n)/2)."""
    return max(-(-(m - n) // 2) - 2 - t, 0)


def _shape(rng, m, n, t):
    """(A, k) with v2(A) = n (A = 0 for n = m) and v2(k) = t, k < 2^20."""
    a = 0 if n == m else (rng.randrange(1, 1 << m, 2) << n) % (1 << m)
    return a, rng.randrange(1, 1 << (20 - t), 2) << t


def test_row_step_power_is_linear_in_j():
    # v = 5^(kP) has v2(v - 1) = 2 + t + log2 P >= V, so along a row
    # A*v^j = A*(1 + j*(v - 1)) (mod 2^m), and the inner argument is fixed
    # mod 2^h: the identities that make each oracle row one arithmetic
    # progression read with one table lookup.  Every j is tried at m <= 16
    # on rows of at most 2^8 terms, which covers the rows of 2^(m-h) terms
    # at P = 2^(h-2); longer rows get sampled j, 200 of them at P = 2^(h-2)
    rng = random.Random(10)
    for m in range(3, 27):
        h = _low_logs(m)[0]
        mod, hmask = 1 << m, (1 << h) - 1
        assert 2 * h >= m
        for n in range(m + 1):
            shapes = [_shape(rng, m, n, t) for t in range(5) for _ in range(2)]
            a = shapes[0][0]
            shapes.append((a, rng.randint(1, 9) << (m - 2)))  # x^k = 1 for every odd x
            for a, k in shapes:
                t = (k & -k).bit_length() - 1
                p = _row_log(m, n, t)
                assert p <= h - 2 and 2 + t + p >= -(-(m - n) // 2)
                per_row = 1 << (m - 2 - p)
                if m <= 16 and per_row <= 1 << 8:
                    js = range(per_row)
                else:
                    extra = 200 if p == h - 2 else 24
                    js = [0, 1, 2, per_row - 1, *(rng.randrange(per_row) for _ in range(extra))]
                b = rng.randrange(1 - a % 2, mod, 2)
                v = pow(5, k << p, mod)
                assert (v - 1) % (1 << min(2 + t + p, m)) == 0
                g = rng.randrange(1 << p)
                y0 = (a * pow(5, k * g, mod) + b) & hmask
                for j in js:
                    vj = pow(v, j, mod)
                    assert a * vj % mod == a * (1 + j * (v - 1)) % mod, (m, n, t, k, j)
                    y = a * pow(5, k * (g + (j << p)), mod) + b
                    assert y & hmask == y0, (m, n, t, k, g, j)


def test_row_period_counts_equal_the_full_row():
    # a row's exponents start + j*step (j < per_row = 2^(m-2)/P), reduced
    # mod 2^r, repeat every per = min(per_row, 2^r / (step & -step)) terms,
    # and per divides per_row: counting the first per of them per_row / per
    # times each gives the full row's counts.  Every step the oracle forms is
    # a multiple of unit = 2^(log2 P + 2 - drop), so with g = step & -step
    # (2^r for a zero step) per * g = 2^r, and the row puts per_row * g / 2^r
    # counts on each exponent = start (mod g) and none elsewhere
    rng = random.Random(13)
    seen = set()
    for m in range(3, 27):
        r, (h, uinv, low) = ring_exponent_for(m), _low_logs(m)
        mod, size, drop = 1 << m, 1 << r, m - r
        formed = {}  # log2 P -> up to 12 steps the oracle formed at that period
        for n in range(m + 1):
            for t in range(5):
                p = _row_log(m, n, t)
                unit = 1 << (p + 2 - drop)
                for _ in range(2):  # a row's step as the oracle forms it
                    a, k = _shape(rng, m, n, t)
                    b = rng.randrange(1 - a % 2, mod, 2)  # A + B odd
                    c1 = rng.randint(1, mod >> 2) << rng.randrange(m - 2)
                    c2 = rng.randint(1, mod >> 2)
                    z = pow(5, k * rng.randrange(1 << p), mod)
                    mlo = low[(a * z + b) & ((1 << h) - 1)][2]
                    pm = z * mlo * (c2 * uinv % (1 << (m - h))) % mod
                    v = pow(5, k << p, mod)
                    step = ((a * (v - 1) * pm + (c1 << (p + 2))) % mod) >> drop
                    assert step % unit == 0, (m, n, t, step)
                    if len(formed.setdefault(p, [])) < 12:
                        formed[p].append(step)
        for p, oracle_steps in formed.items():
            per_row, unit = 1 << (m - 2 - p), 1 << (p + 2 - drop)
            if per_row > max(1 << 12, 1 << (m - h)):
                # rows of 2^(m-h) terms at P = 2^(h-2) are always compared;
                # on longer ones the step's divisibility above is the check
                continue
            steps = [0, *(1 << j for j in range(r))]  # every period length
            steps += oracle_steps
            for step in steps:
                start = rng.randrange(size)
                full = Counter((start + j * step) % size for j in range(per_row))
                per = min(per_row, size // (step & -step)) if step else 1
                assert per_row % per == 0
                collapsed = Counter()
                for j in range(per):
                    collapsed[(start + j * step) % size] += per_row // per
                assert collapsed == full, (m, p, start, step)
                seen.add(per < per_row)
                if step % unit == 0:  # the steps the oracle can form
                    g = (step or size) & -(step or size)
                    assert per * g == size, (m, p, step)
                    s = start % g
                    assert full == Counter(
                        {s + i * g: per_row * g // size for i in range(size // g)}
                    )
    assert seen == {True, False}


def _split_log(y, m):
    """(negative, L) with y = (-1)^negative * 5^L mod 2^m, read from the split table."""
    h, uinv, low = _low_logs(m)
    negative, l, mlo = low[y & ((1 << h) - 1)]
    prod = y * mlo % (1 << m)
    assert prod & ((1 << h) - 1) == 1  # y * M = 1 + 2^h * z
    return negative, l + ((prod >> h) * uinv % (1 << (m - h)) << (h - 2))


def _assert_split_log(y, m):
    mod = 1 << m
    negative, big_l = _split_log(y, m)
    assert negative == (y % 4 == 3)
    assert 0 <= big_l < 1 << (m - 2)
    assert pow(5, big_l, mod) == (mod - y if negative else y)


def test_split_dlog_exhaustive_small_moduli():
    for m in range(3, 17):
        h, _, low = _low_logs(m)
        assert 2 * h >= m and sum(e is not None for e in low) == 1 << (h - 1)
        for y in range(1, 1 << m, 2):
            _assert_split_log(y, m)


def test_split_dlog_sampled_large_moduli():
    rng = random.Random(26)
    for m in range(17, 27):
        for y in (1, (1 << m) - 1, *(rng.randrange(1, 1 << m, 2) for _ in range(2000))):
            _assert_split_log(y, m)


@st.composite
def oracle_cases(draw):
    m = draw(st.integers(3, 9))
    mod = 1 << m
    cmax = mod >> 2
    a = draw(st.one_of(st.just(0), st.integers(0, mod - 1)))
    b = draw(st.integers(0, mod - 1))
    k = draw(st.integers(1, 24))
    c1 = draw(st.one_of(st.just(cmax), st.integers(1, cmax)))  # cmax: principal if s1 = 1
    chi1 = Character(m, draw(st.sampled_from((1, -1))), c1)
    chi2 = Character(m, draw(st.sampled_from((1, -1))), draw(st.integers(1, cmax)))
    return SumInstance(m, a, b, k), chi1, chi2


def _reference_sum(inst, chi1, chi2, xs):
    """sum of chi1(x) chi2(A x^k + B) over xs, by eval_char and ring arithmetic only."""
    r = ring_exponent_for(inst.m)
    total = zero(r)
    for x in xs:
        y = inst.A * pow(x, inst.k, 1 << inst.m) + inst.B
        total = add(total, mul(eval_char(chi1, x, r), eval_char(chi2, y, r)))
    return total


@settings(max_examples=300)
@given(oracle_cases())
@example((SumInstance(6, 3, 5, 3), Character(6, 1, 3), Character(6, -1, 5)))  # A + B even
@example((SumInstance(7, 0, 5, 3), Character(7, -1, 3), Character(7, 1, 1)))  # A = 0
@example((SumInstance(8, 6, 3, 5), principal(8), Character(8, -1, 7)))  # principal chi1
@example((SumInstance(5, 2, 1, 4), Character(5, -1, 3), Character(5, 1, 1)))  # even k, s1 = -1
@example((SumInstance(3, 2, 1, 2), principal(3), Character(3, 1, 1)))  # smallest ring
@example((SumInstance(4, 1, 0, 1), Character(4, -1, 1), Character(4, -1, 3)))  # one row, drop 1
@example((SumInstance(5, 1, 0, 1), Character(5, -1, 1), Character(5, -1, 7)))  # two rows, drop 2
# zero-step rows, non-principal chi1: c1 << h = 0 (mod 2^m), and A = 0 or
# v2(A) = h, so A*(v - 1) = 0 (mod 2^m); c1 = 2^(m-h) = 16 is the least such c1
@example((SumInstance(8, 0, 3, 5), Character(8, -1, 64), Character(8, 1, 5)))
@example((SumInstance(8, 16, 1, 1), Character(8, 1, 16), Character(8, 1, 1)))
# k a multiple of 2^(m-2) with odd A: x^k = 1, so a row steps by c1 << h alone
@example((SumInstance(8, 3, 2, 64), principal(8), Character(8, 1, 5)))
@example((SumInstance(7, 5, 0, 96), Character(7, -1, 32), Character(7, -1, 3)))
# one row per half: m = 3 (2 terms a row) and m = 4 (4 terms a row), odd k;
# a nonzero step, then a zero step with a nonzero sum
@example((SumInstance(3, 1, 0, 3), Character(3, -1, 1), Character(3, -1, 2)))
@example((SumInstance(3, 1, 0, 3), Character(3, -1, 1), Character(3, -1, 1)))
@example((SumInstance(4, 1, 0, 3), Character(4, -1, 1), Character(4, -1, 3)))
# Large shapes with c1 = 2^(n+t) * odd: their rows of 16 terms repeat every
# 1 or 2 terms, so each exponent of a period counts 16 or 8 times
@example((SumInstance(9, 2, 1, 1), Character(9, 1, 2), Character(9, 1, 1)))
@example((SumInstance(8, 2, 1, 3), Character(8, -1, 2), Character(8, 1, 3)))
def test_oracle_matches_independent_reference(case):
    inst, chi1, chi2 = case
    mod = 1 << inst.m
    assert brute_force(inst, chi1, chi2) == _reference_sum(inst, chi1, chi2, range(mod))
    plus = [pow(5, g, mod) for g in range(mod >> 2)]
    assert half_sum(inst, chi1, chi2, 1) == _reference_sum(inst, chi1, chi2, plus)


@functools.cache
def _boundary_cases():
    """52 seeded instances at m = 10..18 with A + B odd, cycling through the
    shapes where the row split could slip: odd A (lo = y mod 2^h then runs
    through its full period, so too short a row period shows), even k with
    t = 1..3, k a multiple of 2^(m-2), a principal chi1, s2 = -1 and A = 0.
    The last 12 have n = v2(A) >= 2, from 2 up to m - 3, with t = 0..2, where
    rows grow to 2^(m-2)/P terms with P = 2^max(ceil((m - n)/2) - 2 - t, 0).
    Each but the A = 0 ones is redrawn until its closed form is nonzero, so
    the counts do not cancel."""
    rng = random.Random(2026)
    cases = []
    ms = [10] * 8 + [11] * 7 + [12] * 6 + [13] * 6 + [14] * 5 + [15] * 3 + [16] * 3 + [18, 17]
    for i, m in enumerate(ms):
        mod, cmax = 1 << m, 1 << (m - 2)
        shape = i % 8
        while True:
            k = rng.randrange(1, 40, 2)
            if shape in (1, 2, 3):
                k <<= shape
            elif shape == 4:
                k *= cmax  # x^k = 1: only a principal chi1 leaves the sum nonzero
            a = 0 if shape == 7 else rng.randrange(shape == 0, mod, 1 + (shape == 0))
            b = rng.randrange(1 - a % 2, mod, 2)
            s1 = 1 if k % 2 == 0 else rng.choice((1, -1))  # even k with s1 = -1 sums to 0
            chi1 = principal(m) if shape in (4, 5) else Character(m, s1, rng.randint(1, cmax))
            s2 = -1 if shape == 6 else rng.choice((1, -1))
            case = (SumInstance(m, a, b, k), chi1, Character(m, s2, rng.randint(1, cmax)))
            if shape == 7 or closed_form(*case).terms:
                cases.append(case)
                break
    for i in range(12):
        m = 10 + i % 8
        mod, cmax = 1 << m, 1 << (m - 2)
        n, t = (2, 3, 4, 6, m // 2, m - 3)[i % 6], i % 3
        while True:
            a = (rng.randrange(1, mod, 2) << n) % mod
            k = rng.randrange(1, 40, 2) << t
            b = rng.randrange(1, mod, 2)
            s1 = 1 if t else rng.choice((1, -1))
            chi1 = Character(m, s1, rng.randint(1, cmax))
            chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
            case = (SumInstance(m, a, b, k), chi1, chi2)
            if closed_form(*case).terms:
                cases.append(case)
                break
    return cases


@pytest.mark.parametrize("index", range(52))
def test_oracle_matches_per_x_count_at_row_boundaries(index):
    inst, chi1, chi2 = _boundary_cases()[index]
    mod = 1 << inst.m
    odd = range(1, mod, 2)
    plus = range(1, mod, 4)  # the x = 5^gamma, each once
    assert brute_force(inst, chi1, chi2) == counted_sum(inst, chi1, chi2, odd, inst.A)
    assert half_sum(inst, chi1, chi2, 1) == counted_sum(inst, chi1, chi2, plus, inst.A)
    assert half_sum(inst, chi1, chi2, -1) == counted_sum(inst, chi1, chi2, plus, mod - inst.A)


# An odd c1 with an even A: every row steps by exactly 2^(h - drop), the
# smallest residue class, so each row is one full period of n terms (the
# oracle's worst case; such sums vanish).  Then one call whose -A half has
# rows on classes mod 2^8, 2^9 and 2^r = 2^10, the last with a zero step.
_FULL_PERIOD_AND_MIXED_CASES = [
    (SumInstance(12, 2, 1, 13), Character(12, 1, 1), Character(12, 1, 1)),
    (SumInstance(16, 6, 3, 7), Character(16, -1, 3), Character(16, -1, 5)),
    (SumInstance(12, 2970, 3601, 13), Character(12, -1, 300), Character(12, 1, 210)),
]


@pytest.mark.parametrize("case", _FULL_PERIOD_AND_MIXED_CASES)
def test_oracle_matches_per_x_count_on_full_periods_and_mixed_classes(case):
    inst, chi1, chi2 = case
    mod = 1 << inst.m
    odd = range(1, mod, 2)
    plus = range(1, mod, 4)
    assert brute_force(inst, chi1, chi2) == counted_sum(inst, chi1, chi2, odd, inst.A)
    assert half_sum(inst, chi1, chi2, 1) == counted_sum(inst, chi1, chi2, plus, inst.A)
    assert half_sum(inst, chi1, chi2, -1) == counted_sum(inst, chi1, chi2, plus, mod - inst.A)


def _shape_cases(m):
    """Seeded (inst, chi1, chi2) at modulus m with A + B odd, one per 2-adic
    shape: every n = v2(A) in 0..m (A = 0 for n = m) with t = v2(k) in 0..3
    and with k a multiple of 2^(m-2).  They reach every row period of the
    oracle at m, from one row per half to 2^(h-2).  chi1 is principal-signed
    (s1 = 1) for even k, where brute_force weights its one half by 2."""
    rng = random.Random(27 + m)
    mod, cmax = 1 << m, 1 << (m - 2)
    cases = []
    for n in range(m + 1):
        for t in (0, 1, 2, 3, m - 2):
            a, k = _shape(rng, m, n, t)
            b = rng.randrange(1 - a % 2, mod, 2)
            s1 = 1 if t else rng.choice((1, -1))
            chi1 = Character(m, s1, rng.randint(1, cmax))
            chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
            cases.append((SumInstance(m, a, b, k), chi1, chi2))
    return cases


def test_count_vector_matches_per_x_count_on_each_half():
    # the fold cancels counts spread evenly over a residue class mod 2^(r-1)
    # or finer, as on most rows with a nonzero step, so no folded sum sees a
    # wrong count there: compare each half's vector before the fold, on 400
    # random instances and on every 2-adic shape at m = 3..12, whose row
    # periods P = 1, 2, ..., 2^(h-2) must all be reached
    rng = random.Random(18)
    cases = []
    for _ in range(400):
        m = rng.randint(3, 12)
        mod, cmax = 1 << m, 1 << (m - 2)
        a = rng.randrange(mod) >> rng.randrange(m) << rng.randrange(m) & (mod - 1)
        b = rng.randrange(1 - a % 2, mod, 2)  # A + B odd
        inst = SumInstance(m, a, b, rng.randint(1, 40) << rng.randrange(4))
        chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
        chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
        cases.append((inst, chi1, chi2))
    for m in range(3, 13):
        cases += _shape_cases(m)
    periods = set()
    for inst, chi1, chi2 in cases:
        m, a, k = inst.m, inst.A, inst.k
        n = (a & -a).bit_length() - 1 if a else m
        periods.add((m, _row_log(m, n, (k & -k).bit_length() - 1)))
        mod = 1 << m
        plus = range(1, mod, 4)  # the x = 5^gamma, each once
        for a_res in (a, -a % mod):
            want = per_x_counts(inst, chi1, chi2, plus, a_res)
            got = list(_counts(inst, chi1, chi2, ((a_res, 0),), 1))
            assert got == want, (inst, chi1, chi2, a_res)
        if k % 2 == 0 and chi1.s == 1:
            # x and -x give the same term, so brute_force tallies the
            # x = 5^gamma half with weight 2: every odd x, each once
            want = per_x_counts(inst, chi1, chi2, range(1, mod, 2), a)
            assert list(_counts(inst, chi1, chi2, ((a, 0),), 2)) == want, (inst, chi1, chi2)
    assert periods == {(m, p) for m in range(3, 13) for p in range(_low_logs(m)[0] - 1)}


def test_counts_makes_one_table_lookup_per_row(monkeypatch):
    # each row looks up its low residue once, so _counts makes halves * P
    # lookups, P = 2^max(ceil((m - n)/2) - 2 - t, 0): this pins the row
    # period to the 2-adic shape, which the count vectors alone do not see
    lookups = []
    real = charsum.oracle._low_logs

    class CountingTable:
        def __init__(self, tbl):
            self.tbl = tbl

        def __getitem__(self, lo):
            lookups.append(lo)
            return self.tbl[lo]

    def counting_low_logs(m):
        h, uinv, tbl = real(m)
        return h, uinv, CountingTable(tbl)

    monkeypatch.setattr(charsum.oracle, "_low_logs", counting_low_logs)
    rng = random.Random(28)
    for m in range(3, 17):
        mod, cmax = 1 << m, 1 << (m - 2)
        for n in range(m + 1):
            for t in range(5):
                a, k = _shape(rng, m, n, t)
                inst = SumInstance(m, a, rng.randrange(1 - a % 2, mod, 2), k)
                chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
                chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
                for halves in (((a, 0),), ((a, 0), (-a % mod, 1))):
                    lookups.clear()
                    _counts(inst, chi1, chi2, halves, 1)
                    assert len(lookups) == len(halves) << _row_log(m, n, t), (inst, halves)
    # criterion 8's instance (n = 1, t = 0) keeps 2^(h-2) rows per half, so
    # the oracle/closed ratio that criterion bounds stays where it was
    lookups.clear()
    brute_terms(SumInstance(24, 2, 1, 1), Character(24, 1, 2), Character(24, 1, 1))
    assert len(lookups) == 2 << (real(24)[0] - 2) == 2 << 10


def _plain_fold(cnt):
    """The count vector folded as one map(sub, ...) pass, nonzero entries kept."""
    half = len(cnt) >> 1
    return tuple((e, x) for e, x in enumerate(map(sub, cnt[:half], cnt[half:])) if x)


def _differing(half, slots, base=7):
    """A 2 * half-slot count vector whose halves differ exactly at slots."""
    cnt = array("i", range(base, base + half)) * 2
    for e in slots:
        cnt[e + half] -= 1 + e % 5
    return cnt


_WIDE = 1 << 15  # a half wider than _SPAN, so the fold splits before comparing


@pytest.mark.parametrize("half", [4, 32, 64, 1 << 10, _WIDE])
@pytest.mark.parametrize("where", [
    "first", "last", "leaf-boundary", "span-boundary", "middle", "every", "nowhere",
])
def test_fold_matches_plain_fold_on_hand_made_vectors(half, where):
    slots = {
        "first": [0],
        "last": [half - 1],
        "leaf-boundary": [_LEAF - 1, _LEAF],  # adjacent, in two leaves
        "span-boundary": [_SPAN - 1, _SPAN],  # adjacent, in two compared ranges
        "middle": [half // 2 - 1, half // 2],  # either side of the first split
        "every": range(half),  # the dense worst case
        "nowhere": [],
    }[where]
    cnt = _differing(half, [e for e in slots if e < half])
    got = _fold(cnt, half)
    assert got == _plain_fold(cnt)
    assert [e for e, _ in got] == sorted(e for e in set(slots) if e < half)


def test_fold_matches_plain_fold_on_sampled_records():
    seen = set()
    for rec in sample_records(19, 3, 18, 400):
        m, a, b, k, c1, s1, c2, s2 = rec
        if (a + b) % 2 == 0:
            continue  # the parity hoist: no count vector
        inst, chi1, chi2 = SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2)
        minus = (-a % (1 << m), 1 << (ring_exponent_for(m) - 1) if s1 == -1 else 0)
        for halves in (((a, 0),), ((a, 0), minus)):
            cnt = _counts(inst, chi1, chi2, halves, 1)
            want = _plain_fold(cnt)
            assert _fold(cnt, len(cnt) >> 1) == want, rec
            seen.add((m > 16, bool(want)))
        if k % 2:
            assert brute_terms(inst, chi1, chi2) == want, rec
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@st.composite
def count_vectors(draw):
    """A 2^r-slot count vector, r = 1..9, whose upper half is the lower half
    changed on a drawn set of slots (possibly none, possibly all)."""
    half = 1 << draw(st.integers(0, 8))
    slot = st.integers(-(1 << 31), (1 << 31) - 1)
    lower = draw(st.lists(slot, min_size=half, max_size=half))
    upper = list(lower)
    for e in draw(st.sets(st.integers(0, half - 1), max_size=half)):
        upper[e] = draw(slot)
    return array("i", lower + upper)


@given(count_vectors())
def test_fold_matches_plain_fold_on_random_vectors(cnt):
    assert _fold(cnt, len(cnt) >> 1) == _plain_fold(cnt)


def test_largest_slot_count_fits_the_count_vector():
    # with both characters trivial and even k, slot 0 holds every odd x:
    # 2^(m-1), the most any slot can hold; at the cap it must fit the 4-byte
    # signed slot, so that raising the cap fails here and not in a user's call
    m = 9
    trivial = Character(m, 1, 1 << (m - 2))
    cnt = _counts(SumInstance(m, 2, 1, 4), trivial, trivial, ((2, 0),), 2)
    assert cnt[0] == 1 << (m - 1) and not any(cnt[1:])
    array(cnt.typecode, [1 << (MAX_ORACLE_M - 1)])  # OverflowError if it does not fit


def test_oracle_digest_is_pinned():
    # any oracle change that alters one output on 2000 seeded instances
    # (m = 3..17, brute_force and both half_sum signs) changes this digest
    path = Path(__file__).resolve().parent.parent / "scripts" / "oracle_digest.py"
    spec = importlib.util.spec_from_file_location("oracle_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest(2000) == "e99e0fad28a3b6bd8e4933669c3bbd03cbf86cd5eaa70075f193dc980aeaa514"


# ---------------------------------------------------------------------------
# independence from the closed form


def test_importing_the_oracle_loads_no_evaluator_code():
    script = (
        "import sys, charsum.oracle; "
        "print(sorted(m for m in sys.modules if m.startswith('charsum')))"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "charsum.evaluator" not in proc.stdout, proc.stdout


def test_oracle_never_calls_the_closed_forms_logs(monkeypatch):
    # replace dlog5 and char_exp under every name a loaded charsum module holds
    calls = Counter()

    def counting(name, func):
        def counted(*args):
            calls[name] += 1
            return func(*args)
        return counted

    for module in [m for n, m in sys.modules.items() if n.startswith("charsum.")]:
        for name in ("dlog5", "char_exp"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for m, a, b, k, c1, s1, c2, s2 in sample_records(17, 3, 14, 1300):
        inst, chi1, chi2 = SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2)
        brute_force(inst, chi1, chi2)
        half_sum(inst, chi1, chi2, 1)
        half_sum(inst, chi1, chi2, -1)
    assert not calls
    # the counters are live: the closed form takes its logs through them
    closed_form(SumInstance(7, 2, 1, 1), Character(7, 1, 2), Character(7, 1, 1))
    assert calls["dlog5"] or calls["char_exp"]


def _package_calls(func, *args) -> tuple:
    """func(*args), and the (module, qualified name) of every charsum Python
    function it calls, as sys.setprofile sees them.  A cache hit runs no
    Python frame."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_globals.get("__name__"), frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        out = func(*args)
    finally:
        sys.setprofile(None)
    return out, Counter({k: n for k, n in seen.items() if str(k[0]).startswith("charsum")})


def _clear_package_caches() -> None:
    """Empty every lru_cache in the package, so that the recorder sees each
    cached function's first call again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("charsum"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# every case tag, regime and normalize path, from even and odd A
_SHARED_RECORDS = list(sample_records(29, 3, 16, 600))


def test_closed_form_never_calls_the_oracle():
    # the closed form's dlog5 and the oracle's _low_logs read the same 2-adic
    # identity; the two must stay separate code.  A cache hit records no call
    # of the cached function, so every lru_cache in the package starts empty.
    _clear_package_caches()
    seen, cases, regimes, paths = Counter(), set(), set(), set()
    for m, a, b, k, c1, s1, c2, s2 in _SHARED_RECORDS:
        inst, chi1, chi2 = SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2)
        cf, calls = _package_calls(closed_form, inst, chi1, chi2)
        seen += calls
        cases.add(cf.case)
        norm = normalize(inst, chi1, chi2)
        paths.add(("reduced" if norm.kind == "standard" and norm.scale_log2 else norm.kind, a & 1))
        if norm.kind == "standard":
            regimes.add(derive(norm.inst).regime)
    assert cases == {"ZeroParity", "ZeroImprimitive", "ZeroCondition", "LargeEven", "LargeOdd",
                     "Reduced", "EdgeT2", "EdgeT3", "MidRange", "Tiny"}
    assert regimes == {"Tiny", "EdgeT2", "EdgeT3", "MidRange", "Large"}
    # every normalize outcome, from an even A and from an odd A (swapped first)
    assert paths == {(kind, odd) for kind in ("zero", "standard", "reduced", "direct") for odd in (0, 1)}
    assert not [k for k in seen if k[0] == "charsum.oracle"], sorted(seen)
    # criterion 3 squares each Large result with abs2_terms and reads its n and
    # t with v2; the closed form checks its own magnitude and calls neither
    assert not {("charsum.cyclotomic", "abs2_terms"), ("charsum.ring2adic", "v2")} & set(seen)
    # the recorder is live on both routes: the closed form's own layers show,
    # and so does the oracle when it is the one called
    assert seen["charsum.ring2adic", "dlog5"] and seen["charsum.evaluator", "evaluate_large"]
    assert seen["charsum.ring2adic", "cofactor_ratio"] and seen["charsum.characters", "char_exp"]
    inst, chi1, chi2 = SumInstance(9, 2, 1, 1), Character(9, 1, 2), Character(9, 1, 1)
    assert ("charsum.oracle", "brute_terms") in _package_calls(brute_terms, inst, chi1, chi2)[1]


# ---------------------------------------------------------------------------
# what both sides of each acceptance criterion share


def _inputs(rec):
    m, a, b, k, c1, s1, c2, s2 = rec
    return SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2)


_COUNTED_M = 10  # counted_sum makes two char_exp calls per x: it runs on m <= 10


def _counted_halves(rec):
    if rec[0] > _COUNTED_M:
        return []
    inst, chi1, chi2 = _inputs(rec)
    plus, mod = range(1, 1 << inst.m, 4), 1 << inst.m
    return [counted_sum(inst, chi1, chi2, plus, sign * inst.A % mod) for sign in (1, -1)]


# Each side of a criterion as a route from a raw sample record: the records
# are built inside the recorded call, so their checks count as called.
_ROUTES = {
    "closed_form": lambda rec: closed_form(*_inputs(rec)),
    "ClosedForm.value": lambda rec: closed_form(*_inputs(rec)).value(),
    "brute_terms": lambda rec: brute_terms(*_inputs(rec)),
    "brute_force": lambda rec: brute_force(*_inputs(rec)),
    "half_sum": lambda rec: [half_sum(*_inputs(rec), sign) for sign in (1, -1)],
    "ringref.counted_sum": _counted_halves,
}

_CHECKS = {("charsum.characters", "SumInstance.__new__"), ("charsum.characters", "Character.__new__")}
_RING = {("charsum.cyclotomic", "ring_exponent_for")}
_CYCINT = {("charsum.cyclotomic", "CycInt.__new__")}
_DENSE = _CYCINT | {("charsum.cyclotomic", "CycInt.from_terms")}
_SUMMATION = {("charsum.oracle", f) for f in ("_check_cap", "_sum", "_low_logs", "_counts", "_fold")}
_SWEEP = {"sweep._compare", "_pool_map"}

# The README criteria table's "shared by both sides" column, one entry per
# row that compares two routes: (criterion, route, route, the package
# functions both routes call, the checker code that reads both sides).  A
# defect in any of them can hide from that criterion.
SHARED = (
    (1, "closed_form", "brute_terms", _CHECKS | _RING, _SWEEP),
    (2, "closed_form", "brute_terms", _CHECKS | _RING, _SWEEP),
    (4, "brute_force", "half_sum", _CHECKS | _RING | _DENSE | _SUMMATION, set()),
    (4, "half_sum", "ringref.counted_sum", _CHECKS | _RING | _CYCINT, set()),
    (8, "ClosedForm.value", "brute_force", _CHECKS | _RING | _DENSE, set()),
    (9, "closed_form", "brute_terms", _CHECKS | _RING, _SWEEP),
)


def _shared_calls(records) -> tuple[dict, list]:
    """The package functions each route calls on records, recorded from
    emptied caches, and the SHARED entries whose two routes call other
    functions in common than the entry names, each with what they share."""
    calls = {}
    for name, route in _ROUTES.items():
        _clear_package_caches()
        seen = Counter()
        for rec in records:
            seen += _package_calls(route, rec)[1]
        calls[name] = set(seen)
    return calls, [
        (num, left, right, sorted(calls[left] & calls[right]))
        for num, left, right, shared, _ in SHARED
        if calls[left] & calls[right] != shared
    ]


def _spelled(qualname: str) -> str:
    """A recorded function as the README names it: a class for its __new__."""
    return qualname.removesuffix(".__new__")


def test_both_sides_share_exactly_the_readme_column():
    calls, mismatches = _shared_calls(_SHARED_RECORDS)
    assert not mismatches
    # the recorder is live on a cleared run: the cached dlog tables show
    for name in ("_log_table", "_log_width"):
        assert ("charsum.ring2adic", name) in calls["closed_form"]
        assert ("charsum.ring2adic", name) in calls["ringref.counted_sum"]
    assert ("charsum.oracle", "_low_logs") in calls["brute_terms"]
    # the README table names the same functions, row by row
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if len(cells) == 6 and cells[1].isdigit():
            rows.setdefault(int(cells[1]), []).append(set(re.findall(r"`([^`]+)`", cells[4])))
    for num, _, _, shared, checker in SHARED:
        assert rows[num].pop(0) == {_spelled(q) for _, q in shared} | checker, num
    assert not any(rows[num] for num, *_ in SHARED)


def test_shared_code_check_sees_an_oracle_that_calls_char_exp(monkeypatch):
    # teeth: an oracle that takes one log per count vector from char_exp
    # shares it (and dlog5) with the closed form and with the per-x count,
    # and every row of the check reports it
    counts = oracle._counts

    def leaky_counts(inst, chi1, chi2, halves, weight):
        char_exp(chi2, 1, ring_exponent_for(inst.m))
        return counts(inst, chi1, chi2, halves, weight)

    monkeypatch.setattr(oracle, "_counts", leaky_counts)
    mismatches = _shared_calls(_SHARED_RECORDS)[1]
    assert len(mismatches) == len(SHARED)
    assert all(("charsum.characters", "char_exp") in shared for *_, shared in mismatches)
