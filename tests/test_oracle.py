import functools
import importlib.util
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charsum
from charsum.characters import Character, SumInstance, char_exp
from charsum.cyclotomic import CycInt, ring_exponent_for, zero
from charsum.errors import WidthCapError
from charsum.evaluator import closed_form
from charsum.oracle import _counts, _low_logs, brute_force, half_sum
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


def test_row_step_power_is_linear_in_j():
    # v = 5^(k 2^(h-2)) is 1 mod 2^h and v^j = 1 + j*(v - 1) mod 2^m: the
    # identity that makes each oracle row one arithmetic progression
    rng = random.Random(10)
    for m in range(3, 27):
        h = _low_logs(m)[0]
        mod, n = 1 << m, 1 << (m - h)  # n terms per row
        if m <= 16:
            js = range(n)
        else:
            js = [0, 1, 2, n - 1, *(rng.randrange(n) for _ in range(200))]
        ks = [rng.randrange(1, 1 << 20, 2) for _ in range(3)]  # odd
        ks += [rng.randrange(1, 1 << 12, 2) << t for t in (1, 2, 3)]
        ks += [rng.randint(1, 9) << (m - 2)]  # x^k = 1 for every odd x
        assert 2 * h >= m
        for k in ks:
            v = pow(5, k << (h - 2), mod)
            assert v % (1 << h) == 1
            for j in js:
                assert pow(v, j, mod) == (1 + j * (v - 1)) % mod, (m, k, j)


def test_row_period_counts_equal_the_full_row():
    # a row's exponents start + j*step (j < n), reduced mod 2^r, repeat every
    # per = min(n, 2^r / (step & -step)) terms, and per divides n: counting
    # the first per of them n / per times each gives the full row's counts.
    # Every step the oracle forms is a multiple of 2^(h - drop), so with
    # g = step & -step (2^r for a zero step) per * g = 2^r, and the row puts
    # n * g / 2^r counts on each exponent = start (mod g) and none elsewhere
    rng = random.Random(13)
    seen = set()
    for m in range(3, 27):
        r, (h, uinv, low) = ring_exponent_for(m), _low_logs(m)
        mod, size, n, drop = 1 << m, 1 << r, 1 << (m - h), m - r
        steps = [0, *(1 << j for j in range(r))]  # every period length
        unit = 1 << (h - drop)
        for _ in range(12):  # a row's step as the oracle forms it
            a = (rng.randrange(mod) << rng.randrange(m)) % mod
            b = rng.randrange(1 - a % 2, mod, 2)  # A + B odd
            k = rng.randrange(1, 64) << rng.randrange(3)
            c1 = rng.randint(1, mod >> 2) << rng.randrange(m - 2)
            c2 = rng.randint(1, mod >> 2)
            z = pow(5, k * rng.randrange(1 << (h - 2)), mod)
            mlo = low[(a * z + b) & ((1 << h) - 1)][2]
            pm = z * mlo * (c2 * uinv % (1 << (m - h))) % mod
            v = pow(5, k << (h - 2), mod)
            steps.append(((a * (v - 1) * pm + (c1 << h)) % mod) >> drop)
            assert steps[-1] % unit == 0, (m, steps[-1])
        for step in steps:
            start = rng.randrange(size)
            full = Counter((start + j * step) % size for j in range(n))
            per = min(n, size // (step & -step)) if step else 1
            assert n % per == 0
            collapsed = Counter()
            for j in range(per):
                collapsed[(start + j * step) % size] += n // per
            assert collapsed == full, (m, start, step)
            seen.add(per < n)
            if step % unit == 0:  # the steps the oracle can form
                g = (step or size) & -(step or size)
                assert per * g == size, (m, step)
                s = start % g
                assert full == Counter({s + i * g: n * g // size for i in range(size // g)})
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
    """40 seeded instances at m = 10..18 with A + B odd, cycling through the
    shapes where the row split could slip: odd A (lo = y mod 2^h then runs
    through its full period, so too short a row period shows), even k with
    t = 1..3, k a multiple of 2^(m-2), a principal chi1, s2 = -1 and A = 0.
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
    return cases


@pytest.mark.parametrize("index", range(40))
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


def test_count_vector_matches_per_x_count_on_each_half():
    # the fold cancels counts spread evenly over a residue class mod 2^(r-1)
    # or finer, as on most rows with a nonzero step, so no folded sum sees a
    # wrong count there: compare each half's vector before the fold
    rng = random.Random(18)
    for _ in range(400):
        m = rng.randint(3, 12)
        mod, cmax = 1 << m, 1 << (m - 2)
        a = rng.randrange(mod) >> rng.randrange(m) << rng.randrange(m) & (mod - 1)
        b = rng.randrange(1 - a % 2, mod, 2)  # A + B odd
        inst = SumInstance(m, a, b, rng.randint(1, 40) << rng.randrange(4))
        chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
        chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
        plus = range(1, mod, 4)  # the x = 5^gamma, each once
        for a_res in (a, -a % mod):
            want = per_x_counts(inst, chi1, chi2, plus, a_res)
            assert _counts(inst, chi1, chi2, ((a_res, 0),)) == want, (inst, chi1, chi2, a_res)


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
