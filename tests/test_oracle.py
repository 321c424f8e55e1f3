import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum.characters import Character, principal, sign_mod4
from charsum.cyclotomic import CycInt, zero
from charsum.errors import WidthCapError
from charsum.evaluator import SumInstance, ring_exponent_for
from charsum.oracle import _low_logs, brute_force, half_sum
from ringref import add, eval_char, from_int, mul, scalar_mul


def test_same_parity_sums_vanish():
    for a, b in ((1, 7), (3, 3), (0, 4), (2, 6)):
        inst = SumInstance(5, a, b, 3)
        assert brute_force(inst, Character(5, 1, 3), Character(5, -1, 5)).is_zero()


def test_tiny_closed_shape():
    # deep A valuation freezes the inner argument at A + B for every odd x
    inst = SumInstance(4, 8, 1, 4)
    chi2 = Character(4, -1, 1)
    got = brute_force(inst, principal(4), chi2)
    assert got == scalar_mul(8, eval_char(chi2, 9, got.r))
    assert brute_force(inst, sign_mod4(4), chi2).is_zero()


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
        assert brute_force(inst, chi1, chi2).is_zero()


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
def test_oracle_matches_independent_reference(case):
    inst, chi1, chi2 = case
    mod = 1 << inst.m
    assert brute_force(inst, chi1, chi2) == _reference_sum(inst, chi1, chi2, range(mod))
    plus = [pow(5, g, mod) for g in range(mod >> 2)]
    assert half_sum(inst, chi1, chi2, 1) == _reference_sum(inst, chi1, chi2, plus)
