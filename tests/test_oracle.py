import random

import pytest

from charsum.characters import Character, eval_char, principal, sign_mod4
from charsum.cyclotomic import CycInt, add, from_int, scalar_mul
from charsum.errors import WidthCapError
from charsum.evaluator import SumInstance
from charsum.oracle import _dlog_table, brute_force, half_sum


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


def test_dlog_table_is_4_byte_and_exact():
    m = 10
    mod = 1 << m
    tbl = _dlog_table(m)
    assert tbl.itemsize == 4 and len(tbl) == mod >> 1
    for gamma in range(1 << (m - 2)):  # up to the largest, 2^(m-2) - 1
        w = pow(5, gamma, mod)
        assert tbl[w >> 1] == tbl[(mod - w) >> 1] == gamma
