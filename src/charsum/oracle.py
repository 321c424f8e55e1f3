"""Ground truth by direct summation, exact in the cyclotomic ring.

Every odd residue mod 2^m is +-5^gamma for gamma = 1..2^(m-2), so the sum
walks gamma once, keeps the character exponents incrementally, and reads the
discrete log of the inner argument from a per-modulus table.  Each term then
costs O(1): one signed increment of one coefficient.  Terms with an even
argument contribute nothing and are skipped.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .characters import Character
from .cyclotomic import CycInt
from .errors import MAX_ORACLE_M, WidthCapError
from .evaluator import SumInstance, ring_exponent_for


@lru_cache(maxsize=16)
def _dlog_table(m: int) -> array:
    """tbl[x >> 1] = gamma for odd x with x = +-5^gamma mod 2^m."""
    mod = 1 << m
    tbl = array("i", [0]) * (mod >> 1)  # gamma < 2^(m-2) <= 2^24 fits 4 bytes
    w = 1
    for gamma in range(1 << (m - 2)):
        tbl[w >> 1] = gamma
        tbl[(mod - w) >> 1] = gamma
        w = w * 5 % mod
    return tbl


def _check_cap(m: int) -> None:
    if m > MAX_ORACLE_M:
        raise WidthCapError(
            f"direct summation capped at m <= {MAX_ORACLE_M} (needs a 2^{m - 1}-entry table)"
        )


def brute_force(inst: SumInstance, chi1: Character, chi2: Character) -> CycInt:
    """The sum, term by term, as an exact element of Z[zeta_{2^r}]."""
    m, a_res, b_res, k = inst.m, inst.A, inst.B, inst.k
    _check_cap(m)
    r = ring_exponent_for(m)
    half = 1 << (r - 1)
    shift = r - (m - 2)
    coeffs = [0] * half
    mod = 1 << m
    order = 1 << (m - 2)
    omask = order - 1
    tbl = _dlog_table(m)
    c1, s1 = chi1.c, chi1.s
    c2, s2 = chi2.c, chi2.s
    fk = pow(5, k, mod)
    pk = 1
    e1 = 0
    if k % 2 == 0:
        # x = -5^gamma feeds the same inner argument as x = +5^gamma
        for _ in range(order):
            pk = pk * fk % mod
            e1 = (e1 + c1) & omask
            y = (a_res * pk + b_res) % mod
            if y & 1:
                v = s2 if y & 2 else 1
                idx = ((e1 + c2 * tbl[y >> 1]) & omask) << shift
                if idx >= half:
                    idx -= half
                    v = -v
                coeffs[idx] += v
                coeffs[idx] += v if s1 == 1 else -v
    else:
        for _ in range(order):
            pk = pk * fk % mod
            e1 = (e1 + c1) & omask
            ap = a_res * pk % mod
            y = ap + b_res
            if y >= mod:
                y -= mod
            if y & 1:
                v = s2 if y & 2 else 1
                idx = ((e1 + c2 * tbl[y >> 1]) & omask) << shift
                if idx >= half:
                    idx -= half
                    v = -v
                coeffs[idx] += v
            y = b_res - ap
            if y < 0:
                y += mod
            if y & 1:
                v = s1 * (s2 if y & 2 else 1)
                idx = ((e1 + c2 * tbl[y >> 1]) & omask) << shift
                if idx >= half:
                    idx -= half
                    v = -v
                coeffs[idx] += v
    return CycInt(r, tuple(coeffs))


def half_sum(inst: SumInstance, chi1: Character, chi2: Character, sign: int = 1) -> CycInt:
    """sum over gamma = 1..2^(m-2) of chi1(5^gamma) chi2(sign*A*5^(gamma k) + B)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m, b_res, k = inst.m, inst.B, inst.k
    _check_cap(m)
    mod = 1 << m
    a_res = inst.A if sign == 1 else (mod - inst.A) % mod
    r = ring_exponent_for(m)
    half = 1 << (r - 1)
    shift = r - (m - 2)
    coeffs = [0] * half
    order = 1 << (m - 2)
    omask = order - 1
    tbl = _dlog_table(m)
    c1 = chi1.c
    c2, s2 = chi2.c, chi2.s
    fk = pow(5, k, mod)
    pk = 1
    e1 = 0
    for _ in range(order):
        pk = pk * fk % mod
        e1 = (e1 + c1) & omask
        y = (a_res * pk + b_res) % mod
        if y & 1:
            v = s2 if y & 2 else 1
            idx = ((e1 + c2 * tbl[y >> 1]) & omask) << shift
            if idx >= half:
                idx -= half
                v = -v
            coeffs[idx] += v
    return CycInt(r, tuple(coeffs))
