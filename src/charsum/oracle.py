"""Ground truth by direct summation, exact in the cyclotomic ring.

Every odd x mod 2^m is +-5^gamma for gamma = 0..2^(m-2)-1.  For odd k the
x = -5^gamma half of the sum is the x = +5^gamma half with -A in place of A,
times chi1(-1); for even k the two halves feed the same inner argument.  So
`brute_force` and `half_sum` both run one loop, `_sum`, over gamma: each term
adds 1 to the count of its full exponent in Z/2^r, and the counts fold onto
the power basis once at the end.

Parity hoist: for odd x the inner argument A*x^k + B is A + B mod 2, so an
even A + B makes the sum zero outright, and otherwise every argument is odd.

Split discrete log: chi2 needs the log of the inner argument y.  With
h = max(ceil(m/2), 2), a per-modulus table over the 2^(h-1) odd residues
lo < 2^h gives the sign, l = dlog(+-lo) mod 2^(h-2) and M = +-5^(-l) mod 2^m,
so y*M = 1 + 2^h*z (mod 2^m).  Because 2h >= m, the group 1 + 2^h*Z/2^m is
cyclic, generated by 5^(2^(h-2)) = 1 + 2^h*u, and the log of y is
l + 2^(h-2) * (z * u^-1 mod 2^(m-h)).  The table has 2^12 entries at m = 26;
each call folds chi2 into a table of the same size, so a term costs one
lookup, two multiplications and one count.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import Character
from .cyclotomic import CycInt, zero
from .errors import MAX_ORACLE_M, WidthCapError
from .evaluator import SumInstance, ring_exponent_for


@lru_cache(maxsize=None)  # keyed by m <= MAX_ORACLE_M, 2^(h-1) entries each
def _low_logs(m: int) -> tuple[int, int, tuple[tuple[bool, int, int] | None, ...]]:
    """(h, u^-1 mod 2^(m-h), tbl) with tbl[lo] = (negative, l, M) for odd lo < 2^h."""
    h = max((m + 1) // 2, 2)
    hmod = 1 << h
    mod = 1 << m
    inv5 = pow(5, -1, mod)
    tbl: list[tuple[bool, int, int] | None] = [None] * hmod
    w = 1  # 5^l mod 2^h
    minv = 1  # 5^(-l) mod 2^m
    for l in range(1 << (h - 2)):
        tbl[w] = (False, l, minv)
        tbl[hmod - w] = (True, l, mod - minv)
        w = w * 5 % hmod
        minv = minv * inv5 % mod
    u = (pow(5, 1 << (h - 2), mod) - 1) >> h
    return h, pow(u, -1, 1 << (m - h)), tuple(tbl)


def _check_cap(m: int) -> None:
    if m > MAX_ORACLE_M:
        raise WidthCapError(
            f"direct summation capped at m <= {MAX_ORACLE_M} (a time policy: 2^{m - 1} terms)"
        )


def _sum(
    inst: SumInstance,
    chi1: Character,
    chi2: Character,
    halves: tuple[tuple[int, int], ...],
    weight: int,
) -> CycInt:
    """weight * sum over (a_res, base) in halves of
    sum_gamma zeta_{2^r}^base * chi1(5^gamma) * chi2(a_res * 5^(gamma k) + B)."""
    m = inst.m
    r = ring_exponent_for(m)
    if weight == 0 or (inst.A + inst.B) % 2 == 0:
        return zero(r)
    mod = 1 << m
    mmask = mod - 1
    half = 1 << (r - 1)
    rmask = (1 << r) - 1
    shift = r - (m - 2)  # Z/2^(m-2) exponents -> Z/2^r
    drop = 2 - shift  # 0 <= drop <= 2
    h, uinv, low = _low_logs(m)
    # chi2(y) = zeta^(elo[lo] + (y * mc[lo] >> drop)) with lo = y mod 2^h.
    # The high part of c2 * log(y), shifted into Z/2^r, is
    # (cu * (y*M - 1) mod 2^m) >> drop; cu * (y*M - 1) is a multiple of
    # 2^h >= 4 before the reduction, so modulo 2^r it splits exactly into
    # (y * cu*M >> drop) - (cu >> drop), whatever multiple of 2^m y carries.
    c2 = chi2.c
    cu = c2 * uinv % (1 << (m - h))
    flip2 = half if chi2.s == -1 else 0
    elo = [0] * len(low)
    mc = [0] * len(low)
    for lo, entry in enumerate(low):
        if entry is not None:
            negative, l, mlo = entry
            elo[lo] = ((c2 * l) << shift) + (flip2 if negative else 0) - (cu >> drop)
            mc[lo] = mlo * cu & mmask
    hmask = (1 << h) - 1
    b = inst.B
    fk = pow(5, inst.k, mod)
    step = chi1.c << shift  # 2^r for a principal chi1: exponent 0 every term
    cnt = [0] * (1 << r)
    for ap, base in halves:  # ap runs over a_res * 5^(gamma k) mod 2^m
        for e1 in range(base, base + (step << (m - 2)), step):
            y = ap + b
            lo = y & hmask
            cnt[(e1 + elo[lo] + (y * mc[lo] >> drop)) & rmask] += 1
            ap = ap * fk & mmask
    return CycInt(r, tuple(weight * (cnt[e] - cnt[e + half]) for e in range(half)))


def brute_force(inst: SumInstance, chi1: Character, chi2: Character) -> CycInt:
    """The sum, term by term, as an exact element of Z[zeta_{2^r}]."""
    _check_cap(inst.m)
    if inst.k % 2 == 0:
        # x = -5^gamma feeds the same inner argument as x = +5^gamma
        return _sum(inst, chi1, chi2, ((inst.A, 0),), 1 + chi1.s)
    flip1 = 1 << (ring_exponent_for(inst.m) - 1) if chi1.s == -1 else 0
    minus_a = -inst.A % (1 << inst.m)
    return _sum(inst, chi1, chi2, ((inst.A, 0), (minus_a, flip1)), 1)


def half_sum(inst: SumInstance, chi1: Character, chi2: Character, sign: int = 1) -> CycInt:
    """sum over gamma = 1..2^(m-2) of chi1(5^gamma) chi2(sign*A*5^(gamma k) + B)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_cap(inst.m)
    return _sum(inst, chi1, chi2, ((sign * inst.A % (1 << inst.m), 0),), 1)
