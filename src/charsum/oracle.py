"""Ground truth by direct summation, exact in the cyclotomic ring.

The oracle imports nothing from the evaluator it checks: its input records
come from `characters`, its ring from `cyclotomic`, and it computes its own
discrete logs (the split log below), never `dlog5` or `char_exp`.

Every odd x mod 2^m is +-5^gamma for gamma = 0..2^(m-2)-1.  For odd k the
x = -5^gamma half of the sum is the x = +5^gamma half with -A in place of A,
times chi1(-1); for even k the two halves feed the same inner argument.  So
`brute_force` and `half_sum` both run one loop, `_sum`, over gamma: it counts
the terms on each full exponent in Z/2^r, and the counts fold onto the power
basis once at the end.

Parity hoist: for odd x the inner argument A*x^k + B is A + B mod 2, so an
even A + B makes the sum zero outright, and otherwise every argument is odd.

Split discrete log: chi2 needs the log of the inner argument y.  With
h = max(ceil(m/2), 2), a per-modulus table over the 2^(h-1) odd residues
lo < 2^h gives the sign, l = dlog(+-lo) mod 2^(h-2) and M = +-5^(-l) mod 2^m,
so y*M = 1 + 2^h*z (mod 2^m).  Because 2h >= m, the group 1 + 2^h*Z/2^m is
cyclic, generated by 5^(2^(h-2)) = 1 + 2^h*u, and the log of y is
l + 2^(h-2) * (z * u^-1 mod 2^(m-h)).  The table has 2^12 entries at m = 26.

Row split: lo = y mod 2^h depends on gamma only through 5^(gamma k) mod 2^h,
and 5^(2^(h-2)) = 1 (mod 2^h), so only through gamma mod 2^(h-2).  Writing
gamma = g + 2^(h-2)*j, each call builds per half one row per g, 2^(h-2) rows
holding everything about the term that depends on g and lo alone: a
multiplier pm and an offset q.  Along a row, 5^(gamma k) carries the factor
v^j with v = 5^(k 2^(h-2)) = 1 (mod 2^h).  Since 2h >= m, (v - 1)^2 = 0
(mod 2^m), so v^j = 1 + j*(v - 1) (mod 2^m) exactly: the same fact as the
split log's, that 1 + 2^h*Z/2^m is cyclic with a linear log.  chi1's
exponent also grows by a fixed step per j, so a row's 2^(m-h) term
exponents form one arithmetic progression.  Reduced mod 2^r it repeats with
a period that is a power of two, so the row is one `range` over its first
period, each exponent counted once per period: every term's exponent is
still enumerated, and no row is summed in closed form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from operator import mul, sub

from .characters import Character, SumInstance
from .cyclotomic import CycInt, ring_exponent_for, zero
from .errors import MAX_ORACLE_M, WidthCapError


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
    sum_gamma zeta_{2^r}^base * chi1(5^gamma) * chi2(a_res * 5^(gamma k) + B).

    Exponents are carried times 2^drop as residues mod 2^m, so that
    Z/2^r = Z/2^(m - drop): a character exponent c*L in Z/2^(m-2) is c*L << 2
    and a half turn is 2^(m-1).  With (negative, l, M) = low[y mod 2^h] and
    y*M = 1 + 2^h*z, chi2(y) has exponent (c2*l << 2) + 2^(m-1)*negative +
    cu*(y*M - 1) with cu = c2 * u^-1 mod 2^(m-h): the high part of c2*log(y)
    is c2 * 2^(h-2) * (z * u^-1 mod 2^(m-h)).  Every part is a multiple of
    2^drop, so the sum reduced mod 2^m and shifted right by drop is the
    term's exponent in Z/2^r exactly, whatever multiple of 2^m it carried.

    Row split: y mod 2^h depends on gamma only through gamma mod 2^(h-2).
    For gamma = g + 2^(h-2)*j, each half builds one row per g, with
    mcu = M*cu for the row's low residue:
        pm = 5^(kg) * mcu,  q = B*mcu - cu + (base << drop)
                                + ((c1*g + c2*l) << 2) + 2^(m-1)*negative,
    and the term at j is one count at ((a_j*pm + q + j*(c1 << h)) mod 2^m)
    >> drop, where a_j = a * v^j and v = 5^(k 2^(h-2)).  Since v = 1 (mod 2^h)
    and 2h >= m, (v - 1)^2 = 0 (mod 2^m), so v^j = 1 + j*(v - 1) (mod 2^m)
    exactly, and the exponents run start + j*step with
        start = (a*pm + q) mod 2^m,  step = (a*(v - 1)*pm + (c1 << h)) mod 2^m,
    both multiples of 2^drop.  Mod 2^r these n = 2^(m-h) exponents repeat
    every per = min(n, 2^r / (step & -step)) terms (per = 1 if step = 0,
    which is a step of 2^r), and per divides n, both being powers of two.
    So each row is one `range` over its first per exponents, each counted
    n / per times: the count vector is the term-by-term one, and no row is
    summed in closed form.
    """
    m = inst.m
    r = ring_exponent_for(m)
    if weight == 0 or (inst.A + inst.B) % 2 == 0:
        return zero(r)
    mod = 1 << m
    mmask = mod - 1
    drop = m - r  # 0 <= drop <= 2
    h, uinv, low = _low_logs(m)
    hmask = (1 << h) - 1
    b = inst.B
    c1, c2 = chi1.c, chi2.c
    cu = c2 * uinv % (1 << (m - h))
    turn2 = mod >> 1 if chi2.s == -1 else 0
    fk = pow(5, inst.k, mod)
    v = pow(fk, 1 << (h - 2), mod)  # 5^(k 2^(h-2)) = 1 (mod 2^h)
    n = 1 << (m - h)  # terms per row
    e1 = c1 << h  # chi1's exponent step from one j to the next
    size = 1 << r
    rmask = size - 1
    cnt = [0] * size
    for a, base in halves:
        off = (base << drop) - cu
        da = a * (v - 1)
        z = 1  # 5^(kg) mod 2^m
        for g in range(1 << (h - 2)):
            negative, l, mlo = low[(a * z + b) & hmask]
            mcu = mlo * cu
            pm = z * mcu & mmask
            q = b * mcu + off + ((c1 * g + c2 * l) << 2) + (turn2 if negative else 0)
            start = ((a * pm + q) & mmask) >> drop
            step = ((da * pm + e1) & mmask) >> drop or size  # 0 = 2^r (mod 2^r)
            per = min(n, size // (step & -step))
            rep = n // per
            for x in range(start, start + per * step, step):
                cnt[x & rmask] += rep
            z = z * fk & mmask
    half = 1 << (r - 1)
    diff = map(sub, islice(cnt, half), islice(cnt, half, None))
    return CycInt(r, tuple(diff if weight == 1 else map(mul, diff, repeat(weight))))


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
