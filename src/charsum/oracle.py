"""Ground truth by direct summation, exact in the cyclotomic ring.

The oracle imports nothing from the evaluator it checks: its input records
come from `characters`, its ring from `cyclotomic`, and it computes its own
discrete logs (the split log below), never `dlog5` or `char_exp`.

Every odd x mod 2^m is +-5^gamma for gamma = 0..2^(m-2)-1.  For odd k the
x = -5^gamma half of the sum is the x = +5^gamma half with -A in place of A,
times chi1(-1); for even k the two halves feed the same inner argument, so
one half is counted with weight 1 + chi1(-1).  So `brute_terms` and
`half_sum` both run one loop, `_counts`, over gamma: it counts the weighted
terms on each full exponent in Z/2^r, into 4-byte slots, and `_fold` folds the
counts onto the power basis once at the end, slot e less slot e + 2^(r-1).
The fold compares every slot pair, a range of pairs at a time, and keeps only
the nonzero differences, as sorted (exponent, coeff) terms: the shape of the
closed form's terms, so no dense vector is built to compare them.
`brute_force` and `half_sum` are dense views of such terms, expanded by
`CycInt.from_terms` as `ClosedForm.value()` expands the closed form's.

Parity hoist: for odd x the inner argument A*x^k + B is A + B mod 2, so an
even A + B makes the sum zero outright, and otherwise every argument is odd.

Split discrete log: chi2 needs the log of the inner argument y.  With
h = max(ceil(m/2), 2), a per-modulus table over the 2^(h-1) odd residues
lo < 2^h gives the sign, l = dlog(+-lo) mod 2^(h-2) and M = +-5^(-l) mod 2^m,
so y*M = 1 + 2^h*z (mod 2^m).  Because 2h >= m, the group 1 + 2^h*Z/2^m is
cyclic, generated by 5^(2^(h-2)) = 1 + 2^h*u, and the log of y is
l + 2^(h-2) * (z * u^-1 mod 2^(m-h)).  The table has 2^12 entries at m = 26.

Row split: the sum's 2-adic shape, n = v2(A) (n = m for A = 0) and
t = v2(k), sets the row length.  With V = ceil((m - n)/2), a row runs over
gamma = g + P*j for one g < P, where P = 2^max(V - 2 - t, 0), so each call
builds P <= 2^(h-2) rows per half of 2^(m-2)/P terms each.  Along a row
5^(gamma k) carries the factor v^j with v = 5^(kP), and v2(v - 1) =
2 + t + log2 P >= V.  Two valuation conditions follow (the linearization
behind Postnikov's method for exponential sums mod prime powers).  First,
n + v2(v - 1) >= ceil((m + n)/2) >= h, so A*v^j = A (mod 2^h): the inner
argument y is fixed mod 2^h along a row, and one table lookup serves it all.
Second, n + 2*v2(v - 1) >= m, so A*(v - 1)^2 = 0 (mod 2^m) and
A*v^j = A*(1 + j*(v - 1)) (mod 2^m) exactly: y, and with it chi2's exponent,
is linear in j.  chi1's exponent also grows by a fixed step per j, so a row's
term exponents form one arithmetic progression.  Reduced mod 2^r its step is
a multiple of 2^(log2 P + 2 - m + r), so the progression runs through the
whole residue class of its start modulo lsb = step & -step (2^r for a zero
step), each member (2^(m-2)/P)*lsb/2^r times.  Each row adds its counts to
its residue class in one tally, the full 2^r-slot count vector is built from
the tallies, and all of it is folded: no row is dropped or summed in closed
form, even where its counts cancel in the fold.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from operator import sub

from .characters import Character, SumInstance
from .cyclotomic import CycInt, ring_exponent_for
from .errors import MAX_ORACLE_M, WidthCapError

_Halves = tuple[tuple[int, int], ...]  # (a_res, base) pairs, as _counts reads them
_Terms = tuple[tuple[int, int], ...]  # (exponent, coeff) pairs, as ClosedForm.terms holds them

# _fold's ranges: one of at most _SPAN slot pairs is compared in one step (so
# a comparison copies at most 2 * 64 KB), and a differing one of at most
# _LEAF pairs is subtracted slot by slot
_SPAN = 1 << 14
_LEAF = 32


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


def _counts(
    inst: SumInstance, chi1: Character, chi2: Character, halves: _Halves, weight: int
) -> array:
    """The count vector of weight times the sum over (a_res, base) in halves of
    sum_gamma zeta_{2^r}^base * chi1(5^gamma) * chi2(a_res * 5^(gamma k) + B):
    slot e, for each e in Z/2^r, holds weight times how many terms equal
    zeta_{2^r}^e, in a 4-byte signed slot (array "i").  Needs A + B odd, so
    that every inner argument is odd.  A slot counts at most 2^(m-1) terms
    (two halves of 2^(m-2), or one at weight 2), below 2^31 at m <= MAX_ORACLE_M.

    Exponents are carried times 2^drop as residues mod 2^m, so that
    Z/2^r = Z/2^(m - drop): a character exponent c*L in Z/2^(m-2) is c*L << 2
    and a half turn is 2^(m-1).  With (negative, l, M) = low[y mod 2^h] and
    y*M = 1 + 2^h*z, chi2(y) has exponent (c2*l << 2) + 2^(m-1)*negative +
    cu*(y*M - 1) with cu = c2 * u^-1 mod 2^(m-h): the high part of c2*log(y)
    is c2 * 2^(h-2) * (z * u^-1 mod 2^(m-h)).  Every part is a multiple of
    2^drop, so the sum reduced mod 2^m and shifted right by drop is the
    term's exponent in Z/2^r exactly, whatever multiple of 2^m it carried.

    Row split: with n = v2(A) (n = m for A = 0; -A has the same), t = v2(k)
    and V = ceil((m - n)/2), let P = 2^p with p = max(V - 2 - t, 0) and
    v = 5^(kP), so that v2(v - 1) = 2 + t + p >= V.  For gamma = g + P*j,
    each half builds one row per g < P, with mcu = M*cu for the row's low
    residue:
        pm = 5^(kg) * mcu,  q = B*mcu - cu + (base << drop)
                                + ((c1*g + c2*l) << 2) + 2^(m-1)*negative,
    and the term at j is one count at ((a_j*pm + q + j*(c1*P << 2)) mod 2^m)
    >> drop, where a_j = a * v^j.  Two valuations make this exact.  As
    n + v2(v - 1) >= ceil((m + n)/2) >= h, a_j = a (mod 2^h), so y mod 2^h,
    and with it (negative, l, M), is the same for the whole row.  As
    n + 2*v2(v - 1) >= m, a*(v - 1)^2 = 0 (mod 2^m), so a_j = a*(1 + j*(v - 1))
    (mod 2^m) exactly, and the exponents run start + j*step with
        start = (a*pm + q) mod 2^m,  step = (a*(v - 1)*pm + (c1*P << 2)) mod 2^m,
    both multiples of 2^drop; step is also one of 2^(p + 2), as
    v2(v - 1) >= p + 2.  Shifted right by drop, let lsb = step & -step (2^r
    for a zero step), a power of two >= 2^(p + 2 - drop).  A row holds
    per_row = 2^(m-2)/P terms; mod 2^r its exponents repeat every
    per = 2^r / lsb <= per_row terms, and per divides per_row, so the row puts
    per_row * lsb / 2^r counts on each exponent = start (mod lsb) and none
    elsewhere.  The row's only record is one tally under lsb | (start mod
    lsb).  Taking the classes by increasing lsb, the count vector is widened
    by repeating it (slot s of width w lands on every s + i*w) up to each
    class's lsb, and the class's counts go on its slot start mod lsb.  The
    result is the term-by-term count vector, all 2^r slots of it: no row is
    dropped or summed in closed form.  Each class's tally is multiplied by
    weight as it is added, so the fold needs no second pass.
    """
    m = inst.m
    r = ring_exponent_for(m)
    mod = 1 << m
    mmask = mod - 1
    drop = m - r  # 0 <= drop <= 2
    h, uinv, low = _low_logs(m)
    hmask = (1 << h) - 1
    b = inst.B
    c1, c2 = chi1.c, chi2.c
    cu = c2 * uinv % (1 << (m - h))
    turn2 = mod >> 1 if chi2.s == -1 else 0
    n = (inst.A & -inst.A).bit_length() - 1 if inst.A else m  # v2(A), m for A = 0
    t = (inst.k & -inst.k).bit_length() - 1  # v2(k)
    p = max((m - n + 1) // 2 - 2 - t, 0)  # P = 2^p rows per half
    fk = pow(5, inst.k, mod)
    v = pow(fk, 1 << p, mod)  # 5^(kP): v2(v - 1) = 2 + t + p
    per_row = 1 << (m - 2 - p)  # terms per row
    e1 = c1 << (p + 2)  # chi1's exponent step from one j to the next
    size = 1 << r
    rows: dict[int, int] = {}  # lsb | (start mod lsb) -> number of such rows
    for a, base in halves:
        off = (base << drop) - cu
        da = a * (v - 1)
        z = 1  # 5^(kg) mod 2^m
        for g in range(1 << p):
            negative, l, mlo = low[(a * z + b) & hmask]
            mcu = mlo * cu
            pm = z * mcu & mmask
            q = b * mcu + off + ((c1 * g + c2 * l) << 2) + (turn2 if negative else 0)
            start = ((a * pm + q) & mmask) >> drop
            step = ((da * pm + e1) & mmask) >> drop or size  # 0 = 2^r (mod 2^r)
            lsb = step & -step
            key = lsb | start & (lsb - 1)
            rows[key] = rows.get(key, 0) + 1
            z = z * fk & mmask
    cnt = array("i", [0])  # widened in place: a copy would hold two widths at once
    for key in sorted(rows):
        lsb = 1 << (key.bit_length() - 1)
        cnt *= lsb // len(cnt)
        cnt[key ^ lsb] += rows[key] * (per_row * lsb >> r) * weight
    cnt *= size // len(cnt)
    return cnt


def _fold(cnt: array) -> _Terms:
    """The nonzero cnt[e] - cnt[e + half] for e < half = len(cnt) / 2, as
    (e, coeff) pairs by ascending e: the count vector folded onto the power basis.

    The slot ranges [a, b) are taken depth first, lowest first, from [0, half).
    A range of at most _SPAN pairs is compared with its image [a + half,
    b + half) in one C-level array comparison, and folds to nothing if they
    are equal.  A range that differs, or is wider than _SPAN, is halved; a
    differing range of at most _LEAF pairs is subtracted slot by slot instead.
    So every slot pair is compared exactly, and no range is dropped without an
    equality test or assumed to hold zeros.
    """
    half = len(cnt) >> 1
    terms: list[tuple[int, int]] = []
    todo = [(0, half)]
    while todo:
        a, b = todo.pop()
        if b - a <= _SPAN and cnt[a:b] == cnt[a + half : b + half]:
            continue
        if b - a <= _LEAF:
            diff = list(map(sub, cnt[a:b], cnt[a + half : b + half]))
            terms += zip(compress(range(a, b), diff), filter(None, diff))
        else:
            mid = (a + b) >> 1
            todo += (mid, b), (a, mid)
    return tuple(terms)


def _sum(
    inst: SumInstance, chi1: Character, chi2: Character, halves: _Halves, weight: int
) -> _Terms:
    """weight * the sum over halves: _counts' weighted count vector, folded onto the power basis."""
    if weight == 0 or (inst.A + inst.B) % 2 == 0:
        return ()
    return _fold(_counts(inst, chi1, chi2, halves, weight))


def brute_terms(inst: SumInstance, chi1: Character, chi2: Character) -> _Terms:
    """The sum, term by term, as its nonzero (exponent, coeff) pairs in
    Z[zeta_{2^r}], r = ring_exponent_for(m), by ascending exponent."""
    _check_cap(inst.m)
    if inst.k % 2 == 0:
        # x = -5^gamma feeds the same inner argument as x = +5^gamma
        return _sum(inst, chi1, chi2, ((inst.A, 0),), 1 + chi1.s)
    flip1 = 1 << (ring_exponent_for(inst.m) - 1) if chi1.s == -1 else 0
    minus_a = -inst.A % (1 << inst.m)
    return _sum(inst, chi1, chi2, ((inst.A, 0), (minus_a, flip1)), 1)


def brute_force(inst: SumInstance, chi1: Character, chi2: Character) -> CycInt:
    """The sum, term by term, as an exact element of Z[zeta_{2^r}]: brute_terms, dense."""
    return CycInt.from_terms(ring_exponent_for(inst.m), brute_terms(inst, chi1, chi2))


def half_sum(inst: SumInstance, chi1: Character, chi2: Character, sign: int = 1) -> CycInt:
    """sum over gamma = 1..2^(m-2) of chi1(5^gamma) chi2(sign*A*5^(gamma k) + B)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_cap(inst.m)
    terms = _sum(inst, chi1, chi2, ((sign * inst.A % (1 << inst.m), 0),), 1)
    return CycInt.from_terms(ring_exponent_for(inst.m), terms)
