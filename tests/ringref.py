"""Dense reference algebra for the tests.

The package itself works on sparse term lists, compares them with the
oracle's sparse terms without ever multiplying ring elements, and rewrites
characters through their fields (s, c) without an algebra on them.  The tests
need more: products, conjugates, sqrt(2), character values as ring elements,
the principal and mod-4 sign characters, a primitivity test, the character
algebra (products, conjugates, powers, conductors, induced characters), the
step-by-step normalization it supports, a per-x count of a sum's terms that
shares no code with the oracle's summation loop, and the complete solution
set of the characteristic congruence, so that identities can be checked
exactly and the closed form's shortcuts can be compared against a plain
enumeration.  Those references live here.
"""

from __future__ import annotations

from charsum.characters import Character, char_exp
from charsum.cyclotomic import CycInt, ring_exponent_for
from charsum.evaluator import (
    CASE_ZERO_IMPRIMITIVE,
    CASE_ZERO_PARITY,
    REGIME_LARGE,
    NormalizedProblem,
    SumInstance,
    _c_affine,
    derive,
)
from charsum.ring2adic import v2


def principal(m: int) -> Character:
    """chi_0: identically 1 on odd residues."""
    return Character(m, 1, 1 << (m - 2))


def sign_mod4(m: int) -> Character:
    """chi_4: +1 or -1 as the argument is 1 or 3 mod 4."""
    return Character(m, -1, 1 << (m - 2))


def is_primitive(chi: Character) -> bool:
    """True when chi does not factor through any smaller power of 2."""
    return chi.c % 2 == 1


def conductor(chi: Character) -> int:
    """Smallest m' with chi(x) determined by x mod 2^(m').

    m - v2(c) when that is >= 3; the two characters with chi(5) = 1 sit
    below that range: 0 for the principal character, 2 for the mod-4 sign.
    """
    mp = chi.m - v2(chi.c)
    if mp >= 3:
        return mp
    return 0 if chi.s == 1 else 2


def induced(chi: Character, m2: int) -> Character:
    """The character mod 2^(m2) inducing chi.  Needs conductor(chi) <= m2 <= m."""
    if not 3 <= m2 <= chi.m:
        raise ValueError(f"target modulus exponent {m2} out of range [3, {chi.m}]")
    drop = chi.m - m2
    if chi.c % (1 << drop):
        raise ValueError(
            f"character does not factor through 2^{m2} (conductor {conductor(chi)})"
        )
    return Character(m2, chi.s, _norm_c(chi.c >> drop, m2))


def _norm_c(c: int, m: int) -> int:
    """Reduce c into the canonical window [1, 2^(m-2)]."""
    c %= 1 << (m - 2)
    return c if c else 1 << (m - 2)


def char_conj(chi: Character) -> Character:
    return Character(chi.m, chi.s, _norm_c(-chi.c, chi.m))


def char_mul(a: Character, b: Character) -> Character:
    if a.m != b.m:
        raise ValueError(f"modulus mismatch: 2^{a.m} vs 2^{b.m}")
    return Character(a.m, a.s * b.s, _norm_c(a.c + b.c, a.m))


def char_pow(chi: Character, k: int) -> Character:
    s = chi.s if k % 2 else 1
    return Character(chi.m, s, _norm_c(k * chi.c, chi.m))


def normalize_ref(inst: SumInstance, chi1: Character, chi2: Character) -> NormalizedProblem:
    """evaluator.normalize step by step, on the character algebra above.

    The swap builds conj(chi1 * chi2^k) from its factors, and the reduction
    loops, pushing both characters down to their largest conductor until
    chi2 is primitive, chi1 alone is, or both live mod 4.
    """
    if chi1.m != inst.m or chi2.m != inst.m:
        raise ValueError("characters and instance must share the modulus")
    if not (inst.A ^ inst.B) & 1:
        return NormalizedProblem("zero", CASE_ZERO_PARITY, None, None, None, 0)
    if inst.A & 1:
        chi1 = char_conj(char_mul(chi1, char_pow(chi2, inst.k)))
        inst = SumInstance(inst.m, inst.B, inst.A, inst.k)
    scale = 0
    while True:
        if is_primitive(chi2):
            return NormalizedProblem("standard", None, inst, chi1, chi2, scale)
        if is_primitive(chi1):
            return NormalizedProblem("zero", CASE_ZERO_IMPRIMITIVE, None, None, None, 0)
        mp = max(conductor(chi1), conductor(chi2))
        if mp < 3:
            return NormalizedProblem("direct", None, inst, chi1, chi2, inst.m - 2)
        scale += inst.m - mp
        chi1 = induced(chi1, mp)
        chi2 = induced(chi2, mp)
        mod = 1 << mp
        inst = SumInstance(mp, inst.A % mod, inst.B % mod, inst.k)


def zero(r: int) -> CycInt:
    return CycInt(r, (0,) * (1 << (r - 1)))


def from_int(n: int, r: int) -> CycInt:
    c = [0] * (1 << (r - 1))
    c[0] = n
    return CycInt(r, tuple(c))


def root_of_unity(r: int, j: int) -> CycInt:
    """zeta_{2^r}^j reduced onto the power basis (sign flips past half turn)."""
    half = 1 << (r - 1)
    j %= 1 << r
    c = [0] * half
    if j < half:
        c[j] = 1
    else:
        c[j - half] = -1
    return CycInt(r, tuple(c))


def add(a: CycInt, b: CycInt) -> CycInt:
    if a.r != b.r:
        raise ValueError(f"ring mismatch: 2^{a.r} vs 2^{b.r}")
    return CycInt(a.r, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def scalar_mul(n: int, a: CycInt) -> CycInt:
    return CycInt(a.r, tuple(n * x for x in a.coeffs))


def mul(a: CycInt, b: CycInt) -> CycInt:
    """Exact product; exponents past 2^(r-1) wrap with a sign flip.

    Works over the nonzero supports, so products of the sparse values the
    package produces (a handful of terms) stay cheap even in big rings.
    """
    if a.r != b.r:
        raise ValueError(f"ring mismatch: 2^{a.r} vs 2^{b.r}")
    half = 1 << (a.r - 1)
    out = [0] * half
    bnz = [(j, y) for j, y in enumerate(b.coeffs) if y]
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in bnz:
            e = i + j
            if e < half:
                out[e] += x * y
            else:
                out[e - half] -= x * y
    return CycInt(a.r, tuple(out))


def sqrt2(r: int) -> CycInt:
    """The square root of 2, zeta_8 - zeta_8^3, expressed in ring 2^r (r >= 3)."""
    if r < 3:
        raise ValueError(f"sqrt(2) needs ring exponent >= 3, got {r}")
    half = 1 << (r - 1)
    c = [0] * half
    step = 1 << (r - 3)  # zeta_8 = zeta_{2^r}^step
    c[step] = 1
    c[3 * step] = -1
    return CycInt(r, tuple(c))


def conj(a: CycInt) -> CycInt:
    """Complex conjugation, the ring automorphism zeta -> zeta^(-1)."""
    half = 1 << (a.r - 1)
    c = [0] * half
    c[0] = a.coeffs[0]
    for j in range(1, half):
        c[half - j] = -a.coeffs[j]
    return CycInt(a.r, tuple(c))


def eval_char(chi: Character, x: int, r: int) -> CycInt:
    """chi(x) as an exact ring element; even x gives the ring zero."""
    if r < max(chi.m - 2, 3):
        raise ValueError(f"ring 2^{r} too small for characters mod 2^{chi.m}")
    x %= 1 << chi.m
    if x % 2 == 0:
        return zero(r)
    e, sign = char_exp(chi, x, r)
    return root_of_unity(r, e if sign == 1 else e + (1 << (r - 1)))


def per_x_counts(inst, chi1, chi2, xs, a):
    """Slot e, for each e in Z/2^r: how many x in xs have chi1(x) chi2(a x^k + B)
    = zeta_{2^r}^e, one count per x, read from char_exp."""
    r = ring_exponent_for(inst.m)
    mod, half = 1 << inst.m, 1 << (r - 1)
    cnt = [0] * (1 << r)
    for x in xs:
        y = (a * pow(x, inst.k, mod) + inst.B) % mod
        if y % 2:
            e1, s1 = char_exp(chi1, x, r)
            e2, s2 = char_exp(chi2, y, r)
            cnt[(e1 + e2 + (half if s1 != s2 else 0)) % (1 << r)] += 1
    return cnt


def counted_sum(inst, chi1, chi2, xs, a):
    """sum of chi1(x) chi2(a x^k + B) over xs: the per-x counts, folded."""
    r = ring_exponent_for(inst.m)
    cnt, half = per_x_counts(inst, chi1, chi2, xs, a), 1 << (r - 1)
    return CycInt(r, tuple(cnt[e] - cnt[e + half] for e in range(half)))


def solve_characteristic(
    inst: SumInstance, chi1: Character, chi2: Character
) -> tuple[int, tuple[int, ...]]:
    """(w, solutions): every odd x mod 2^w with C(x) = 0 mod 2^w, w = M_exp.

    The evaluator solves for the smallest root directly (_smallest_root); the
    tests check that root and the witness independence of the value against
    this full set.

    Breadth-first bit lifting: C(x) mod 2^j depends only on x mod 2^j (the
    x-dependence sits above valuation n + t), so solutions mod 2^(j+1) are
    found among the two lifts of each solution mod 2^j.  The set has
    2^(n + 2t + min(1, t)) elements, and so does the work.
    """
    p = derive(inst)
    if p.regime != REGIME_LARGE:
        raise ValueError(f"characteristic solver applies to the Large regime, not {p.regime}")
    if v2(chi1.c) != p.n + p.t:
        raise ValueError("chi1 parameter lacks the required 2-power; the sum is zero")
    m_exp = p.M_exp
    const, coef, mod = _c_affine(inst, chi1.c, chi2.c, p.N, p.n, m_exp)
    k = inst.k
    cap = 1 << (p.n + 2 * p.t + 6)
    sols = [1] if (const + coef) % 2 == 0 else []
    for j in range(1, m_exp):
        step = 1 << j
        mod_next = step << 1
        nxt = []
        for x in sols:
            for cand in (x, x + step):
                if (const + coef * pow(cand, k, mod)) % mod_next == 0:
                    nxt.append(cand)
        sols = nxt
        if len(sols) > cap:
            raise RuntimeError(
                f"solution frontier {len(sols)} exceeds cap {cap}: solver invariant broken"
            )
    return m_exp, tuple(sorted(sols))
