"""Closed-form evaluation of S = sum_{x=1}^{2^m} chi1(x) chi2(A x^k + B).

The pipeline: normalize (parity vanishing, inverting the summation variable
when B is even, imprimitivity rules, modulus reduction), derive the 2-adic
shape n = v2(A), t = v2(k), classify the regime by m - n against t, then
evaluate: the Large regime (m - n > 2t + 4) by its characteristic witness,
every other regime, and the four-term sums left by characters mod 4, by the
collapse onto x = +-1, where each surviving witness contributes
2^(m-2) or 2^(m-1) times chi1(x) chi2(A x^k + B).  Every nonzero value is a
power of sqrt(2) times one or two roots of unity, so results are carried as
sparse exact term lists (ClosedForm.value() expands one to a dense ring
element); the structured evaluation costs poly(m) arithmetic at every
valuation: the Large regime solves its characteristic congruence for the
smallest root directly, without enumerating the 2^(n + 2t + min(1, t))
solutions.

Witness data (x0, the parity of lambda, h) follows the sparse value around
so verification runs can re-derive everything from the report alone.
Results with no terms and scale 0 (ZeroParity, ZeroImprimitive, and
ZeroCondition when nothing was reduced) are shared immutable constants, one
per (case, ring exponent), so a sum that vanishes allocates no result.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import Character, SumInstance, char_exp
from .cyclotomic import CycInt, abs2_terms, approx_terms, ring_exponent_for, terms_json
from .errors import MAX_M
from .frozen import Frozen
from .ring2adic import dlog5, five_pow_cofactor, jacobi2

CASE_ZERO_PARITY = "ZeroParity"
CASE_ZERO_IMPRIMITIVE = "ZeroImprimitive"
CASE_ZERO_CONDITION = "ZeroCondition"
CASE_LARGE_EVEN = "LargeEven"
CASE_LARGE_ODD = "LargeOdd"
CASE_REDUCED = "Reduced"

REGIME_TINY = "Tiny"
REGIME_EDGE_T2 = "EdgeT2"
REGIME_EDGE_T3 = "EdgeT3"
REGIME_MIDRANGE = "MidRange"
REGIME_LARGE = "Large"


class DerivedParams(Frozen, namedtuple("DerivedParams", "n t k1 N M_exp regime")):
    """2-adic shape of a normalized instance (A even, B odd).

    n = v2(A) (A = 0 is folded into n = m, the deepest possible valuation
    mod 2^m); t = v2(k), k1 = k / 2^t odd.  N is the cofactor index used
    inside the characteristic combination; M_exp the modulus exponent of the
    characteristic congruence.  Both are None in the Tiny regime.
    """

    __slots__ = ()


class NormalizedProblem(
    Frozen, namedtuple("NormalizedProblem", "kind zero_case inst chi1 chi2 scale_log2")
):
    """Outcome of normalize(): a terminal zero (kind "zero", zero_case set),
    a four-term sum ("direct"), or a standard-form problem ("standard": A
    even, B odd, chi2 primitive) plus the power of two the modulus reduction
    multiplied every term class by.  inst, chi1 and chi2 are None for a zero."""

    __slots__ = ()


class ClosedForm(Frozen, namedtuple(
    "ClosedForm", "case ring_exponent terms magnitude_halves x0 lambda_parity h scale_log2"
)):
    """Structured exact result.

    terms is the sparse value: pairs (exponent, coefficient) in the ring
    2^ring_exponent, empty exactly when the sum vanishes.  magnitude_halves
    gives |S| = 2^(magnitude_halves / 2) for nonzero values.  x0 is the
    chosen characteristic-equation witness, lambda_parity and h the data
    selecting the eighth-root factor; scale_log2 records the multiplicity
    applied by modulus reduction.  For reduced instances the witnesses refer
    to the reduced problem.
    """

    __slots__ = ()

    def value(self) -> CycInt:
        """Dense ring element; costs O(2^(r-1)) to materialize."""
        half = 1 << (self.ring_exponent - 1)
        c = [0] * half
        for e, x in self.terms:
            c[e] = x
        return CycInt(self.ring_exponent, tuple(c))

    def approx(self) -> tuple[float, float]:
        return approx_terms(self.ring_exponent, self.terms)

    def to_json_dict(self) -> dict:
        re, im = self.approx()
        return {
            "case": self.case,
            "magnitude_halves": self.magnitude_halves,
            "x0": self.x0,
            "lambda_parity": self.lambda_parity,
            "h": self.h,
            "scale_log2": self.scale_log2,
            "value": terms_json(self.ring_exponent, self.terms),
            "approx": {"re": re, "im": im},
        }


# A result with no terms and scale 0 is fixed by (case, ring exponent): one
# frozen instance each, shared by every call that ends there.
_ZEROS = {
    (case, r): ClosedForm(case, r, (), None, None, None, None, 0)
    for case in (CASE_ZERO_PARITY, CASE_ZERO_IMPRIMITIVE, CASE_ZERO_CONDITION)
    for r in range(3, ring_exponent_for(MAX_M) + 1)
}


# ---------------------------------------------------------------------------
# sparse term helpers

def _fold(acc: dict[int, int], r: int, exp: int, coeff: int) -> None:
    half = 1 << (r - 1)
    exp %= 1 << r
    if exp >= half:
        exp -= half
        coeff = -coeff
    acc[exp] = acc.get(exp, 0) + coeff


def _terms(acc: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _sparse_abs2_log2(terms: tuple[tuple[int, int], ...], r: int) -> int:
    """v with S * conj(S) = 2^v, computed sparsely.  Every nonzero value this
    evaluator produces has that shape; anything else is a bug."""
    flat = sorted(abs2_terms(r, terms).items())
    if len(flat) != 1 or flat[0][0] != 0:
        raise AssertionError(f"|S|^2 not rational: {flat}")
    sq = flat[0][1]
    if sq <= 0 or sq & (sq - 1):
        raise AssertionError(f"|S|^2 not a power of two: {sq}")
    return sq.bit_length() - 1


def _closed(
    case: str,
    r: int,
    acc: dict[int, int],
    *,
    x0: int | None = None,
    lam: int | None = None,
    h: int | None = None,
    scale_log2: int = 0,
) -> ClosedForm:
    terms = _terms(acc)
    mag = _sparse_abs2_log2(terms, r) if terms else None
    return ClosedForm(case, r, terms, mag, x0, lam, h, scale_log2)


# ---------------------------------------------------------------------------
# normalization

# normalize's terminal zeros carry no instance data
_NORM_ZERO_PARITY = NormalizedProblem("zero", CASE_ZERO_PARITY, None, None, None, 0)
_NORM_ZERO_IMPRIMITIVE = NormalizedProblem("zero", CASE_ZERO_IMPRIMITIVE, None, None, None, 0)


def normalize(inst: SumInstance, chi1: Character, chi2: Character) -> NormalizedProblem:
    """Reduce to the standing shape: A even, B odd, chi2 primitive.

    Same-parity A, B kill every term.  Odd A with even B is flipped by
    summing over x^(-1), which swaps A with B and replaces chi1 by
    conj(chi1 * chi2^k) = (s1 * s2^k, -(c1 + k*c2)).  A primitive (odd c) chi1
    against an imprimitive chi2 forces the sum to vanish.  Otherwise both
    factor through 2^(m - d), d = v2(c1 | c2): at d = m - 2 both live mod 4,
    a four-term sum closed_form collapses onto x = +-1; below, the problem
    drops once to 2^(m - d), parameters c >> d and each term class hit 2^d
    times, where one parameter is odd and the rule above applies once more.
    """
    m = inst.m
    if chi1.m != m or chi2.m != m:
        raise ValueError("characters and instance must share the modulus")
    if not (inst.A ^ inst.B) & 1:
        return _NORM_ZERO_PARITY
    if inst.A & 1:
        k, q = inst.k, 1 << (m - 2)
        chi1 = Character(m, chi1.s * chi2.s if k & 1 else chi1.s, -(chi1.c + k * chi2.c) % q or q)
        inst = SumInstance(m, inst.B, inst.A, k)
    if chi2.c & 1:  # chi2 primitive
        return NormalizedProblem("standard", None, inst, chi1, chi2, 0)
    c1, c2 = chi1.c, chi2.c
    both = c1 | c2
    d = (both & -both).bit_length() - 1  # v2(c1 | c2): 0 when chi1 is primitive
    if d == m - 2:
        return NormalizedProblem("direct", None, inst, chi1, chi2, d)
    if not c2 >> d & 1:  # chi1 primitive mod 2^(m - d), chi2 not
        return _NORM_ZERO_IMPRIMITIVE
    mp = m - d
    mod = 1 << mp
    inst = SumInstance(mp, inst.A % mod, inst.B % mod, inst.k)
    chi1, chi2 = Character(mp, chi1.s, c1 >> d), Character(mp, chi2.s, c2 >> d)
    return NormalizedProblem("standard", None, inst, chi1, chi2, d)


# ---------------------------------------------------------------------------
# parameter derivation

def derive(inst: SumInstance) -> DerivedParams:
    """2-adic shape and regime of a normalized instance (A even, B odd)."""
    if inst.A & 1 or not inst.B & 1:
        raise ValueError("derive expects even A and odd B (normalize first)")
    m, A, k = inst.m, inst.A, inst.k
    t = (k & -k).bit_length() - 1  # v2(k)
    k1 = k >> t
    if A == 0:
        # A = 0 mod 2^m behaves as valuation >= m: deepest Tiny shape
        return DerivedParams(m, t, k1, None, None, REGIME_TINY)
    n = (A & -A).bit_length() - 1  # v2(A)
    d = m - n
    m_exp = ((m + n) >> 1) + t
    if d < t + 2:
        return DerivedParams(n, t, k1, None, None, REGIME_TINY)
    if d == t + 2:
        return DerivedParams(n, t, k1, t + 2, m_exp, REGIME_EDGE_T2)
    if d == t + 3:
        return DerivedParams(n, t, k1, t + 2, m_exp, REGIME_EDGE_T3)
    if d <= 2 * t + 4:
        return DerivedParams(n, t, k1, t + 2, m_exp, REGIME_MIDRANGE)
    return DerivedParams(n, t, k1, (d + 1) >> 1, m_exp, REGIME_LARGE)


# ---------------------------------------------------------------------------
# characteristic combination C(x) = c1*(A x^k + B) + c2*A*k*x^k*R_N/R_{N+n}

def _c_affine(inst: SumInstance, c1: int, c2: int, N: int, n: int, w: int) -> tuple[int, int, int]:
    """C(x) mod 2^w as const + coef * x^k: returns (const, coef, 2^w)."""
    mod = 1 << w
    rn = five_pow_cofactor(N, w)
    rnn_inv = pow(five_pow_cofactor(N + n, w), -1, mod)
    coef = (c1 * inst.A + c2 * inst.A * inst.k % mod * rn * rnn_inv) % mod
    return c1 * inst.B % mod, coef, mod


def characteristic_value(x: int, inst: SumInstance, chi1: Character, chi2: Character, w: int) -> int:
    """C(x) mod 2^w.  Defined outside the Tiny regime only."""
    p = derive(inst)
    if p.N is None:
        raise ValueError("characteristic combination undefined in the Tiny regime")
    const, coef, mod = _c_affine(inst, chi1.c, chi2.c, p.N, p.n, w)
    return (const + coef * pow(x, inst.k, mod)) % mod


# ---------------------------------------------------------------------------
# regime evaluators (inputs already normalized: A even, B odd, chi2 primitive)

def _smallest_root(u: int, k1: int, t: int, w: int) -> int | None:
    """Smallest odd x in [1, 2^w) with x^(2^t * k1) = u mod 2^w, or None.

    x -> x^k1 permutes the odd residues (k1 odd), so y = u^(1/k1) is the only
    candidate for x^(2^t), and for t = 0 it is the root.  For t >= 1 the
    2^t-th powers are the residues = 1 mod 2^(t+2), that is 5^gamma with 2^t
    dividing gamma; x1 = 5^(gamma / 2^t) is one root, and since the kernel of
    x -> x^(2^t) is +-1 mod 2^(w-t), the roots are x = +-x1 mod 2^(w-t).
    Requires w >= t + 2.
    """
    mod = 1 << w
    # the odd residues mod 2^w have exponent 2^(w-2) (2 when w = 2)
    y = pow(u, pow(k1, -1, 1 << max(w - 2, 1)), mod)
    if t == 0:
        return y
    if (y - 1) & ((4 << t) - 1):
        return None
    _, gamma = dlog5(y, w)
    low = 1 << (w - t)
    x1 = pow(5, gamma >> t, low)
    return min(x1, low - x1)


def evaluate_large(
    inst: SumInstance,
    chi1: Character,
    chi2: Character,
    params: DerivedParams,
    x0: int | None = None,
) -> ClosedForm:
    """m - n > 2t + 4: single characteristic witness carries the whole sum.

    Vanishes unless chi1's parameter is exactly 2^(n+t) times an odd c3,
    chi1(-1) = 1 when k is even, and the characteristic congruence has a
    solution.  Otherwise the value is 2^((m+n)/2 + t + min(1,t)) times
    chi1(x0) chi2(A x0^k + B), with the half-integer power of two realized
    by sqrt(2) and steered through the eighth roots by h = 2*lambda +
    (k1 - 1) + (2^n - 1) c3 when m - n is odd.

    Both coefficients of C(x) = const + coef * x^k have valuation exactly
    n + t, so C(x) = 0 mod 2^M_exp reduces to x^k = u mod 2^w with
    w = M_exp - n - t >= t + 2, and x0 defaults to its smallest solution.
    params is derive(inst).
    """
    if params.regime != REGIME_LARGE:
        raise ValueError(f"not a Large-regime instance: {params.regime}")
    m, n, t = inst.m, params.n, params.t
    r = ring_exponent_for(m)
    nt = n + t
    c1 = chi1.c
    # v2(c1) != n + t, or chi1(-1) = -1 with k even
    if c1 & -c1 != 1 << nt or (inst.k % 2 == 0 and chi1.s != 1):
        return _ZEROS[CASE_ZERO_CONDITION, r]

    m_exp = params.M_exp
    # one bit above the congruence's modulus carries lambda
    const, coef, cmod = _c_affine(inst, chi1.c, chi2.c, params.N, n, m_exp + 1)
    low_bits = (2 << nt) - 1
    if const & low_bits != 1 << nt or coef & low_bits != 1 << nt:
        raise AssertionError("characteristic coefficients lack valuation n + t")
    w = m_exp - nt
    u = -(const >> nt) * pow(coef >> nt, -1, 1 << w) % (1 << w)
    root = _smallest_root(u, params.k1, t, w)
    if root is None:
        return _ZEROS[CASE_ZERO_CONDITION, r]
    if x0 is None:
        x0 = root

    cval = (const + coef * pow(x0, inst.k, cmod)) % cmod
    if cval % (1 << m_exp):
        raise AssertionError(f"x0={x0} does not satisfy the characteristic congruence")
    lam = cval >> m_exp

    mod = 1 << m
    y0 = (inst.A * pow(x0, inst.k, mod) + inst.B) % mod
    e1, s1 = char_exp(chi1, x0, r)
    e2, s2 = char_exp(chi2, y0, r)
    sign = s1 * s2
    e = e1 + e2
    half_pow = ((m + n) >> 1) + t + min(1, t)
    acc: dict[int, int] = {}
    if (m - n) % 2 == 0:
        _fold(acc, r, e, sign << half_pow)
        case = CASE_LARGE_EVEN
        h = None
    else:
        c3 = c1 >> nt
        h = (2 * lam + (params.k1 - 1) + (pow(2, n, 8) - 1) * c3) & 7
        coeff = (sign * jacobi2(h)) << half_pow
        step8 = 1 << (r - 3)
        # sqrt(2) * omega^h = zeta_8^(h+1) - zeta_8^(h+3)
        _fold(acc, r, e + (h + 1) * step8, coeff)
        _fold(acc, r, e + (h + 3) * step8, -coeff)
        case = CASE_LARGE_ODD
    cf = _closed(case, r, acc, x0=x0, lam=lam, h=h)
    if cf.magnitude_halves != m + n + 2 * t + 2 * min(1, t):
        raise AssertionError("magnitude disagrees with the regime formula")
    return cf


def evaluate_small(
    inst: SumInstance, chi1: Character, chi2: Character, params: DerivedParams
) -> ClosedForm:
    """m - n <= 2t + 4 (A = 0 included): the sum collapses onto x = +-1.

    Each regime only decides which witnesses survive: x = +1 with weight
    2^(m-1) when x = -1 repeats its term, otherwise x = +1, x = -1 or both,
    each with weight 2^(m-2).  Below the edge (m - n < t + 2) A x^k + B is
    constant on odd x and only the principal chi1 survives.  Elsewhere the
    global necessities apply: chi1(-1) = 1 when k is even, and chi1's
    parameter carries the exact power 2^(n+t).  At the m - n = t + 2 edge
    that means chi1 is the principal character (k even) or the mod-4 sign
    character (k odd); at m - n = t + 3 it pins the parameter to 2^(m-3);
    in between the characteristic values at +-1 decide, and never both.
    Tiny and the edge are decided from chi1's two fields: the principal
    character is s = 1, c = 2^(m-2), the mod-4 sign s = -1, c = 2^(m-2).
    params is derive(inst).
    """
    regime = params.regime
    if regime == REGIME_LARGE:
        raise ValueError(f"not a small-regime instance: {regime}")
    m = inst.m
    k_even = inst.k % 2 == 0
    plus = ((1, m - 1),)
    both = ((1, m - 2), (-1, m - 2))
    if regime == REGIME_TINY:
        witnesses = plus if chi1.s == 1 and chi1.c == 1 << (m - 2) else ()
    elif k_even and chi1.s != 1:
        witnesses = ()
    elif regime == REGIME_EDGE_T2:
        # chi1(5) = 1 and chi1(-1) = (-1)^k: principal (k even) or mod-4 sign (k odd)
        witnesses = plus if chi1.c == 1 << (m - 2) and (k_even or chi1.s == -1) else ()
    elif regime == REGIME_EDGE_T3:
        witnesses = () if chi1.c != 1 << (m - 3) else plus if k_even else both
    else:  # MidRange: t + 3 < m - n <= 2t + 4
        const, coef, cmod = _c_affine(inst, chi1.c, chi2.c, params.N, params.n, m - 2)
        if k_even:
            witnesses = plus if (const + coef) % cmod == 0 else ()
        else:
            witnesses = tuple((x, sh) for x, sh in both if (const + x * coef) % cmod == 0)
            if len(witnesses) == 2:
                raise AssertionError("characteristic values at +1 and -1 cannot both vanish here")
    if not witnesses:
        return _ZEROS[CASE_ZERO_CONDITION, ring_exponent_for(m)]
    return _collapse(regime, inst, chi1, chi2, witnesses)


def _collapse(
    case: str,
    inst: SumInstance,
    chi1: Character,
    chi2: Character,
    witnesses: tuple[tuple[int, int], ...],
    scale_log2: int = 0,
) -> ClosedForm:
    """Sum of 2^shift * chi1(x) * chi2(A x^k + B) over witnesses (x, shift), x = +-1."""
    m = inst.m
    r = ring_exponent_for(m)
    A, B = inst.A, inst.B
    acc: dict[int, int] = {}
    for x, shift in witnesses:
        # A x^k + B at x = -1 is B - A for odd k; an even k meets x = -1 only on
        # the four-term path, where A is even and chi2 lives mod 4, so B - A works too
        y = B - A if x == -1 else B + A
        e, s = char_exp(chi2, y % (1 << m), r)
        _fold(acc, r, e, (s if x == 1 else chi1.s * s) << shift)
    return _closed(case, r, acc, scale_log2=scale_log2)


def _rescale(inner: ClosedForm, outer_m: int, scale_log2: int) -> ClosedForm:
    """Lift a reduced-modulus result into the original ring and multiplicity."""
    r = ring_exponent_for(outer_m)
    f = 1 << (r - inner.ring_exponent)
    terms = tuple((e * f, c << scale_log2) for e, c in inner.terms)
    case = CASE_REDUCED if terms else inner.case
    mag = None if inner.magnitude_halves is None else inner.magnitude_halves + 2 * scale_log2
    return ClosedForm(
        case, r, terms, mag, inner.x0, inner.lambda_parity, inner.h, scale_log2
    )


def closed_form(inst: SumInstance, chi1: Character, chi2: Character) -> ClosedForm:
    """Structured exact evaluation of the sum, without dense ring work."""
    norm = normalize(inst, chi1, chi2)
    if norm.kind == "zero":
        return _ZEROS[norm.zero_case, ring_exponent_for(inst.m)]
    if norm.kind == "direct":
        # both characters live mod 4: x = -1 repeats the x = +1 term or cancels it
        both = ((1, norm.inst.m - 2), (-1, norm.inst.m - 2))
        return _collapse(CASE_REDUCED, norm.inst, norm.chi1, norm.chi2, both, norm.scale_log2)
    params = derive(norm.inst)
    if params.regime == REGIME_LARGE:
        cf = evaluate_large(norm.inst, norm.chi1, norm.chi2, params)
    else:
        cf = evaluate_small(norm.inst, norm.chi1, norm.chi2, params)
    if norm.scale_log2:
        cf = _rescale(cf, inst.m, norm.scale_log2)
    return cf

