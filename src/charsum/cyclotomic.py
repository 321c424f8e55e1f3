"""Exact integer arithmetic in the cyclotomic ring Z[zeta] for zeta = e^(2*pi*i/2^r).

Elements are stored on the power basis zeta^0 .. zeta^(2^(r-1) - 1) with the
single relation zeta^(2^(r-1)) = -1.  The representation is unique, so ring
equality is coefficient equality and "equals zero" needs no tolerance.
Values are immutable; the summation oracle accumulates into a plain list and
freezes it at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CycInt:
    """An element of Z[zeta_{2^r}]: sum of coeffs[j] * zeta^j, j < 2^(r-1)."""

    r: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"ring exponent must be >= 1, got {self.r}")
        if len(self.coeffs) != 1 << (self.r - 1):
            raise ValueError(
                f"ring 2^{self.r} needs {1 << (self.r - 1)} coefficients, "
                f"got {len(self.coeffs)}"
            )

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_json_dict(self) -> dict:
        return terms_json(self.r, _nonzero(self.coeffs))


def _nonzero(coeffs: tuple[int, ...]):
    return ((j, x) for j, x in enumerate(coeffs) if x)


def terms_json(r: int, terms) -> dict:
    """JSON form of a ring value: its nonzero (exponent, coeff) pairs, ascending."""
    return {"ring_exponent": r, "terms": [[e, x] for e, x in terms]}


def matches_dense(r: int, terms, dense: CycInt) -> bool:
    """Exact sparse-against-dense equality, without densifying the sparse side.

    terms are (exponent, coeff) pairs with distinct exponents and nonzero
    coefficients, as ClosedForm.terms holds them.
    """
    c = dense.coeffs
    if r != dense.r or len(c) - c.count(0) != len(terms):
        return False
    return all(0 <= e < len(c) and c[e] == x for e, x in terms)


def abs2_terms(r: int, terms) -> dict[int, int]:
    """S * conj(S) for S = sum coeff * zeta_{2^r}^exponent, as {exponent: coeff}
    on the power basis (nonzero coefficients only), computed over the terms."""
    half = 1 << (r - 1)
    acc: dict[int, int] = {}
    for e1, x1 in terms:
        for e2, x2 in terms:
            e = (e1 - e2) % (1 << r)
            x = x1 * x2
            if e >= half:
                e -= half
                x = -x
            acc[e] = acc.get(e, 0) + x
    return {e: x for e, x in acc.items() if x}


def zero(r: int) -> CycInt:
    return CycInt(r, (0,) * (1 << (r - 1)))


def from_int(n: int, r: int) -> CycInt:
    c = [0] * (1 << (r - 1))
    c[0] = n
    return CycInt(r, tuple(c))


def one(r: int) -> CycInt:
    return from_int(1, r)


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


def neg(a: CycInt) -> CycInt:
    return CycInt(a.r, tuple(-x for x in a.coeffs))


def scalar_mul(n: int, a: CycInt) -> CycInt:
    return CycInt(a.r, tuple(n * x for x in a.coeffs))


def mul(a: CycInt, b: CycInt) -> CycInt:
    """Exact product; exponents past 2^(r-1) wrap with a sign flip.

    Works over the nonzero supports, so products of the sparse values this
    package actually produces (a handful of terms) stay cheap even in big
    rings.
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


def lift(a: CycInt, r2: int) -> CycInt:
    """Re-express a in the larger ring 2^r2: coefficient j moves to j * 2^(r2-r)."""
    if r2 < a.r:
        raise ValueError(f"cannot lift from ring 2^{a.r} down to 2^{r2}")
    if r2 == a.r:
        return a
    f = 1 << (r2 - a.r)
    c = [0] * (1 << (r2 - 1))
    for j, x in enumerate(a.coeffs):
        if x:
            c[j * f] = x
    return CycInt(r2, tuple(c))


def conj(a: CycInt) -> CycInt:
    """Complex conjugation, the ring automorphism zeta -> zeta^(-1)."""
    half = 1 << (a.r - 1)
    c = [0] * half
    c[0] = a.coeffs[0]
    for j in range(1, half):
        c[half - j] = -a.coeffs[j]
    return CycInt(a.r, tuple(c))


def approx_terms(r: int, terms) -> tuple[float, float]:
    """Double-precision complex value of sum coeff * zeta_{2^r}^exponent, for
    display only (never for equality)."""
    step = 2.0 * math.pi / (1 << r)
    re = im = 0.0
    for e, x in terms:
        re += x * math.cos(step * e)
        im += x * math.sin(step * e)
    return re, im


def approx_complex(a: CycInt) -> tuple[float, float]:
    """approx_terms of a dense ring element."""
    return approx_terms(a.r, _nonzero(a.coeffs))


def from_json_dict(d: dict) -> CycInt:
    """Inverse of CycInt.to_json_dict."""
    r = int(d["ring_exponent"])
    c = [0] * (1 << (r - 1))
    for e, x in d["terms"]:
        e = int(e)
        if not 0 <= e < len(c):
            raise ValueError(f"exponent {e} outside ring 2^{r}")
        c[e] = int(x)
    return CycInt(r, tuple(c))
