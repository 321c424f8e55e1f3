"""Exact values in the cyclotomic ring Z[zeta] for zeta = e^(2*pi*i/2^r).

Elements are stored on the power basis zeta^0 .. zeta^(2^(r-1) - 1) with the
single relation zeta^(2^(r-1)) = -1.  The representation is unique, so ring
equality is coefficient equality and "equals zero" needs no tolerance.
Dense values (CycInt) are what the summation oracle returns; it accumulates
into a plain list and freezes it at the end.  The closed form keeps sparse
(exponent, coeff) term lists, and the helpers here compare, square, print and
approximate those without densifying them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress, count

from .frozen import Frozen


class CycInt(Frozen, namedtuple("CycInt", "r coeffs")):
    """An element of Z[zeta_{2^r}]: sum of coeffs[j] * zeta^j, j < 2^(r-1)."""

    __slots__ = ()

    def __new__(cls, r: int, coeffs: tuple[int, ...]) -> CycInt:
        if r < 1:
            raise ValueError(f"ring exponent must be >= 1, got {r}")
        if len(coeffs) != 1 << (r - 1):
            raise ValueError(
                f"ring 2^{r} needs {1 << (r - 1)} coefficients, got {len(coeffs)}"
            )
        return tuple.__new__(cls, (r, coeffs))

    def to_json_dict(self) -> dict:
        c = self.coeffs
        # compress walks the coefficients in C and yields the nonzero ones' indices
        return terms_json(self.r, ((j, c[j]) for j in compress(count(), c)))


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


def ring_exponent_for(m: int) -> int:
    """Ring holding both the character values mod 2^m and the eighth roots of unity."""
    return max(m - 2, 3)


def zero(r: int) -> CycInt:
    return CycInt(r, (0,) * (1 << (r - 1)))


def approx_terms(r: int, terms) -> tuple[float, float]:
    """Double-precision complex value of sum coeff * zeta_{2^r}^exponent, for
    display only (never for equality)."""
    step = 2.0 * math.pi / (1 << r)
    re = im = 0.0
    for e, x in terms:
        re += x * math.cos(step * e)
        im += x * math.sin(step * e)
    return re, im
