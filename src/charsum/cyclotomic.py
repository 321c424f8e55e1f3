"""Exact values in the cyclotomic ring Z[zeta] for zeta = e^(2*pi*i/2^r).

Elements are stored on the power basis zeta^0 .. zeta^(2^(r-1) - 1) with the
single relation zeta^(2^(r-1)) = -1.  The representation is unique, so ring
equality is coefficient equality and "equals zero" needs no tolerance.
Values are kept sparse, as sorted (exponent, coeff) pairs with nonzero
coefficients: the closed form's terms and the summation oracle's
`brute_terms` have that shape, so their equality is tuple equality, and the
helpers here square, print and approximate such terms without densifying
them: `value_json` writes both sides of `eval`.  `abs2_terms` squares any
term list, for the sweep's magnitude check (criterion 3); the closed form
squares its one or two terms itself.  CycInt is the dense form, for
`ClosedForm.value()` and the oracle's `brute_force` and `half_sum` views;
all three expand their terms through `CycInt.from_terms`, the one
sparse-to-dense expansion in the package.
"""

from __future__ import annotations

import math
from collections import namedtuple

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

    @classmethod
    def from_terms(cls, r: int, terms) -> CycInt:
        """The dense element of sparse (exponent, coeff) pairs with distinct
        exponents below 2^(r-1): the package's one sparse-to-dense expansion."""
        coeffs = [0] * (1 << (r - 1))
        for e, x in terms:
            coeffs[e] = x
        return cls(r, tuple(coeffs))


def value_json(r: int, terms) -> dict:
    """A ring value's two JSON entries: "value", its nonzero (exponent, coeff)
    pairs, ascending, and "approx", its double-precision complex value."""
    terms = list(terms)  # read twice, and callers may pass a generator
    re, im = approx_terms(r, terms)
    return {"value": {"ring_exponent": r, "terms": [[e, x] for e, x in terms]},
            "approx": {"re": re, "im": im}}


def abs2_terms(r: int, terms) -> dict[int, int]:
    """S * conj(S) for S = sum coeff * zeta_{2^r}^exponent, as {exponent: coeff}
    on the power basis (nonzero coefficients only), computed over the terms."""
    half = 1 << (r - 1)
    full = (1 << r) - 1
    acc: dict[int, int] = {}
    for e1, x1 in terms:
        for e2, x2 in terms:
            e = (e1 - e2) & full
            x = x1 * x2
            if e >= half:
                e -= half
                x = -x
            acc[e] = acc.get(e, 0) + x
    if 0 in acc.values():
        return {e: x for e, x in acc.items() if x}
    return acc


def ring_exponent_for(m: int) -> int:
    """Ring holding both the character values mod 2^m and the eighth roots of unity."""
    return max(m - 2, 3)


def approx_terms(r: int, terms) -> tuple[float, float]:
    """Double-precision complex value of sum coeff * zeta_{2^r}^exponent, for
    display only (never for equality)."""
    step = 2.0 * math.pi / (1 << r)
    re = im = 0.0
    for e, x in terms:
        re += x * math.cos(step * e)
        im += x * math.sin(step * e)
    return re, im
