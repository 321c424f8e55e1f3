"""Multiplicative characters mod 2^m, parameterized by their values on -1 and 5.

For m >= 3 the odd residues mod 2^m are generated by -1 and 5, with 5 of
order 2^(m-2), so a character is the data (m, s, c): s = chi(-1) in {+1,-1}
and chi(5) = e^(2*pi*i*c/2^(m-2)) with 1 <= c <= 2^(m-2).  Characters vanish
on even arguments by convention, which is what makes them drop terms out of
the sums downstream.

The other input record lives here too: `SumInstance`, the (m, A, B, k) of one
sum.  Both the closed form and the summation oracle take it from this module,
so neither has to import the other.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import MAX_M, WidthCapError
from .frozen import Frozen
from .ring2adic import dlog5, v2


class SumInstance(Frozen, namedtuple("SumInstance", "m A B k")):
    """Parameters (m, A, B, k) naming one concrete sum."""

    __slots__ = ()

    def __new__(cls, m: int, A: int, B: int, k: int) -> SumInstance:
        if m < 3:
            raise ValueError(f"modulus exponent must be >= 3, got {m}")
        if m > MAX_M:
            raise WidthCapError(f"modulus exponent {m} exceeds cap {MAX_M}")
        if not 0 <= A < 1 << m or not 0 <= B < 1 << m:
            raise ValueError("A and B must be residues in [0, 2^m)")
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        return tuple.__new__(cls, (m, A, B, k))


class Character(Frozen, namedtuple("Character", "m s c")):
    """Character mod 2^m with chi(-1) = s and chi(5) = e_{2^(m-2)}(c)."""

    __slots__ = ()

    def __new__(cls, m: int, s: int, c: int) -> Character:
        if m < 3:
            raise ValueError(f"modulus exponent must be >= 3, got {m}")
        if s not in (1, -1):
            raise ValueError(f"sign value must be +1 or -1, got {s}")
        if not 1 <= c <= 1 << (m - 2):
            raise ValueError(f"c must lie in [1, 2^{m - 2}] = [1, {1 << (m - 2)}], got {c}")
        return tuple.__new__(cls, (m, s, c))


def char_exp(chi: Character, x: int, r: int) -> tuple[int, int]:
    """(e, sign) with chi(x) = sign * zeta_{2^r}^e, for odd x and r >= m - 2."""
    if chi.c == 1 << (chi.m - 2):
        # chi(5) = 1: chi is its sign on x = 3 mod 4, no discrete log needed
        if x % 2 == 0:
            raise ValueError(f"{x} is even; characters take no exponent there")
        return 0, chi.s if x & 3 == 3 else 1
    eps, gamma = dlog5(x, chi.m)
    # chi(x) = s^eps * zeta_{2^(m-2)}^(c*gamma), re-indexed into ring 2^r
    return (chi.c * gamma) << (r - (chi.m - 2)), chi.s if eps else 1


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
