"""Exact modular arithmetic in Z/2^w.

Residues are plain non-negative ints below 2^w, with the width passed
explicitly where it matters.  Provides 2-adic valuations, the odd cofactors
that convert powers of 5 into additive 2-adic shifts, a discrete logarithm to
base 5 read one byte-digit at a time from tables built at import, and the
Jacobi symbol (2/h).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import MAX_M


def v2(x: int) -> int:
    """2-adic valuation: the largest e with 2^e dividing x.  Requires x >= 1."""
    if x < 1:
        raise ValueError(f"v2 is undefined for x={x}; need x >= 1")
    return (x & -x).bit_length() - 1


def five_pow_cofactor(i: int, w: int) -> int:
    """The odd cofactor R with 5^(2^(i-2)) = 1 + R * 2^i, reduced mod 2^w.

    Defined for i >= 2.  Computing 5^(2^(i-2)) mod 2^(w+i) and stripping the
    known 2^i factor gives R exactly mod 2^w.  Uncached: cofactor_ratio's
    cache is the package's one cofactor cache.
    """
    if i < 2:
        raise ValueError(f"cofactor undefined for i={i}; need i >= 2")
    if w < 1:
        raise ValueError(f"width must be >= 1, got {w}")
    p = pow(5, 1 << (i - 2), 1 << (w + i))
    return (p - 1) >> i


@lru_cache(maxsize=4096)
def cofactor_ratio(i: int, n: int, w: int) -> int:
    """R_i / R_(i+n) mod 2^w (R_j = five_pow_cofactor(j, w)); cached, because
    the evaluator asks for the same few small (i, n, w) over and over."""
    mod = 1 << w
    return five_pow_cofactor(i, w) * pow(five_pow_cofactor(i + n, w), -1, mod) % mod


# Byte-digit discrete log.  Digit j of gamma (bits 8j .. 8j+7) is read from
# bits 8j+2 .. 8j+9 of y once the lower digits are divided out (then
# y = 5^(gamma >> 8j) = 1 mod 2^(8j+2)); for j >= 1 that byte is the digit
# times an odd unit, since 5^(2^(8j)) = 1 + 2^(8j+2) u and 2(8j+2) >= 8j+10.
# Per position j and byte b the tables hold d << 8j and 5^(-d 2^(8j)) mod
# 2^_DLOG_W; _DLOG_W covers the top byte read at MAX_M, so each step is exact
# mod 2^_DLOG_W and y's bits above m only perturb digits past bit m-3.
_DLOG_DIGITS = (MAX_M - 2 + 7) >> 3
_DLOG_W = 8 * _DLOG_DIGITS + 2
_DLOG_MASK = (1 << _DLOG_W) - 1


def _dlog_tables() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    steps = []
    for j in range(_DLOG_DIGITS):
        step = pow(5, 1 << (8 * j), 1 << _DLOG_W)
        step_inv = pow(step, -1, 1 << _DLOG_W)
        digit = [0] * 256
        undo = [0] * 256
        fwd, back = 1, 1
        for d in range(256):
            b = (fwd >> (8 * j + 2)) & 255
            digit[b] = d << (8 * j)
            undo[b] = back
            fwd = fwd * step & _DLOG_MASK
            back = back * step_inv & _DLOG_MASK
        steps.append((tuple(digit), tuple(undo)))
    return tuple(steps)


_DLOG_STEPS = _dlog_tables()


def dlog5(x: int, m: int) -> tuple[int, int]:
    """Decompose odd x as (-1)^eps * 5^gamma mod 2^m, for 3 <= m <= MAX_M.

    Returns (eps, gamma) with eps in {0, 1} and 0 <= gamma < 2^(m-2);
    eps = 0 exactly when x = 1 mod 4.  gamma is read one byte-digit at a
    time: a table lookup gives the digit and the power of 5 that clears it,
    so m = 30 takes 4 steps.
    """
    if not 3 <= m <= MAX_M:
        raise ValueError(f"modulus exponent must be in [3, {MAX_M}], got {m}")
    if x % 2 == 0:
        raise ValueError(f"{x} is even; only odd residues decompose")
    mod = 1 << m
    x %= mod
    eps = 0 if x & 3 == 1 else 1
    y = x if eps == 0 else mod - x
    gamma = 0
    shift = 2
    for digit, undo in _DLOG_STEPS[: (m + 5) >> 3]:
        b = (y >> shift) & 255
        gamma += digit[b]
        y = y * undo[b] & _DLOG_MASK
        shift += 8
    return eps, gamma & ((1 << (m - 2)) - 1)


_JACOBI2 = {1: 1, 3: -1, 5: -1, 7: 1}


def jacobi2(h: int) -> int:
    """Jacobi symbol (2/h) = (-1)^((h^2-1)/8) for odd h; depends on h mod 8."""
    if h % 2 == 0:
        raise ValueError(f"(2/h) undefined for even h={h}")
    return _JACOBI2[h & 7]
