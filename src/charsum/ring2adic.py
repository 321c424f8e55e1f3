"""Exact modular arithmetic in Z/2^w.

Residues are plain non-negative ints below 2^w, with the width passed
explicitly where it matters.  Provides 2-adic valuations, the odd cofactors
that convert powers of 5 into additive 2-adic shifts, a discrete logarithm to
base 5 that costs one table lookup and a linear tail, and the Jacobi symbol
(2/h).  The logarithm's tables are built on first use, never at import.  The
oracle splits its logarithms by the same 2-adic identity in code of its own;
tests/test_oracle.py checks that neither route calls the other's.
"""

from __future__ import annotations

from array import array
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


# Discrete log by one lookup and a linear tail.  With h = max(ceil(m/2), 2),
# y = 1 mod 4 is 5^l mod 2^h for exactly one l < 2^(h-2), and a table indexed
# by y mod 2^h holds l and 5^(-l) mod 2^MAX_M, so one table serves every m with
# that h.  Then y 5^(-l) = 1 + 2^h z mod 2^m, and since 2h >= m,
# (1 + 2^h a)(1 + 2^h b) = 1 + 2^h (a + b) mod 2^m: the group 1 + 2^h Z/2^m is
# cyclic and adds like Z/2^(m-h), generated by 5^(2^(h-2)) = 1 + 2^h u with u
# odd.  So gamma = l + 2^(h-2) (z u^(-1) mod 2^(m-h)).  _log_width(m) holds
# the constants dlog5 reads at width m.  Both caches fill on the first call at
# their width, never at import; all tables (h <= 15) take about 128 KB.
@lru_cache(maxsize=None)
def _log_table(h: int) -> tuple[array, array, int]:
    """(logs, inverses, u) for width h >= 2: entry (y mod 2^h) >> 2 of logs is
    the l < 2^(h-2) with 5^l = y mod 2^h, and of inverses 5^(-l) mod 2^MAX_M;
    5^(2^(h-2)) = 1 + 2^h u mod 2^(2h)."""
    size = 1 << (h - 2)
    logs = array("I", bytes(4 * size))
    inverses = array("I", bytes(4 * size))
    low, full = (1 << h) - 1, (1 << MAX_M) - 1
    five_inv = pow(5, -1, 1 << MAX_M)
    fwd = back = 1
    for l in range(size):
        i = fwd >> 2
        logs[i] = l
        inverses[i] = back
        fwd = fwd * 5 & low
        back = back * five_inv & full
    return logs, inverses, (pow(5, size, 1 << (2 * h)) - 1) >> h


@lru_cache(maxsize=None)
def _log_width(m: int) -> tuple:
    """dlog5's constants at width m: the table of h = max(ceil(m/2), 2), the
    masks of m, h and m - h bits, u^(-1) mod 2^(m-h) and the tail's shift."""
    h = max((m + 1) >> 1, 2)
    logs, inverses, u = _log_table(h)
    tail = (1 << (m - h)) - 1
    return logs, inverses, (1 << m) - 1, (1 << h) - 1, h, pow(u, -1, tail + 1), tail, h - 2


def dlog5(x: int, m: int) -> tuple[int, int]:
    """Decompose odd x as (-1)^eps * 5^gamma mod 2^m, for 3 <= m <= MAX_M.

    Returns (eps, gamma) with eps in {0, 1} and 0 <= gamma < 2^(m-2);
    eps = 0 exactly when x = 1 mod 4.  gamma costs one table lookup on the
    low h = max(ceil(m/2), 2) bits of +-x and a linear tail on the other
    m - h; the first call at a width builds its table.
    """
    if not 3 <= m <= MAX_M:
        raise ValueError(f"modulus exponent must be in [3, {MAX_M}], got {m}")
    if x % 2 == 0:
        raise ValueError(f"{x} is even; only odd residues decompose")
    logs, inverses, mask, low, h, u_inv, tail, shift = _log_width(m)
    x &= mask
    if x & 2:
        eps, y = 1, mask + 1 - x
    else:
        eps, y = 0, x
    i = (y & low) >> 2
    return eps, logs[i] + ((((y * inverses[i] & mask) >> h) * u_inv & tail) << shift)


_JACOBI2 = {1: 1, 3: -1, 5: -1, 7: 1}


def jacobi2(h: int) -> int:
    """Jacobi symbol (2/h) = (-1)^((h^2-1)/8) for odd h; depends on h mod 8."""
    if h % 2 == 0:
        raise ValueError(f"(2/h) undefined for even h={h}")
    return _JACOBI2[h & 7]
