import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charsum
from charsum.errors import MAX_M
from charsum.ring2adic import (
    _log_table,
    cofactor_ratio,
    dlog5,
    five_pow_cofactor,
    jacobi2,
    v2,
)


@pytest.mark.parametrize("x,e", [(8, 3), (12, 2), (1, 0), (2, 1), (96, 5)])
def test_v2_examples(x, e):
    assert v2(x) == e


def test_v2_rejects_nonpositive():
    with pytest.raises(ValueError):
        v2(0)
    with pytest.raises(ValueError):
        v2(-4)


@pytest.mark.parametrize("i,w,out", [(2, 8, 1), (3, 8, 3), (4, 4, 7)])
def test_cofactor_examples(i, w, out):
    assert five_pow_cofactor(i, w) == out


def test_cofactor_rejects_small_i():
    with pytest.raises(ValueError):
        five_pow_cofactor(1, 8)


def test_cofactor_cached_value_is_exact_and_bad_arguments_still_raise():
    def exact(i):
        return (5 ** (1 << (i - 2)) - 1) // (1 << i)

    for i, w in ((5, 31), (16, 31), (3, 1)):
        assert five_pow_cofactor(i, w) == exact(i) % (1 << w)
    # the ratio holds the package's one cofactor cache
    for i, n, w in ((5, 3, 31), (14, 2, 31), (3, 2, 1)):
        mod = 1 << w
        first = cofactor_ratio(i, n, w)
        hits = cofactor_ratio.cache_info().hits
        assert cofactor_ratio(i, n, w) == first == exact(i) * pow(exact(i + n), -1, mod) % mod
        assert cofactor_ratio.cache_info().hits == hits + 1
    for i, w in ((1, 8), (0, 8), (4, 0), (4, -1)):
        for _ in range(2):
            with pytest.raises(ValueError):
                five_pow_cofactor(i, w)
            with pytest.raises(ValueError):
                cofactor_ratio(i, 1, w)


@pytest.mark.parametrize("i", range(2, 14))
def test_cofactor_against_exact_integers(i):
    # independent route: compute 5^(2^(i-2)) as an exact integer and divide
    exact = (5 ** (1 << (i - 2)) - 1) // (1 << i)
    assert exact * (1 << i) + 1 == 5 ** (1 << (i - 2))
    for w in (1, 2, 7, 16):
        assert five_pow_cofactor(i, w) == exact % (1 << w)


@pytest.mark.parametrize("i", range(2, 20))
def test_cofactor_is_odd_and_three_mod_four(i):
    assert five_pow_cofactor(i, 4) % 2 == 1
    if i >= 3:
        assert five_pow_cofactor(i, 2) == 3


@pytest.mark.parametrize("w", [6, 11, 17])
def test_cofactor_recurrence(w):
    # successive cofactors satisfy next = r + 2^(i-1) r^2 (exactly mod 2^w)
    mod = 1 << w
    for i in range(2, w + 4):
        r = five_pow_cofactor(i, w)
        nxt = five_pow_cofactor(i + 1, w)
        assert nxt == (r + (1 << (i - 1)) * r * r) % mod


@pytest.mark.parametrize("x,m,out", [(25, 5, (0, 2)), (7, 5, (1, 2)), (1, 9, (0, 0))])
def test_dlog5_examples(x, m, out):
    assert dlog5(x, m) == out


def test_dlog5_rejects_even_and_tiny_modulus():
    with pytest.raises(ValueError):
        dlog5(4, 5)
    with pytest.raises(ValueError):
        dlog5(3, 2)


def _undo_dlog5(eps, gamma, m):
    mod = 1 << m
    back = pow(5, gamma, mod)
    return mod - back if eps else back


@pytest.mark.parametrize("m", range(3, 17))
def test_dlog5_round_trip_exhaustive(m):
    for x in range(1, 1 << m, 2):
        eps, gamma = dlog5(x, m)
        assert 0 <= gamma < 1 << (m - 2)
        assert (eps == 0) == (x % 4 == 1)
        assert _undo_dlog5(eps, gamma, m) == x


# widths at the edges of dlog5's split into a looked-up h = max(ceil(m/2), 2)
# bits and a linear tail of m - h: m = 3, 4 (h = 2), m = 2h - 1 (the tail is one
# bit shorter than the table) and m = 2h, for several h, up to MAX_M
@pytest.mark.parametrize("m", [3, 4, 5, 6, 9, 10, 11, 12, 17, 18, 19, 20, 25, 26, 27, 28, 29, 30])
def test_dlog5_digit_boundary_widths(m):
    top = 1 << (m - 2)
    split = 1 << (max((m + 1) // 2, 2) - 2)  # gamma's bits below it come from the table
    gammas = {0, 1, 254, 255, 256, 257, 511, top - 256, top - 255, top // 2, top - 1}
    gammas |= {(1 << b) + d for b in (8, 16, 24) for d in (-1, 0, 1)}
    gammas |= {split * j + d for j in (1, 2, 3, top // split - 1) for d in (-1, 0, 1)}
    gammas |= {g * 0x9E3779B1 % top for g in range(1, 200)}
    mod = 1 << m
    for gamma in sorted(g for g in gammas if 0 <= g < top):
        x = pow(5, gamma, mod)
        assert dlog5(x, m) == (0, gamma)
        assert dlog5(mod - x, m) == (1, gamma)
        assert dlog5(x + 7 * mod, m) == (0, gamma)


@pytest.mark.parametrize(
    "x,out",
    [
        (1, (0, 0)),
        ((1 << 30) - 1, (1, 0)),
        ((1 << 29) + 1, (0, 1 << 27)),
        ((1 << 29) - 1, (1, 1 << 27)),
    ],
)
def test_dlog5_extremes_at_m30(x, out):
    assert dlog5(x, 30) == out


def test_dlog5_tables_are_exact_permutations():
    # every residue = 1 mod 4 below 2^h has one entry, holding its log and the
    # power of 5 that divides it out mod 2^MAX_M; u of 5^(2^(h-2)) = 1 + 2^h u is odd
    full = 1 << MAX_M
    for h in range(2, (MAX_M + 1) // 2 + 1):
        logs, inverses, u = _log_table(h)
        size = 1 << (h - 2)
        assert len(logs) == len(inverses) == size
        assert sorted(logs) == list(range(size))
        for i, l in enumerate(logs):
            assert pow(5, l, 1 << h) == 4 * i + 1
            assert inverses[i] * pow(5, l, full) % full == 1
        assert u % 2 == 1
        assert pow(5, size, 1 << (2 * h)) == 1 + (u << h)


def test_importing_the_cli_builds_no_dlog_table():
    # the tables are built on dlog5's first call at each width, never at import;
    # after dlog5(3, 20) each cache holds one entry, and probing h = 10 and
    # m = 20 hits it: exactly that table and that width exist
    script = (
        "import charsum.cli, charsum.ring2adic as r; "
        "t, w = r._log_table, r._log_width; "
        "print(t.cache_info().currsize, w.cache_info().currsize); "
        "r.dlog5(3, 20); t(10); w(20); "
        "print(*((c.hits, c.misses, c.currsize) for c in (t.cache_info(), w.cache_info())))"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 0", "(1, 1, 1) (1, 1, 1)"]


def test_dlog5_refuses_widths_above_max_m():
    assert _undo_dlog5(*dlog5(3, MAX_M), MAX_M) == 3
    for m in (MAX_M + 1, MAX_M + 8, 64):
        with pytest.raises(ValueError):
            dlog5(3, m)


@given(st.integers(min_value=3, max_value=MAX_M), st.integers(min_value=0, max_value=1 << MAX_M))
def test_dlog5_round_trip_random(m, seedval):
    x = (2 * seedval + 1) % (1 << m)
    eps, gamma = dlog5(x, m)
    assert 0 <= gamma < 1 << (m - 2)
    assert _undo_dlog5(eps, gamma, m) == x


@pytest.mark.parametrize("h,out", [(1, 1), (3, -1), (5, -1), (7, 1)])
def test_jacobi2_table(h, out):
    assert jacobi2(h) == out


def test_jacobi2_rejects_even():
    with pytest.raises(ValueError):
        jacobi2(10)


@given(st.integers(min_value=0, max_value=10**9))
def test_jacobi2_formula_and_periodicity(n):
    h = 2 * n + 1
    assert jacobi2(h) == (-1) ** (((h * h - 1) // 8) % 2)
    assert jacobi2(h) == jacobi2(h & 7)
