import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.characters import Character, char_exp
from charsum.cyclotomic import zero
from ringref import (
    char_conj,
    char_mul,
    char_pow,
    conductor,
    eval_char,
    from_int,
    induced,
    is_primitive,
    mul,
    principal,
    root_of_unity,
    sign_mod4,
)


def all_characters(m):
    return [Character(m, s, c) for c in range(1, (1 << (m - 2)) + 1) for s in (1, -1)]


def test_parameter_validation():
    with pytest.raises(ValueError):
        Character(2, 1, 1)
    with pytest.raises(ValueError):
        Character(5, 0, 1)
    with pytest.raises(ValueError):
        Character(5, 1, 9)  # above 2^(m-2)
    with pytest.raises(ValueError):
        Character(5, 1, 0)


def test_eval_examples():
    m = 5
    for x in (1, 3, 7, 31):
        assert eval_char(principal(m), x, 3) == from_int(1, 3)
    assert eval_char(sign_mod4(m), 7, 3) == root_of_unity(3, 4)  # -1: 7 = 3 mod 4
    # chi(5) a primitive eighth root: at 25 = 5^2 the value is i
    assert eval_char(Character(5, 1, 1), 25, 3) == root_of_unity(3, 2)


def test_eval_even_argument_is_zero():
    assert eval_char(Character(6, -1, 3), 12, 4) == zero(4)
    assert eval_char(Character(6, -1, 3), 0, 4) == zero(4)


def test_eval_rejects_small_ring():
    with pytest.raises(ValueError):
        eval_char(Character(8, 1, 1), 3, 5)  # needs r >= 6


@pytest.mark.parametrize("m", [3, 6, 12])
def test_char_exp_refuses_even_argument_without_dlog(m):
    # chi(5) = 1 reads chi(x) from x mod 4, which has no value at an even x
    for x in (0, 2, 1 << (m - 1)):
        with pytest.raises(ValueError, match="is even"):
            char_exp(Character(m, -1, 1 << (m - 2)), x, max(m - 2, 3))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_multiplicative_exhaustive(m):
    r = max(m - 2, 3)
    mod = 1 << m
    for chi in all_characters(m):
        vals = {x: eval_char(chi, x, r) for x in range(1, mod, 2)}
        for x in range(1, mod, 2):
            for y in range(1, mod, 2):
                assert mul(vals[x], vals[y]) == vals[x * y % mod]


@given(st.integers(min_value=3, max_value=12), st.data())
def test_multiplicative_random(m, data):
    r = max(m - 2, 3)
    mod = 1 << m
    chi = Character(
        m,
        data.draw(st.sampled_from((1, -1))),
        data.draw(st.integers(min_value=1, max_value=1 << (m - 2))),
    )
    x = data.draw(st.integers(min_value=0, max_value=(mod >> 1) - 1)) * 2 + 1
    y = data.draw(st.integers(min_value=0, max_value=(mod >> 1) - 1)) * 2 + 1
    assert mul(eval_char(chi, x, r), eval_char(chi, y, r)) == eval_char(chi, x * y % mod, r)


@pytest.mark.parametrize(
    "chi,expect",
    [
        (Character(5, 1, 3), True),
        (Character(5, 1, 2), False),
        (principal(5), False),
        (sign_mod4(7), False),
    ],
)
def test_is_primitive_examples(chi, expect):
    assert is_primitive(chi) == expect


@pytest.mark.parametrize("m", range(3, 11))
def test_primitive_iff_minus_one_at_half_level(m):
    # primitive exactly when the character separates 1 from 1 + 2^(m-1)
    r = max(m - 2, 3)
    u = 1 + (1 << (m - 1))
    minus_one = root_of_unity(r, 1 << (r - 1))
    for chi in all_characters(m):
        assert is_primitive(chi) == (eval_char(chi, u, r) == minus_one)


def _conductor_by_period(chi):
    """Independent route: smallest m' with chi constant on classes mod 2^(m')."""
    m = chi.m
    r = max(m - 2, 3)
    mod = 1 << m
    table = {x: eval_char(chi, x, r) for x in range(1, mod, 2)}
    for mp in range(0, m + 1):
        step = 1 << mp
        classes: dict = {}
        good = True
        for x in range(1, mod, 2):
            key = x % step
            if key in classes:
                if classes[key] != table[x]:
                    good = False
                    break
            else:
                classes[key] = table[x]
        if good:
            return mp
    return m


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_conductor_matches_value_table_period(m):
    for chi in all_characters(m):
        assert conductor(chi) == _conductor_by_period(chi)


def test_conductor_examples():
    assert conductor(principal(6)) == 0
    assert conductor(sign_mod4(6)) == 2
    assert conductor(Character(5, 1, 2)) == 4
    assert conductor(Character(5, 1, 3)) == 5


def test_induced_round_trip():
    chi = Character(8, -1, 8)  # conductor 5
    mp = conductor(chi)
    low = induced(chi, mp)
    r = 6
    for x in range(1, 1 << 8, 2):
        assert eval_char(chi, x, r) == eval_char(low, x % (1 << mp), r)
    with pytest.raises(ValueError):
        induced(Character(8, 1, 3), 5)  # primitive: cannot push down


def test_char_algebra_examples():
    m = 5
    assert char_conj(principal(m)) == principal(m)
    assert char_mul(sign_mod4(m), sign_mod4(m)) == principal(m)
    assert char_pow(Character(m, -1, 1), 2) == Character(m, 1, 2)
    with pytest.raises(ValueError):
        char_mul(principal(5), principal(6))


@pytest.mark.parametrize("m", [4, 6])
def test_char_algebra_matches_pointwise(m):
    r = max(m - 2, 3)
    mod = 1 << m
    chars = all_characters(m)
    for a in chars[::3]:
        for b in chars[::5]:
            ab = char_mul(a, b)
            ac = char_conj(a)
            for x in range(1, mod, 2):
                assert eval_char(ab, x, r) == mul(eval_char(a, x, r), eval_char(b, x, r))
                assert mul(eval_char(ac, x, r), eval_char(a, x, r)) == from_int(1, r)
    for a in chars[::7]:
        for k in (1, 2, 3, 5):
            ak = char_pow(a, k)
            for x in range(1, mod, 2):
                want = from_int(1, r)
                for _ in range(k):
                    want = mul(want, eval_char(a, x, r))
                assert eval_char(ak, x, r) == want
