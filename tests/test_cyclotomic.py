import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.cyclotomic import CycInt, approx_terms, value_json
from ringref import add, conj, from_int, mul, root_of_unity, scalar_mul, sqrt2, zero


@st.composite
def cycints(draw, max_r=5, max_coeff=9):
    r = draw(st.integers(min_value=1, max_value=max_r))
    n = 1 << (r - 1)
    coeffs = draw(st.lists(st.integers(-max_coeff, max_coeff), min_size=n, max_size=n))
    return CycInt(r, tuple(coeffs))


@st.composite
def cycint_pairs(draw, max_r=5):
    r = draw(st.integers(min_value=1, max_value=max_r))
    n = 1 << (r - 1)
    mk = lambda: tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    return CycInt(r, mk()), CycInt(r, mk())


def test_root_examples():
    assert root_of_unity(3, 2).coeffs == (0, 0, 1, 0)
    assert root_of_unity(3, 6).coeffs == (0, 0, -1, 0)
    assert root_of_unity(1, 1).coeffs == (-1,)
    assert root_of_unity(3, 8) == from_int(1, 3)
    assert root_of_unity(3, -1) == root_of_unity(3, 7)


def test_add_neg_mul_examples():
    z8 = root_of_unity(3, 1)
    assert add(z8, scalar_mul(-1, z8)) == zero(3)
    assert mul(z8, root_of_unity(3, 7)) == from_int(1, 3)
    s = sqrt2(3)
    assert mul(s, s) == from_int(2, 3)


def test_sqrt2_basis():
    assert sqrt2(3).coeffs == (0, 1, 0, -1)
    c = sqrt2(4).coeffs
    assert c[2] == 1 and c[6] == -1 and sum(abs(x) for x in c) == 2
    assert mul(sqrt2(4), sqrt2(4)) == from_int(2, 4)


def test_sqrt2_rejects_small_ring():
    with pytest.raises(ValueError):
        sqrt2(2)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        add(from_int(1, 3), from_int(1, 4))
    with pytest.raises(ValueError):
        mul(from_int(1, 3), from_int(1, 4))


def test_conj_examples():
    z = root_of_unity(3, 3)
    assert conj(root_of_unity(3, 1)) == root_of_unity(3, 7)
    assert conj(from_int(11, 4)) == from_int(11, 4)
    assert mul(z, conj(z)) == from_int(1, 3)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        CycInt(3, (1, 2))
    with pytest.raises(ValueError):
        CycInt(0, ())


@given(cycints())
def test_from_terms_expands_the_nonzero_terms(a):
    # the one sparse-to-dense expansion inverts taking the nonzero coefficients
    assert CycInt.from_terms(a.r, [(e, x) for e, x in enumerate(a.coeffs) if x]) == a


def test_from_terms_examples():
    assert CycInt.from_terms(3, ((0, 2), (3, -1))) == CycInt(3, (2, 0, 0, -1))
    assert CycInt.from_terms(4, ()) == CycInt(4, (0,) * 8)


def _approx(a):
    return approx_terms(a.r, enumerate(a.coeffs))


def test_approx_examples():
    assert _approx(from_int(2, 3)) == (2.0, 0.0)
    re, im = _approx(root_of_unity(2, 1))
    assert abs(re) < 1e-12 and abs(im - 1.0) < 1e-12
    re, im = _approx(sqrt2(3))
    assert abs(re - 2**0.5) < 1e-12 and abs(im) < 1e-12
    re, im = approx_terms(3, ((1, 1), (3, -1)))  # sqrt2(3) as sparse terms
    assert abs(re - 2**0.5) < 1e-12 and abs(im) < 1e-12


def _json(a):
    """The "value" entry value_json writes for a dense value's nonzero
    coefficients, as ClosedForm and `charsum eval` write a ring value."""
    return value_json(a.r, ((j, x) for j, x in enumerate(a.coeffs) if x))["value"]


def test_json_round_trip():
    a = root_of_unity(4, 5)
    assert _json(a) == {"ring_exponent": 4, "terms": [[5, 1]]}
    b = add(root_of_unity(4, 13), from_int(3, 4))
    assert _json(b) == {"ring_exponent": 4, "terms": [[0, 3], [5, -1]]}
    assert _json(zero(4)) == {"ring_exponent": 4, "terms": []}


@given(cycints())
def test_json_round_trip_any_value(a):
    # the JSON terms are exactly the nonzero coefficients, in ascending order
    d = _json(a)
    exps = [e for e, _ in d["terms"]]
    assert exps == sorted(set(exps))
    assert d["ring_exponent"] == a.r
    back = [0] * len(a.coeffs)
    for e, x in d["terms"]:
        assert x != 0
        back[e] = x
    assert tuple(back) == a.coeffs


@given(cycint_pairs())
def test_unique_representation(pair):
    a, b = pair
    if a.coeffs != b.coeffs:
        assert any(add(a, scalar_mul(-1, b)).coeffs)
    else:
        assert not any(add(a, scalar_mul(-1, b)).coeffs)


@given(cycint_pairs())
def test_mul_commutative(pair):
    a, b = pair
    assert mul(a, b) == mul(b, a)


@given(st.data())
def test_mul_associative_and_distributive(data):
    r = data.draw(st.integers(min_value=1, max_value=4))
    n = 1 << (r - 1)
    mk = lambda: CycInt(r, tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
    a, b, c = mk(), mk(), mk()
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(cycint_pairs())
def test_conj_is_ring_homomorphism_and_involution(pair):
    a, b = pair
    assert conj(conj(a)) == a
    assert conj(add(a, b)) == add(conj(a), conj(b))
    assert conj(mul(a, b)) == mul(conj(a), conj(b))


@given(cycints())
def test_norm_is_real_nonnegative(a):
    re, im = _approx(mul(a, conj(a)))
    assert abs(im) < 1e-9
    assert re >= -1e-9


@given(st.integers(min_value=1, max_value=6), st.integers(), st.integers())
def test_root_exponent_arithmetic(r, i, j):
    assert mul(root_of_unity(r, i), root_of_unity(r, j)) == root_of_unity(r, i + j)
