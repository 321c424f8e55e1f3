import importlib.util
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum.characters
import charsum.evaluator
from charsum.characters import Character
from charsum.cyclotomic import CycInt
from charsum.errors import WidthCapError
from charsum.evaluator import (
    CASE_LARGE_EVEN,
    CASE_LARGE_ODD,
    CASE_REDUCED,
    CASE_ZERO_CONDITION,
    CASE_ZERO_IMPRIMITIVE,
    CASE_ZERO_PARITY,
    REGIME_EDGE_T2,
    REGIME_EDGE_T3,
    REGIME_LARGE,
    REGIME_MIDRANGE,
    REGIME_TINY,
    ClosedForm,
    SumInstance,
    characteristic_value,
    closed_form,
    derive,
    evaluate_large,
    evaluate_small,
    normalize,
    ring_exponent_for,
)
from charsum.oracle import brute_force
from charsum.ring2adic import dlog5, v2
from ringref import (
    add,
    char_conj,
    char_mul,
    char_pow,
    conj,
    eval_char,
    from_int,
    mul,
    normalize_ref,
    principal,
    scalar_mul,
    sign_mod4,
    solve_characteristic,
)


def chars(m, s1, c1, s2, c2):
    return Character(m, s1, c1), Character(m, s2, c2)


def reference_c(x, m, A, B, k, c1, c2, w):
    """The characteristic combination recomputed with exact big integers."""
    n, t = v2(A), v2(k)
    d = m - n
    N = (d + 1) // 2 if d > 2 * t + 4 else t + 2
    mod = 1 << w
    rn = (5 ** (1 << (N - 2)) - 1) // (1 << N)
    rnn = (5 ** (1 << (N + n - 2)) - 1) // (1 << (N + n))
    return (c1 * (A * x**k + B) + c2 * A * k * x**k * rn * pow(rnn, -1, mod)) % mod


# ---------------------------------------------------------------------------
# instance validation and derivation

def test_instance_validation():
    with pytest.raises(ValueError):
        SumInstance(2, 0, 1, 1)
    with pytest.raises(ValueError):
        SumInstance(5, 32, 1, 1)
    with pytest.raises(ValueError):
        SumInstance(5, 2, 1, 0)
    with pytest.raises(WidthCapError):
        SumInstance(31, 2, 1, 1)


def test_derive_examples():
    p = derive(SumInstance(7, 2, 1, 1))
    assert (p.n, p.t, p.k1, p.N, p.M_exp, p.regime) == (1, 0, 1, 3, 4, REGIME_LARGE)
    p = derive(SumInstance(6, 8, 1, 2))
    assert (p.n, p.t, p.regime) == (3, 1, REGIME_EDGE_T2)
    p = derive(SumInstance(8, 4, 1, 12))
    assert (p.n, p.t, p.k1, p.regime) == (2, 2, 3, REGIME_MIDRANGE)
    p = derive(SumInstance(5, 0, 3, 4))
    assert (p.n, p.regime) == (5, REGIME_TINY)


def test_derive_rejects_unnormalized():
    with pytest.raises(ValueError):
        derive(SumInstance(5, 3, 1, 1))  # odd A
    with pytest.raises(ValueError):
        derive(SumInstance(5, 2, 4, 1))  # even B


# ---------------------------------------------------------------------------
# characteristic combination

def test_characteristic_value_worked_instance():
    inst = SumInstance(7, 2, 1, 1)
    chi1, chi2 = chars(7, 1, 2, 1, 1)
    # affine shape 14x + 2 mod 16
    for x in (1, 3, 5, 7, 9, 11, 13, 15):
        assert characteristic_value(x, inst, chi1, chi2, 4) == (14 * x + 2) % 16
    assert characteristic_value(1, inst, chi1, chi2, 4) == 0
    assert characteristic_value(1, inst, chi1, chi2, 5) == 16  # odd lambda


def test_characteristic_value_against_reference():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(6, 13)
        t = rng.choice((0, 0, 1, 2))
        n = rng.randint(1, m - 1)
        A = (1 << n) * rng.randrange(1, 1 << max(m - n, 1), 2) % (1 << m)
        if v2(A) >= m:
            continue
        k = (1 << t) * rng.choice((1, 3, 5))
        inst = SumInstance(m, A, rng.randrange(1, 1 << m, 2), k)
        if derive(inst).N is None:
            continue
        c1 = rng.randint(1, 1 << (m - 2))
        c2 = rng.randrange(1, 1 << (m - 2), 2)
        w = rng.randint(1, m - 2)
        x = rng.randrange(1, 1 << w, 2)
        got = characteristic_value(x, inst, Character(m, 1, c1), Character(m, 1, c2), w)
        assert got == reference_c(x, m, inst.A, inst.B, k, c1, c2, w)


def test_characteristic_value_undefined_for_tiny():
    with pytest.raises(ValueError):
        characteristic_value(1, SumInstance(5, 0, 1, 1), *chars(5, 1, 8, 1, 1), 3)


# ---------------------------------------------------------------------------
# characteristic solver

def test_solver_worked_instance():
    inst = SumInstance(7, 2, 1, 1)
    w, sols = solve_characteristic(inst, *chars(7, 1, 2, 1, 1))
    assert w == 4
    assert sols == (1, 9)


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_characteristic(SumInstance(7, 2, 1, 1), *chars(7, 1, 4, 1, 1))  # c3 even
    with pytest.raises(ValueError):
        solve_characteristic(SumInstance(8, 4, 1, 12), *chars(8, 1, 16, 1, 1))  # MidRange


@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_filter(seed):
    rng = random.Random(seed)
    found = 0
    while found < 8:
        m = rng.randint(6, 13)
        t = rng.choice((0, 0, 1))
        n_hi = m - 2 * t - 5
        if n_hi < 1:
            continue
        n = rng.randint(1, n_hi)
        A = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        k = (1 << t) * rng.choice((1, 3, 5, 7))
        inst = SumInstance(m, A, rng.randrange(1, 1 << m, 2), k)
        cmax = 1 << (m - 2)
        c1 = (1 << (n + t)) * rng.randrange(1, max(cmax >> (n + t), 2), 2)
        if c1 > cmax:
            continue
        c2 = rng.randrange(1, cmax, 2)
        chi1, chi2 = chars(m, 1, c1, 1, c2)
        w, sols = solve_characteristic(inst, chi1, chi2)
        filt = tuple(
            x for x in range(1, 1 << w, 2)
            if reference_c(x, m, A, inst.B, k, c1, c2, w) == 0
        )
        assert sols == filt
        found += 1


@st.composite
def large_instances(draw):
    """Large-regime instances with chi1's parameter carrying 2^(n+t), t = 0..4,
    at most 2^13 characteristic solutions.  Half of them get a B that solves
    the congruence at a random witness; a random B often does not for t >= 1."""
    t = draw(st.integers(0, 4))
    m = draw(st.integers(2 * t + 6, 20))
    n = draw(st.integers(1, min(m - 2 * t - 5, 12 - 2 * t)))

    def odd(bits):
        return 2 * draw(st.integers(0, (1 << bits) - 1)) + 1

    A = (1 << n) * odd(m - n - 1)
    k = (1 << t) * odd(4)
    c1 = (1 << (n + t)) * odd(m - 3 - n - t)
    chi1 = Character(m, 1 if k % 2 == 0 else draw(st.sampled_from((1, -1))), c1)
    chi2 = Character(m, draw(st.sampled_from((1, -1))), odd(m - 3))
    B = odd(m - 1)
    if draw(st.booleans()):
        # c1*B + coef*x^k = 0 mod 2^M_exp, with coef*x^k read off at B = 1
        m_exp = ((m + n) >> 1) + t
        x = odd(m_exp - 1)
        probe = SumInstance(m, A, 1, k)
        coef_xk = characteristic_value(x, probe, chi1, chi2, m_exp) - c1
        w = m_exp - n - t
        B = (-(coef_xk >> (n + t)) * pow(c1 >> (n + t), -1, 1 << w)) % (1 << w)
        B += draw(st.integers(0, (1 << (m - w)) - 1)) << w
    return SumInstance(m, A, B, k), chi1, chi2


@settings(max_examples=400)
@given(large_instances())
def test_large_witness_is_smallest_solution(case):
    inst, chi1, chi2 = case
    _, sols = solve_characteristic(inst, chi1, chi2)
    cf = evaluate_large(inst, chi1, chi2, derive(inst))
    if sols:
        assert cf.x0 == min(sols)
        assert cf.case in (CASE_LARGE_EVEN, CASE_LARGE_ODD)
    else:
        assert cf.case == CASE_ZERO_CONDITION and cf.x0 is None


# ---------------------------------------------------------------------------
# normalization

def test_normalize_same_parity_is_zero():
    for a, b in ((1, 3), (0, 2), (6, 4), (5, 7)):
        norm = normalize(SumInstance(5, a, b, 2), *chars(5, 1, 1, 1, 1))
        assert norm.kind == "zero" and norm.zero_case == CASE_ZERO_PARITY
        cf = closed_form(SumInstance(5, a, b, 2), *chars(5, 1, 1, 1, 1))
        val = cf.value()
        assert cf.case == CASE_ZERO_PARITY and not any(val.coeffs)


def test_normalize_refuses_characters_of_another_modulus():
    inst = SumInstance(6, 2, 1, 1)
    for chi1, chi2 in ((Character(5, 1, 1), Character(6, 1, 1)),
                       (Character(6, 1, 1), Character(7, -1, 3))):
        with pytest.raises(ValueError, match="share the modulus"):
            normalize(inst, chi1, chi2)


def test_normalize_imprimitive_chi2_is_zero():
    chi1, chi2 = chars(6, 1, 3, -1, 4)  # chi1 primitive, chi2 not
    norm = normalize(SumInstance(6, 2, 1, 1), chi1, chi2)
    assert norm.kind == "zero" and norm.zero_case == CASE_ZERO_IMPRIMITIVE
    assert not any(brute_force(SumInstance(6, 2, 1, 1), chi1, chi2).coeffs)


def test_normalize_swap_formula_and_value():
    inst = SumInstance(6, 5, 2, 3)
    chi1, chi2 = chars(6, -1, 3, 1, 5)
    norm = normalize(inst, chi1, chi2)
    assert norm.kind == "standard"
    assert (norm.inst.A, norm.inst.B, norm.inst.k) == (2, 5, 3)
    assert norm.chi1 == char_conj(char_mul(chi1, char_pow(chi2, 3)))
    assert norm.chi2 == chi2
    assert norm.scale_log2 == 0
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert val == brute_force(inst, chi1, chi2)
    assert any(val.coeffs)  # this one actually exercises the swapped pipeline


def test_normalize_reduction_scale_and_value():
    # both characters factor through 2^4: the problem drops two levels
    inst = SumInstance(6, 2, 1, 1)
    chi1, chi2 = chars(6, 1, 8, -1, 4)
    norm = normalize(inst, chi1, chi2)
    assert norm.kind == "standard"
    assert norm.inst.m == 4 and norm.scale_log2 == 2
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.scale_log2 == 2
    assert val == brute_force(inst, chi1, chi2)


def test_normalize_matches_the_step_by_step_reference():
    # every character pair at m = 3..7, A and B drawn in all four parity
    # classes, against the loop over conductors and induced characters
    rng = random.Random(20)
    seen = set()
    for m in range(3, 8):
        mod = 1 << m
        every = [Character(m, s, c) for c in range(1, (mod >> 2) + 1) for s in (1, -1)]
        for chi1 in every:
            for chi2 in every:
                for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    a, b = rng.randrange(pa, mod, 2), rng.randrange(pb, mod, 2)
                    for k in (1, 2, 3, 4, 12):
                        inst = SumInstance(m, a, b, k)
                        norm = normalize(inst, chi1, chi2)
                        assert norm == normalize_ref(inst, chi1, chi2), (inst, chi1, chi2)
                        seen.add((norm.kind, norm.zero_case, norm.scale_log2 > 0, pa))
    # swapped and unswapped, reduced and not, every terminal
    assert seen >= {
        ("standard", None, False, 0), ("standard", None, False, 1),
        ("standard", None, True, 0), ("standard", None, True, 1),
        ("direct", None, True, 0), ("direct", None, True, 1),
        ("zero", CASE_ZERO_IMPRIMITIVE, False, 0), ("zero", CASE_ZERO_IMPRIMITIVE, False, 1),
        ("zero", CASE_ZERO_PARITY, False, 0), ("zero", CASE_ZERO_PARITY, False, 1),
    }


def test_normalize_direct_mod4_path():
    # both characters are principal/sign-only: four-term direct summation
    for s1 in (1, -1):
        for s2 in (1, -1):
            inst = SumInstance(6, 4, 3, 3)
            chi1, chi2 = Character(6, s1, 16), Character(6, s2, 16)
            norm = normalize(inst, chi1, chi2)
            assert norm.kind == "direct"
            cf = closed_form(inst, chi1, chi2)
            val = cf.value()
            assert cf.case == CASE_REDUCED and cf.scale_log2 == 4
            assert val == brute_force(inst, chi1, chi2)


# ---------------------------------------------------------------------------
# large regime

def test_large_even_worked_instance_frozen():
    inst = SumInstance(7, 2, 1, 1)
    chi1, chi2 = chars(7, 1, 2, 1, 1)
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.case == CASE_LARGE_EVEN
    assert cf.x0 == 1 and cf.lambda_parity == 1 and cf.h is None
    assert cf.magnitude_halves == 8
    # S = 16 * zeta_32^3 since chi2(3) = e_32(3): frozen dense expansion
    want = [0] * 16
    want[3] = 16
    assert val == CycInt(5, tuple(want))
    assert val == brute_force(inst, chi1, chi2)


def test_large_zero_when_power_condition_fails():
    inst = SumInstance(7, 2, 1, 1)
    chi1, chi2 = chars(7, 1, 32, 1, 1)  # c1 = 2^(m-2): cofactor even
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.case == CASE_ZERO_CONDITION and not any(val.coeffs)
    assert not any(brute_force(inst, chi1, chi2).coeffs)


def test_large_zero_when_sign_condition_fails():
    inst = SumInstance(8, 2, 1, 2)
    chi1, chi2 = chars(8, -1, 4, 1, 3)  # k even needs chi1(-1) = +1
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.case == CASE_ZERO_CONDITION
    assert not any(brute_force(inst, chi1, chi2).coeffs)


def test_large_odd_carries_sqrt2_and_magnitude():
    inst = SumInstance(8, 2, 1, 1)
    chi1, chi2 = chars(8, 1, 2, 1, 1)
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.case == CASE_LARGE_ODD
    assert cf.h is not None and cf.h % 2 == 1
    assert cf.magnitude_halves == 8 + 1 + 0 + 0  # m + n + 2t + 2*min(1,t)
    assert val == brute_force(inst, chi1, chi2)
    assert mul(val, conj(val)) == from_int(1 << 9, val.r)
    # the sparse value is (power of 2) * sqrt(2) * (two eighth-root terms)
    assert len(cf.terms) == 2


def test_large_representative_independence():
    inst = SumInstance(9, 4, 3, 3)
    chi1, chi2 = chars(9, -1, 4, 1, 5)
    _, sols = solve_characteristic(inst, chi1, chi2)
    assert len(sols) >= 2
    forms = [evaluate_large(inst, chi1, chi2, derive(inst), x0=x) for x in sols]
    assert all(f.terms == forms[0].terms for f in forms)
    assert forms[0].value() == brute_force(inst, chi1, chi2)


def test_large_solution_dlog_progression():
    # solutions map to a single arithmetic progression of exponents per sign
    rng = random.Random(11)
    hits = 0
    while hits < 12:
        m = rng.randint(7, 12)
        t = rng.choice((0, 0, 1))
        n_hi = m - 2 * t - 5
        if n_hi < 1:
            continue
        n = rng.randint(1, n_hi)
        A = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        k = (1 << t) * rng.choice((1, 3, 5))
        cmax = 1 << (m - 2)
        c1 = (1 << (n + t)) * rng.randrange(1, max(cmax >> (n + t), 2), 2)
        if c1 > cmax:
            continue
        inst = SumInstance(m, A, rng.randrange(1, 1 << m, 2), k)
        chi1, chi2 = chars(m, 1, c1, 1, rng.randrange(1, cmax, 2))
        w, sols = solve_characteristic(inst, chi1, chi2)
        if len(sols) < 2 or w < 3:
            continue
        step_exp = max((m - n) // 2 - t - 2, 0)
        by_sign = {}
        for x in sols:
            eps, gamma = dlog5(x, w)
            by_sign.setdefault(eps, set()).add(gamma % (1 << step_exp))
        assert all(len(v) == 1 for v in by_sign.values())
        hits += 1


# ---------------------------------------------------------------------------
# small regimes

def test_edge_t2_rows():
    # m - n = t + 2, even k: principal chi1 keeps the sum alive
    inst = SumInstance(6, 8, 3, 2)
    chi2 = Character(6, 1, 5)
    cf = closed_form(inst, principal(6), chi2)
    val = cf.value()
    assert cf.case == REGIME_EDGE_T2
    assert val == scalar_mul(1 << 5, eval_char(chi2, 11, val.r))
    assert val == brute_force(inst, principal(6), chi2)
    # any other chi1 dies
    cf2 = closed_form(inst, Character(6, -1, 16), chi2)
    val2 = cf2.value()
    assert cf2.case == CASE_ZERO_CONDITION and not any(val2.coeffs)
    assert not any(brute_force(inst, Character(6, -1, 16), chi2).coeffs)
    # odd k wants the mod-4 sign character
    inst = SumInstance(5, 8, 3, 1)
    cf3 = closed_form(inst, sign_mod4(5), Character(5, 1, 3))
    val3 = cf3.value()
    assert cf3.case == REGIME_EDGE_T2
    assert val3 == brute_force(inst, sign_mod4(5), Character(5, 1, 3))
    cf4 = closed_form(inst, principal(5), Character(5, 1, 3))
    val4 = cf4.value()
    assert cf4.case == CASE_ZERO_CONDITION and not any(val4.coeffs)


def test_edge_t3_two_term_row():
    # m - n = 3, odd k, chi1(5) = -1: both shifted arguments contribute
    m = 6
    inst = SumInstance(m, 8, 3, 1)
    chi1 = Character(m, -1, 1 << (m - 3))
    chi2 = Character(m, 1, 5)
    cf = closed_form(inst, chi1, chi2)
    val = cf.value()
    assert cf.case == REGIME_EDGE_T3
    expect = scalar_mul(
        1 << (m - 2),
        add(
            eval_char(chi2, 11, val.r),
            scalar_mul(chi1.s, eval_char(chi2, (3 - 8) % 64, val.r)),
        ),
    )
    assert val == expect
    assert val == brute_force(inst, chi1, chi2)
    assert cf.magnitude_halves == 2 * m - 3  # the pair always has modulus 2^(m-2)*sqrt2


def test_edge_t3_principal_chi1_dies():
    # chi1(5) = +1 (principal or sign character) leaves no mass here, even
    # though chi1(5) lands in {+1, -1}: the power of two inside c1 is wrong
    m, inst = 5, SumInstance(5, 2, 1, 2)
    assert derive(inst).regime == "EdgeT3"
    chi2 = Character(m, 1, 1)
    for chi1 in (principal(m), sign_mod4(m)):
        cf = closed_form(inst, chi1, chi2)
        val = cf.value()
        assert not any(val.coeffs)
        assert not any(brute_force(inst, chi1, chi2).coeffs)


def test_midrange_rows_and_exclusivity():
    # scan for t >= 1 so both even and odd k appear; oracle arbitrates each row
    rng = random.Random(3)
    seen_nonzero = seen_zero = 0
    both_vanish = 0
    for _ in range(400):
        m = rng.randint(6, 10)
        t = rng.choice((0, 1, 2))
        ds = [d for d in range(t + 4, 2 * t + 5) if m - d >= 1]
        if not ds:
            continue
        d = rng.choice(ds)
        n = m - d
        A = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        k = (1 << t) * rng.choice((1, 3))
        inst = SumInstance(m, A, rng.randrange(1, 1 << m, 2), k)
        cmax = 1 << (m - 2)
        chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, cmax))
        chi2 = Character(m, rng.choice((1, -1)), rng.randrange(1, cmax, 2))
        cf = closed_form(inst, chi1, chi2)
        val = cf.value()
        assert val == brute_force(inst, chi1, chi2)
        if cf.case == REGIME_MIDRANGE:
            seen_nonzero += 1
        elif cf.case == CASE_ZERO_CONDITION:
            seen_zero += 1
        if inst.k % 2 and derive(inst).regime == REGIME_MIDRANGE and m - n > t + 3:
            w = m - 2
            cp = characteristic_value(1, inst, chi1, chi2, w)
            cm = characteristic_value((1 << w) - 1, inst, chi1, chi2, w)
            if cp == 0 and cm == 0:
                both_vanish += 1
    assert seen_nonzero > 0 and seen_zero > 0
    assert both_vanish == 0


# ---------------------------------------------------------------------------
# tiny regime

def test_tiny_rows():
    inst = SumInstance(4, 8, 1, 4)
    chi2 = Character(4, -1, 1)
    cf = closed_form(inst, principal(4), chi2)
    val = cf.value()
    assert cf.case == REGIME_TINY
    assert val == scalar_mul(8, eval_char(chi2, 9, val.r))
    assert val == brute_force(inst, principal(4), chi2)
    cf2 = closed_form(inst, Character(4, -1, 4), chi2)
    val2 = cf2.value()
    assert cf2.case == CASE_ZERO_CONDITION and not any(val2.coeffs)


def test_tiny_zero_coefficient():
    inst = SumInstance(5, 0, 7, 3)
    chi2 = Character(5, 1, 5)
    cf = closed_form(inst, principal(5), chi2)
    val = cf.value()
    assert cf.case == REGIME_TINY
    assert val == scalar_mul(16, eval_char(chi2, 7, val.r))
    assert val == brute_force(inst, principal(5), chi2)


@pytest.mark.parametrize("m", (6, 7, 8))
def test_tiny_and_edge_t2_decisions_match_oracle_for_every_chi1(m):
    # Tiny and EdgeT2 keep the sum only for chi1(5) = 1 with the right sign,
    # decided from chi1's two fields: check every chi1 against the oracle
    cmax = 1 << (m - 2)
    shapes = [  # (A, k, regime)
        (0, 3, REGIME_TINY),
        (1 << (m - 1), 1, REGIME_TINY),  # t = 0, m - n = 1
        (3 << (m - 2), 2, REGIME_TINY),  # t = 1, m - n = 2
        (1 << (m - 2), 3, REGIME_EDGE_T2),  # t = 0, m - n = 2
        (3 << (m - 3), 2, REGIME_EDGE_T2),  # t = 1, m - n = 3
        (1 << (m - 4), 4, REGIME_EDGE_T2),  # t = 2, m - n = 4
    ]
    chis2 = [Character(m, 1, 1), Character(m, -1, cmax - 1)]
    for A, k, regime in shapes:
        inst = SumInstance(m, A, 5, k)
        assert derive(inst).regime == regime
        alive = 0
        for s1 in (1, -1):
            for c1 in range(1, cmax + 1):
                chi1 = Character(m, s1, c1)
                for chi2 in chis2:
                    cf = closed_form(inst, chi1, chi2)
                    assert cf.value() == brute_force(inst, chi1, chi2), (inst, chi1, chi2)
                    alive += bool(cf.terms)
        # exactly one chi1 survives: principal, or the mod-4 sign at EdgeT2 with odd k
        assert alive == len(chis2)


# ---------------------------------------------------------------------------
# shared terminal zeros

def _zero_calls(m):
    """One call per terminal-zero exit at m >= 6: (case, inst, chi1, chi2)."""
    cmax = 1 << (m - 2)
    return [
        (CASE_ZERO_PARITY, SumInstance(m, 3, 5, 3), Character(m, 1, 5), Character(m, 1, 7)),
        # chi1 primitive against an imprimitive chi2
        (CASE_ZERO_IMPRIMITIVE, SumInstance(m, 2, 5, 1), Character(m, 1, 5), Character(m, 1, 2)),
        # Tiny with a non-principal chi1
        (CASE_ZERO_CONDITION, SumInstance(m, 0, 5, 1), Character(m, -1, cmax), Character(m, 1, 3)),
        # Large (m - n = m - 1 > 4) with chi1's parameter odd, not 2^(n+t) * odd
        (CASE_ZERO_CONDITION, SumInstance(m, 2, 1, 1), Character(m, 1, 1), Character(m, 1, 1)),
    ]


@pytest.mark.parametrize("m", (6, 7, 12, 30))
def test_terminal_zeros_are_shared_frozen_constants(m):
    r = ring_exponent_for(m)
    regimes = [REGIME_TINY, REGIME_TINY, REGIME_TINY, REGIME_LARGE]
    for (case, inst, chi1, chi2), regime in zip(_zero_calls(m), regimes):
        cf = closed_form(inst, chi1, chi2)
        assert cf == ClosedForm(case, r, (), None, None, None, None, 0)
        assert closed_form(inst, chi1, chi2) is cf
        if m <= 12:
            assert not any(brute_force(inst, chi1, chi2).coeffs)
        with pytest.raises(AttributeError):
            cf.terms = ((0, 1),)
        with pytest.raises(AttributeError):
            cf.scale_log2 = 1
        again = pickle.loads(pickle.dumps(cf))
        assert again == cf and again.case == case
    # the Large zero comes from evaluate_large itself
    _, inst, chi1, chi2 = _zero_calls(m)[3]
    assert derive(inst).regime == REGIME_LARGE
    assert evaluate_large(inst, chi1, chi2, derive(inst)) is closed_form(inst, chi1, chi2)


def test_terminal_zeros_are_shared_per_ring_exponent():
    # m = 3, 4 and 5 all live in ring 2^3
    zeros = [
        closed_form(SumInstance(m, 1, 3, 1), Character(m, 1, 1), Character(m, 1, 1))
        for m in (3, 4, 5)
    ]
    assert zeros[0] is zeros[1] is zeros[2]
    assert zeros[0] == ClosedForm(CASE_ZERO_PARITY, 3, (), None, None, None, None, 0)
    assert normalize(SumInstance(5, 1, 3, 1), *chars(5, 1, 1, 1, 1)) is normalize(
        SumInstance(7, 2, 4, 2), *chars(7, -1, 3, 1, 5)
    )


@pytest.mark.parametrize("m", (8, 9, 20))
def test_reduced_zero_keeps_its_scale(m):
    # both characters factor through 2^(m-1): the reduced problem at m - 1 is
    # Large with chi1's parameter odd, so it vanishes with one doubling
    inst = SumInstance(m, 2, 1, 1)
    chi1, chi2 = chars(m, 1, 2, 1, 6)
    norm = normalize(inst, chi1, chi2)
    assert norm.kind == "standard" and norm.scale_log2 == 1 and norm.inst.m == m - 1
    cf = closed_form(inst, chi1, chi2)
    assert cf == ClosedForm(CASE_ZERO_CONDITION, ring_exponent_for(m), (), None, None, None, None, 1)
    shared = closed_form(norm.inst, norm.chi1, norm.chi2)
    assert shared.scale_log2 == 0 and cf is not shared
    if m <= 9:
        assert not any(brute_force(inst, chi1, chi2).coeffs)


def test_closed_digest_is_pinned():
    # any closed-form change that alters one field of one result on the m = 3
    # grid or 20000 seeded samples at m = 3..30 changes this digest
    path = Path(__file__).resolve().parent.parent / "scripts" / "closed_digest.py"
    spec = importlib.util.spec_from_file_location("closed_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest(20000) == (
        24096, "289da0ef51ee702afd39ae507ffa9ab91018ed4f44272aa2af3834c9c0cad8f3"
    )


# ---------------------------------------------------------------------------
# the collapse onto x = +-1

# (m, A, B, k, chi1 and chi2 as (s, c), case, discrete logs per closed_form)
COLLAPSE_DLOGS = [
    (5, 8, 1, 2, (1, 8), (1, 1), REGIME_TINY, 1),
    (6, 8, 3, 2, (1, 16), (1, 1), REGIME_EDGE_T2, 1),
    (5, 8, 3, 1, (-1, 8), (1, 1), REGIME_EDGE_T2, 1),
    (5, 2, 1, 2, (1, 4), (1, 1), REGIME_EDGE_T3, 1),
    (5, 4, 1, 1, (1, 4), (1, 1), REGIME_EDGE_T3, 2),
    (6, 2, 1, 2, (1, 4), (1, 1), REGIME_MIDRANGE, 1),
    (5, 2, 1, 1, (1, 2), (1, 1), REGIME_MIDRANGE, 1),
    (5, 8, 1, 2, (-1, 8), (1, 1), CASE_ZERO_CONDITION, 0),
    (5, 2, 1, 1, (-1, 4), (1, 1), CASE_ZERO_CONDITION, 0),
    (5, 2, 1, 1, (1, 8), (-1, 8), CASE_REDUCED, 0),
]


@pytest.mark.parametrize("m, A, B, k, chi1, chi2, case, dlogs", COLLAPSE_DLOGS, ids=[
    "tiny", "edge-t2-even-k", "edge-t2-odd-k", "edge-t3-even-k", "edge-t3-odd-k",
    "midrange-even-k", "midrange-odd-k", "zero-tiny", "zero-edge-t3", "direct-four-term",
])
def test_collapse_takes_one_discrete_log_per_surviving_witness(
    monkeypatch, m, A, B, k, chi1, chi2, case, dlogs
):
    calls = []

    def counted(x, w):
        calls.append((x, w))
        return dlog5(x, w)

    monkeypatch.setattr(charsum.characters, "dlog5", counted)
    monkeypatch.setattr(charsum.evaluator, "dlog5", counted)
    inst, chi1, chi2 = SumInstance(m, A, B, k), Character(m, *chi1), Character(m, *chi2)
    cf = closed_form(inst, chi1, chi2)
    assert (cf.case, len(calls)) == (case, dlogs)
    assert (not cf.terms) == (case == CASE_ZERO_CONDITION)
    assert cf.value() == brute_force(inst, chi1, chi2)


def test_regime_evaluators_refuse_each_others_instances():
    chi2 = Character(5, 1, 5)
    tiny = SumInstance(5, 0, 7, 3)
    assert evaluate_small(tiny, principal(5), chi2, derive(tiny)) == closed_form(
        tiny, principal(5), chi2
    )
    large = SumInstance(7, 2, 1, 1)
    assert derive(large).regime == REGIME_LARGE
    with pytest.raises(ValueError, match="Large"):
        evaluate_small(large, Character(7, 1, 2), Character(7, 1, 1), derive(large))
    for small in (tiny, SumInstance(5, 4, 1, 1), SumInstance(5, 2, 1, 1)):
        with pytest.raises(ValueError, match="not a Large-regime instance"):
            evaluate_large(small, principal(5), chi2, derive(small))


# ---------------------------------------------------------------------------
# whole-pipeline checks

def test_evaluate_random_instances_match_oracle():
    rng = random.Random(99)
    for _ in range(1500):
        m = rng.randint(3, 9)
        mod = 1 << m
        inst = SumInstance(m, rng.randrange(mod), rng.randrange(mod), rng.randint(1, 30))
        chi1 = Character(m, rng.choice((1, -1)), rng.randint(1, mod >> 2))
        chi2 = Character(m, rng.choice((1, -1)), rng.randint(1, mod >> 2))
        cf = closed_form(inst, chi1, chi2)
        val = cf.value()
        assert val == brute_force(inst, chi1, chi2)
        if cf.terms:
            sq = mul(val, conj(val))
            assert sq == from_int(1 << cf.magnitude_halves, val.r)


def test_h_is_odd_whenever_present():
    rng = random.Random(42)
    seen = 0
    while seen < 60:
        m = rng.randint(6, 12)
        ds = [d for d in range(5, m, 2)]
        d = rng.choice(ds)
        n = m - d
        if n < 1:
            continue
        A = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
        inst = SumInstance(m, A, rng.randrange(1, 1 << m, 2), rng.choice((1, 3, 5)))
        cmax = 1 << (m - 2)
        c1 = (1 << n) * rng.randrange(1, max(cmax >> n, 2), 2)
        if c1 > cmax:
            continue
        chi1 = Character(m, rng.choice((1, -1)), c1)
        chi2 = Character(m, rng.choice((1, -1)), rng.randrange(1, cmax, 2))
        cf = closed_form(inst, chi1, chi2)
        if cf.case == CASE_LARGE_ODD:
            assert cf.h is not None and cf.h % 2 == 1
            seen += 1
