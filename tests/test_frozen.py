"""The package's value records, without dataclasses: the frozen records'
equality (by type, also against plain tuples), hashing, immutability, repr,
pickling and constructor checks."""

import pickle
import re
from collections import namedtuple

import pytest

from charsum.characters import Character
from charsum.cyclotomic import CycInt
from charsum.errors import WidthCapError
from charsum.evaluator import (
    ClosedForm,
    DerivedParams,
    NormalizedProblem,
    SumInstance,
    closed_form,
    derive,
    normalize,
)
from charsum.frozen import Frozen


def _records():
    """One record of each class, built afresh on every call."""
    inst = SumInstance(7, 2, 1, 1)
    chi1, chi2 = Character(7, 1, 2), Character(7, 1, 1)
    return [
        inst,
        chi1,
        CycInt(3, (0, 4, 0, -4)),
        derive(inst),
        normalize(inst, chi1, chi2),
        closed_form(inst, chi1, chi2),
    ]


def _fields(rec):
    return [getattr(rec, f) for f in rec._fields]


def test_every_record_class_is_covered():
    assert {type(r) for r in _records()} == {
        SumInstance, Character, CycInt, DerivedParams, NormalizedProblem, ClosedForm,
    }


@pytest.mark.parametrize("index", range(6))
def test_records_compare_and_hash_by_value(index):
    a, b = _records()[index], _records()[index]
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    clone = type(a)(*_fields(a))
    assert clone == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_equality_needs_the_same_type():
    class Lookalike(Frozen, namedtuple("Lookalike", "m s c")):
        __slots__ = ()

    chi, look = Character(5, 1, 3), Lookalike(5, 1, 3)
    assert chi != look and look != chi
    assert not (chi == look) and not (look == chi)
    assert chi != (5, 1, 3) and (5, 1, 3) != chi
    assert not (chi == (5, 1, 3)) and not ((5, 1, 3) == chi)
    assert len({chi, (5, 1, 3)}) == 2 and len({chi, look}) == 2
    assert chi != Character(5, -1, 3)
    assert SumInstance(5, 2, 1, 1) != SumInstance(5, 2, 1, 3)
    assert len({chi, Character(5, 1, 3), Character(5, 1, 1)}) == 2


@pytest.mark.parametrize("index", range(6))
def test_records_are_immutable(index):
    rec = _records()[index]
    before = _fields(rec)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert _fields(rec) == before


def test_repr_names_the_fields():
    assert repr(Character(5, 1, 3)) == "Character(m=5, s=1, c=3)"
    assert repr(CycInt(2, (1, -1))) == "CycInt(r=2, coeffs=(1, -1))"
    assert repr(DerivedParams(1, 0, 1, None, None, "Tiny")) == (
        "DerivedParams(n=1, t=0, k1=1, N=None, M_exp=None, regime='Tiny')"
    )
    for rec in _records():
        text = repr(rec)
        assert text.startswith(type(rec).__name__ + "(")
        assert all(f"{f}=" in text for f in rec._fields)


@pytest.mark.parametrize("build, exc, message", [
    (lambda: Character(2, 1, 1), ValueError, "modulus exponent must be >= 3, got 2"),
    (lambda: Character(5, 0, 1), ValueError, "sign value must be +1 or -1, got 0"),
    (lambda: Character(5, 1, 9), ValueError, "c must lie in [1, 2^3] = [1, 8], got 9"),
    (lambda: CycInt(0, ()), ValueError, "ring exponent must be >= 1, got 0"),
    (lambda: CycInt(3, (1, 2)), ValueError, "ring 2^3 needs 4 coefficients, got 2"),
    (lambda: SumInstance(2, 0, 1, 1), ValueError, "modulus exponent must be >= 3, got 2"),
    (lambda: SumInstance(31, 2, 1, 1), WidthCapError, "modulus exponent 31 exceeds cap 30"),
    (lambda: SumInstance(5, 32, 1, 1), ValueError, "A and B must be residues in [0, 2^m)"),
    (lambda: SumInstance(5, 2, 1, 0), ValueError, "k must be a positive integer, got 0"),
])
def test_constructor_checks_keep_their_messages(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()


def test_unpickling_reruns_the_checks():
    # tuple.__new__ skips the checks; loading the pickle goes through __new__
    bad = pickle.dumps(tuple.__new__(Character, (2, 1, 1)))
    with pytest.raises(ValueError, match="^modulus exponent must be >= 3, got 2$"):
        pickle.loads(bad)
