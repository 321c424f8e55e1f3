"""Immutable value records as named tuples that compare by type.

A record class is `class X(Frozen, namedtuple("X", "<fields>"))` with
`__slots__ = ()`; a record that checks its arguments does so in `__new__`,
which ends in `tuple.__new__(cls, (...))`.  The named tuple supplies the
constructor, field access, the repr naming every field, immutability
(assigning or deleting a field raises AttributeError) and pickling through
`__new__`, so the checks run again.  Frozen adds the one thing a named tuple
lacks: two records are equal only when they have the same type and equal
fields, so a record never equals a plain tuple or a record of another class
with the same fields.  Records remain tuples otherwise (indexing, unpacking,
`len`, ordering, `json.dumps` as a list).  The closed form's hot path uses
two of those: it unpacks `SumInstance` and `NormalizedProblem` records, and
builds the records that check nothing (`ClosedForm`, `NormalizedProblem`,
`DerivedParams`) with `tuple.__new__(cls, (...))`, which skips the named
tuple's own `__new__`.
"""

from __future__ import annotations


class Frozen(tuple):
    __slots__ = ()

    def __eq__(self, other) -> bool:
        # False, not NotImplemented: tuple's reflected __eq__ would ignore the type
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        # tuple's own __ne__ ignores the type as well
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__
