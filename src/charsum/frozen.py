"""Immutable value records without `dataclasses`.

A record class derives from Frozen, names its fields in `__slots__`, and sets
each one once in `__init__` with `set_field` (after its checks).
Frozen supplies the rest: assigning or deleting a field raises
AttributeError, two records are equal when they have the same type and equal
fields (hashed alike), the repr names every field, and pickling rebuilds a
record through its constructor, so the checks run again.  Importing
`dataclasses` (with `inspect`) took 10-13 ms of every CLI process.
"""

from __future__ import annotations

from operator import attrgetter

# how a record's __init__ sets a field: Frozen.__setattr__ refuses every assignment
set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the fields in __slots__ order: the key of equality and hash
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
