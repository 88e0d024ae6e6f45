"""Immutable value records: the one base class behind every kuwalls record type.

The records are not dataclasses because importing ``dataclasses`` pulls in
``inspect``, and each dataclass generates and compiles its methods when its
module is imported; together that costs more than the rest of importing
kuwalls.  A record class declares its fields as ``__slots__`` and writes its
own ``__init__`` (storing each field with ``object.__setattr__``), and
``Record`` supplies what a frozen dataclass would, all read from the class's
field tuple:

* ``==`` between instances of the same class compares the fields, so a
  record never equals the tuple of its fields or a record of another class;
* ``hash`` is the hash of the field values;
* ``repr`` is ``Name(field=value, ...)``, as a dataclass prints it;
* assigning or deleting an attribute raises ``AttributeError``;
* pickling and ``copy`` rebuild a record through its ``__init__``.

This module imports no other kuwalls module, so every layer can use it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base class of the immutable records; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:  # a further subclass keeps its parent's fields
            return
        fields = cls._fields = tuple(cls.__slots__)
        get = attrgetter(*fields)
        # An attrgetter is no descriptor, so instances see it as it is (cheaper than a
        # staticmethod); of one name it returns the bare value, so wrap that in a tuple.
        cls._values = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values(self))
