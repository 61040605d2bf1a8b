"""Plain record classes: the fields of a record are its annotated attributes.

A subclass annotates its fields in the class body, in order, and writes
its own ``__init__``; ``_fields`` names them, and the record compares,
hashes (when frozen), prints and copies by them. A ``FrozenRecord``
refuses assignment after ``__init__``, which sets its fields with
``_set``. The detection layers define their records on these rather than
with ``dataclasses``, whose import and generated methods cost a detection
run about a fifth of its start-up.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Value equality, ``repr`` and ``_replace`` over the fields ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes: object) -> Record:
        """A new record of the same class, with ``changes`` to its fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable: equal records could stop being equal

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A ``Record`` whose fields are read-only and which hashes by them."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
