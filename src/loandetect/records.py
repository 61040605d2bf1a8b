"""Plain immutable record classes: the fields of a record are its annotated attributes.

A subclass annotates its fields in the class body, in order, and writes
its own ``__init__``, which sets them with ``_set``; ``_fields`` names
them, and the record compares, hashes, prints and copies by them. A
record refuses assignment after ``__init__``. The detection layers
define their records on this rather than with ``dataclasses``, whose
import and generated methods cost a detection run about a fifth of its
start-up.
"""

from __future__ import annotations

_set = object.__setattr__


class FrozenRecord:
    """Read-only fields ``_fields``, with value equality and hash, ``repr`` and ``_replace``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes: object) -> FrozenRecord:
        """A new record of the same class, with ``changes`` to its fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
