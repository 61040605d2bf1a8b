"""Plain immutable record classes: the fields of a record are its annotated attributes.

A subclass annotates its fields in the class body, in order; a class
attribute of a field's name is its default. The keyword constructor sets
each field from its keyword or default; a subclass that checks its values
writes its own ``__init__``, which sets them with ``_set``. ``_fields``
names the fields; a record compares, hashes, prints and copies by them and
refuses assignment after ``__init__``. The detection layers define their
records on this rather than with ``dataclasses``, whose import and
generated methods cost a detection run about a fifth of its start-up.
"""

from __future__ import annotations

from types import MappingProxyType

_set = object.__setattr__


def _rebuild(cls: type[FrozenRecord], values: tuple) -> FrozenRecord:  # for copy and pickle
    return cls(**dict(zip(cls._fields, values)))


class FrozenRecord:
    """Read-only fields ``_fields``, with value equality and hash, ``repr`` and ``_replace``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, **values: object) -> None:
        name = type(self).__qualname__
        unknown = [key for key in values if key not in self._fields]
        if unknown:
            raise TypeError(f"{name}() got an unexpected keyword argument {unknown[0]!r}")
        missing = [key for key in self._fields if key not in values and not hasattr(self, key)]
        if missing:
            raise TypeError(f"{name}() missing field(s) {', '.join(map(repr, missing))}")
        for key in self._fields:
            _set(self, key, values[key] if key in values else getattr(self, key))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes: object) -> FrozenRecord:
        """A new record of the same class, with ``changes`` to its fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __reduce__(self) -> tuple:  # copy and pickle pass a read-only map view as its dict
        values = [dict(v) if type(v) is MappingProxyType else v for v in self._values()]
        return _rebuild, (type(self), tuple(values))

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
