"""Immutable value records over ``__slots__``, without ``dataclasses``.

A subclass lists its fields in ``__slots__``, their defaults by name in
``_defaults``, and may check them in ``_validate``.  A record compares
equal only to one of its own class with an equal field tuple, hashes as
that tuple, prints as ``Name(field=value, ...)``, refuses assignment and
deletion, and copies and pickles by reconstruction.  Importing
``dataclasses`` loads ``inspect``, ``ast`` and ``dis``: more than half
of what ``import gpfree.cli`` took with it.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            unknown = len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
            if unknown or len(values) < len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def _validate(self) -> None:
        pass

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields
