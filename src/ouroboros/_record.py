"""Immutable value records on ``__slots__``.

The package's expression nodes, forms, specs and reports are records. A
record class lists its fields in ``__slots__``, in constructor order, and
the constructor comes from those slots: :class:`Record`'s ``__init__``
binds positional arguments in slot order, then keywords, then the class's
``_defaults``, and sets each field once. A class writes its own
``__init__`` only to check or convert its arguments; it then sets each
field once, with ``_set`` or ``object.__setattr__``. A ``"__dict__"``
slot is not a field; it only gives a ``functools.cached_property`` room.

Records behave as the standard library's frozen data classes did here, but
load nothing: that module imports inspect, ast and dis, and compiles each
decorated class's methods with ``exec``, which together took most of the
package's start-up.
"""

from __future__ import annotations


class Record:
    """Equality by exact type and field tuple, its hash, ``Name(field=value, ...)`` repr, no assignment,
    copy and pickle through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # values of the fields a caller may leave out, by name
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args, **kwargs) -> None:
        """Bind the fields as a function of them would: by position, by keyword, else from ``_defaults``."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional arguments")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() is missing field {field!r}")
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got field {key!r} both by position and by keyword")
            raise TypeError(f"{name}() has no field {key!r}")
        self._set(*values)

    def _set(self, *values) -> None:
        """Set every field once, in order; for ``__init__`` alone."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """The fields by name, in order; values are not copied."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which checks again
        return type(self), self._values()
