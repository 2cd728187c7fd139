"""The base class of rwkit's immutable records.

A record declares its fields as annotated class attributes, in order; a
value assigned in the class body is the field's default, and a ``dict``
default is copied, so each instance gets its own.  A record is built
positionally or by keyword in field order, runs ``__post_init__`` once its
fields are set, raises :class:`dataclasses.FrozenInstanceError` on
assignment or deletion (``object.__setattr__`` still works, for
``__post_init__``), compares field by field (see ``_equal``), hashes as
the tuple of its fields, so a record holding an array, list or dict is
unhashable, and has a dataclass-style repr that leaves out the fields
named in the class keyword ``norepr``.  ``cls._fields`` maps each field
name to its annotation, in declaration order.

This replaces ``@dataclass(frozen=True)``, which writes the source of about
six methods for each class and ``exec``s it at every import, about 1 ms per
class; these methods are defined once.  Records are not dataclasses, so
``dataclasses.replace``, ``asdict`` and ``fields`` do not apply to them.
"""

from dataclasses import FrozenInstanceError

import numpy as np


class _Record:
    _fields = {}
    _defaults = {}
    _shown = ()

    def __init_subclass__(cls, norepr=(), **kwargs):
        super().__init_subclass__(**kwargs)
        # Read through the attribute, not ``cls.__dict__``: from Python 3.14
        # a class body's annotations are lazy, and ``__annotations__`` is in
        # the class dict only once something has read the attribute.
        cls._fields = dict(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._shown = tuple(name for name in cls._fields if name not in norepr)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{cls.__name__}() takes at most {len(cls._fields)} positional "
                f"arguments ({len(args)} given)"
            )
        values = dict(zip(cls._fields, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        values.update(kwargs)
        state = self.__dict__
        for name in cls._fields:
            if name in values:
                state[name] = values[name]
            elif name in cls._defaults:
                default = cls._defaults[name]
                state[name] = default.copy() if type(default) is dict else default
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_equal, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _equal(a, b):
    # Field equality: an array by np.array_equal, a list or tuple entry by
    # entry (so a list of arrays compares), anything else by ==; an object
    # equals itself, as in a tuple comparison.
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and type(a) is type(b):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b
