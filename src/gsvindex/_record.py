"""Frozen value records: the common base of the package's result classes.

A record class declares its fields as class annotations, in order, with an
optional default as the class attribute:

    class Staircase(Record):
        leading_monomials: tuple
        basis_monomials: "tuple | None"
        finite: bool = True

Instances are built by position or keyword in field order and run the
class's __post_init__, when it defines one, once the fields are set. A
record equals only an instance of the same class with equal fields, hashes
the tuple of those fields, prints as Name(a=..., b=...), and refuses
assignment and deletion with AttributeError. Fields named in the class
keyword `hidden` take no part in equality, hashing or repr. Instances keep
a __dict__, so functools.cached_property, copy and pickle work on them. To
change a field, build a new record.

Each class gets its own __init__, a closure over its field names, so no
source is generated and a call looks up no class attribute. A keyword call
binds in one dict; a positional one pays for a zip, which makes it slower
than a keyword call, so the package builds its records by keyword.
"""

from __future__ import annotations


class Record:
    """Base of a frozen record class; the module docstring has the contract."""

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(n for n in cls._fields if n not in hidden)
        cls.__init__ = _initializer(cls)

    def _values(self):
        """The shown fields' values, which equality and hashing compare."""
        return tuple([self.__dict__[n] for n in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _initializer(cls):
    """The __init__ of record class cls, which binds its fields in order."""
    fields = cls._fields
    names, size = frozenset(fields), len(fields)
    defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = kwargs
        if args:
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs):
                _bad_arguments(cls, args, kwargs)
        if len(values) != size:
            values = {**defaults, **values}
        if values.keys() != names:
            _bad_arguments(cls, args, kwargs)
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


def _bad_arguments(cls, args, kwargs):
    """Raise the TypeError that a call with these arguments deserves."""
    fields, where = cls._fields, f"{cls.__name__}()"
    if len(args) > len(fields):
        raise TypeError(f"{where} takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument "
                            f"{name!r}")
        if name in fields[:len(args)]:
            raise TypeError(f"{where} got multiple values for argument "
                            f"{name!r}")
    missing = [n for n in fields[len(args):]
               if n not in kwargs and n not in cls.__dict__]
    raise TypeError(f"{where} missing required arguments: "
                    + ", ".join(map(repr, missing)))
