"""Frozen value records, built without generated code.

`record` turns a class with annotated fields into an immutable value type,
as `dataclasses.dataclass(frozen=True)` does, but builds its methods from
closures instead of compiling source for each class.  Importing
`dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`) and
exec-ing one `__init__` per record cost a CLI process more than the exact
decision of a small problem.

A record's fields are its annotated class attributes, base-class fields
first; a default is the attribute's value or `field(default=…)`, and
`field(default_factory=…)` makes a fresh one per instance.  The record gets
an `__init__` that takes the fields positionally or by name and then calls
`__post_init__` when the class has one; `__eq__` and `__hash__` over the
fields with compare=True, between records of one class; a `__repr__`; and a
`__setattr__`/`__delattr__` that raise AttributeError.  Instances keep
their `__dict__`, so `functools.cached_property` works on them.  The fields,
in order, are the keys of the class's `__record_fields__`, the table that
the report writer walks.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class field:
    """A field's default, or a factory for one, and whether `__eq__`/`__hash__` read it."""

    __slots__ = ("default", "default_factory", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, compare: bool = True):
        self.default, self.default_factory, self.compare = default, default_factory, compare


def record(cls: type) -> type:
    """Make cls a frozen value record over its annotated fields."""
    specs = dict(getattr(cls, "__record_fields__", {}))  # a base record's fields come first
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        spec = value if isinstance(value, field) else field(default=value)
        if spec.default is _MISSING:
            if value is not _MISSING:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        specs[name] = spec
    names = tuple(specs)
    required = [n for n, s in specs.items() if s.default is _MISSING and s.default_factory is _MISSING]
    if required and names.index(required[-1]) >= len(required):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    post_init = hasattr(cls, "__post_init__")
    title = cls.__name__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            spec = specs[name]
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif spec.default is not _MISSING:
                values.append(spec.default)
            elif spec.default_factory is not _MISSING:
                values.append(spec.default_factory())
            else:
                raise TypeError(f"{title}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{title}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        values = args if len(args) == len(names) and not kwargs else bind(args, kwargs)
        self.__dict__.update(zip(names, values))
        if post_init:
            self.__post_init__()

    compared = [n for n in names if specs[n].compare]
    key = attrgetter(*compared) if len(compared) > 1 else (lambda self: (getattr(self, compared[0]),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen record")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = specs
    return cls
