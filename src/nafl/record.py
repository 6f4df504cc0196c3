"""Frozen value records: the part of ``dataclasses`` that nafl uses.

``@record`` turns the public annotated names of a class body into fields,
in order. It adds an ``__init__`` (positional or keyword arguments; a class
attribute is the field's default) unless the class defines one, frozen
``__setattr__``/``__delattr__``, ``__eq__``, ``__hash__`` and ``__repr__``
over the fields, and ``__match_args__``. Annotated names that start with an
underscore are private state, left out of all of them. ``dataclasses``
itself imports ``inspect``, ``ast`` and ``dis``, a cost every nafl process
would pay at start-up.
"""


def frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    fields = tuple(n for n in cls.__dict__.get("__annotations__", ()) if not n.startswith("_"))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def bind(args, kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got a bad or repeated argument {name!r}")
        values.update(kwargs)
        for name in fields:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() is missing argument {name!r}")
                values[name] = defaults[name]
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            vars(self).update(bind(args, kwargs))
        else:
            vars(self).update(zip(fields, args))

    def key(self):
        return tuple([getattr(self, name) for name in fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__setattr__, cls.__delattr__ = frozen_setattr, frozen_delattr
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__match_args__ = fields
    return cls
