"""Record: the base of the package's immutable value classes.

A subclass declares its fields as class annotations, in order; a class
value is that field's default:

    class PlanarCavity(Record):
        d: float
        delta: float
        nu: int = 1

        def __post_init__(self):
            ...  # validate; may normalise a field with object.__setattr__

Instances take their fields by position or by name, then call
__post_init__ (looked up on the class at each call, so a method replaced
on the class takes effect). They refuse assignment and deletion. Like any
object they compare equal and hash by identity, and print as object does.

This is the part of dataclasses.dataclass(frozen=True) that the package
uses, with no code generated: dataclasses compiles every method of every
class with exec when its module is imported, which costs each process
milliseconds.
"""

from __future__ import annotations

import inspect

_EMPTY = inspect.Parameter.empty
_FIELD = inspect.Parameter.POSITIONAL_OR_KEYWORD
_setattr = object.__setattr__


class _ClassSignature:
    """A Record class's __signature__, which lists its fields for
    inspect.signature and help(); on an instance it is missing, so the
    signature of a callable record is that of its __call__."""

    def __get__(self, obj, cls):
        if obj is not None:
            raise AttributeError("__signature__")
        return cls._signature


class Record:
    __slots__ = ()
    __signature__ = _ClassSignature()

    # per class: the field names in order, the defaults of the trailing
    # fields by name and in order, and the number of fields before them
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _tail: tuple = ()
    _required = 0
    _signature = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(name for name in annotations if name not in cls._fields)
        defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in annotations
                                        if name in cls.__dict__}}
        params = []
        for name in fields:
            if name not in defaults and params and params[-1].default is not _EMPTY:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                f"follows a field with one")
            params.append(inspect.Parameter(name, _FIELD, default=defaults.get(name, _EMPTY),
                                            annotation=annotations.get(name, _EMPTY)))
        cls._fields, cls._defaults = fields, defaults
        cls._required = len(fields) - len(defaults)
        cls._tail = tuple(defaults[name] for name in fields[cls._required:])
        cls._signature = inspect.Signature(params)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """Every field's value, in order, from the arguments of a call that
        does not pass each field by position."""
        fields, required, n = self._fields, self._required, len(args)
        if not kwargs and required <= n <= len(fields):
            return args + self._tail[n - required:]
        name, defaults = type(self).__name__, self._defaults
        if n > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {n} were given")
        values = list(args)
        for i, key in enumerate(fields[n:], n):
            if key in kwargs:
                values.append(kwargs.pop(key))
            elif key in defaults:
                values.append(defaults[key])
            else:
                missing = ", ".join(repr(key) for key in fields[i:]
                                    if key not in kwargs and key not in defaults)
                raise TypeError(f"{name}() missing required arguments: {missing}")
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
