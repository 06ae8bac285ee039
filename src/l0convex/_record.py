"""Record classes without code generation: the part of `dataclasses` this
package uses.

`@record` (or `@record(frozen=True)`) reads the fields from the class's
own annotations, in order, and installs methods built as closures over
the field names, with no generated source:

- `__init__` takes each field positionally or by keyword; a field left
  out takes its class-level default, or a fresh `default_factory()` when
  declared as `field(default_factory=...)`.  It then calls
  `__post_init__` when the class defines one.
- `__repr__` is `QualName(f=v, ...)`.
- `__eq__` compares the tuples of field values, and only between objects
  of the same class.
- A frozen record hashes its field tuple and rejects assigning or
  deleting any attribute with `AttributeError`.  A mutable record is
  unhashable.

For these classes the behaviour is that of `dataclasses.dataclass`.  The
stdlib decorator builds every method by compiling source text and pulls
in `inspect` on import, which at start-up costs more than most commands
themselves.  Anything outside the subset (another option, a base class,
a class that writes one of these methods itself) raises `TypeError`
instead of being ignored.  Introspection shows `__init__(*args, **kwargs)`:
the field list is the class's annotations.
"""

from __future__ import annotations

_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


class _Factory:
    """The default of a field built per instance."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory) -> _Factory:
    """A field whose default is `default_factory()`, called per instance."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen: bool = False):
    """Make `cls` a record class; `frozen=True` makes its instances immutable."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    if cls.__bases__ != (object,):
        raise TypeError(f"record class {cls.__qualname__} must not have a base class")
    clash = [name for name in _METHODS if name in vars(cls)]
    if clash:
        raise TypeError(f"record class {cls.__qualname__} defines {', '.join(clash)}")
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    for name, default in defaults.items():
        if isinstance(default, _Factory):
            delattr(cls, name)
    n = len(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def values(obj) -> tuple:
        return tuple([getattr(obj, name) for name in names])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    methods = [__init__, __repr__, __eq__] + ([__hash__] if frozen else [])
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The value of every field, in field order, for one constructor call."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names)} arguments but {len(args)} were given")
    given = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{where} got multiple values for argument {key!r}")
        given[key] = value
    out = []
    for name in names:
        if name in given:
            out.append(given[name])
        elif name in defaults:
            default = defaults[name]
            out.append(default.make() if isinstance(default, _Factory) else default)
        else:
            raise TypeError(f"{where} missing required argument {name!r}")
    return out


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
