"""Record classes without the stdlib ``dataclasses`` module.

``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``: on a short command that costs more than the command's own
work.  This module gives the workbench's record classes the part of it they
use: ``frozen``, plain defaults, ``field(default_factory=...)`` (with
``init=False, repr=False, compare=False`` for a memo), ``__post_init__``
and ``fields()``.  As the stdlib does, it writes ``__init__``, ``__eq__``,
``__hash__`` and ``__repr__`` as straight-line source and compiles them
with one ``exec`` per class, so they behave and run as the stdlib's do.
"""

_MISSING = object()


class _Factory:
    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()  # the __init__ default of a field with a default factory


class Field:
    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def field(*, default_factory, init=True, repr=True, compare=True):
    """A field whose default each instance builds afresh by ``default_factory()``."""
    return Field(_MISSING, default_factory, init, repr, compare)


def fields(record):
    """The fields of a record class or instance, in declaration order."""
    return record._record_fields


def _frozen_setattr(self, name, _value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def dataclass(cls=None, /, *, frozen=False):
    """Class decorator: the annotated names become fields, with a generated
    ``__init__`` (which ends by calling ``__post_init__`` if the class has
    one), ``__eq__`` and ``__repr__``.  A frozen record is hashed by its
    compared fields and refuses every assignment; any other is unhashable."""
    if cls is None:
        return lambda cls: _record(cls, frozen)
    return _record(cls, frozen)


def _record(cls, frozen):
    flds, params, body = [], ["self"], []
    scope = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    for name in cls.__annotations__:
        f = cls.__dict__.get(name, _MISSING)
        if isinstance(f, Field):
            delattr(cls, name)
        else:
            f = Field(f, None, True, True, True)
        f.name = name
        flds.append(f)
        value = name
        if f.default_factory is not None:
            scope[f"_f_{name}"] = f.default_factory
            value = f"_f_{name}()"
            if f.init:
                params.append(f"{name}=_FACTORY")
                value += f" if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            scope[f"_d_{name}"] = f.default
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = [f.name for f in flds if f.compare]
    mine, theirs = ("(" + "".join(f"{who}.{n}," for n in compared) + ")" for who in ("self", "other"))
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in flds if f.repr)
    exec(
        "\n".join([
            f"def __init__({', '.join(params)}):",
            *(f"  {line}" for line in body),
            "def __repr__(self):",
            f"  return self.__class__.__qualname__ + f'({shown})'",
            "def __eq__(self, other):",
            "  if other.__class__ is self.__class__:",
            f"    return {mine} == {theirs}",
            "  return NotImplemented",
            "def __hash__(self):",
            f"  return hash({mine})",
        ]),
        scope,
    )
    methods = {name: scope[name] for name in ("__init__", "__repr__", "__eq__", "__hash__")}
    for fn in methods.values():
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    cls._record_fields = tuple(flds)
    return cls
