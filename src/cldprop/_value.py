"""Immutable value types compared by field, with one shared set of methods and no code generated per class.

A subclass's own annotations are its fields, in order, and its class attributes their defaults. `__post_init__`
runs after construction and may set attributes with `object.__setattr__`; any other assignment or deletion raises.
"""

from __future__ import annotations

import inspect
import sys


class Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if sys.version_info >= (3, 14):  # annotations are evaluated lazily: read them without evaluating
            import annotationlib

            annotations = annotationlib.get_annotations(cls, format=annotationlib.Format.FORWARDREF)
        else:
            annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(annotations)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls.__signature__ = inspect.Signature(  # refuses a field without a default after one with a default
            [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=annotation,
                               default=cls._defaults.get(name, inspect.Parameter.empty))
             for name, annotation in annotations.items()],
            return_annotation=None,
        )

    def __init__(self, *args, **kwargs):
        fields, n = self._fields, len(args)
        if kwargs or n != len(fields):
            name, rest = type(self).__name__, fields[n:]
            if n > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments but {n} were given")
            for key in kwargs.keys() - rest:
                problem = "multiple values for argument" if key in fields else "an unexpected keyword argument"
                raise TypeError(f"{name}() got {problem} {key!r}")
            try:
                args += tuple([kwargs[f] if f in kwargs else self._defaults[f] for f in rest])
            except KeyError as exc:
                raise TypeError(f"{name}() missing argument {exc.args[0]!r}") from None
        vars(self).update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}", name=name, obj=self)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}", name=name, obj=self)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def replace(self, **changes):
        """A new value of this class with `changes` to its fields, validated as any new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
