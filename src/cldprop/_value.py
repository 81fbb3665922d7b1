"""Immutable value types compared by field, with one shared set of methods and no code generated per class.

A subclass's own annotations are its fields, in order, and its class attributes their defaults: its `__signature__`,
which binds every call that does not pass each field by position. `__post_init__` runs after construction and may
set attributes with `object.__setattr__`; any other assignment or deletion raises. Array fields compare by content.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np


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
        cls.__signature__ = inspect.Signature(  # refuses a field without a default after one with a default
            [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=annotation,
                               default=cls.__dict__.get(name, inspect.Parameter.empty))
             for name, annotation in annotations.items()],
            return_annotation=None,
        )

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            try:
                bound = self.__signature__.bind(*args, **kwargs)
            except TypeError as exc:
                raise TypeError(f"{type(self).__name__}(): {exc}") from None
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        vars(self).update(zip(self._fields, args))
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
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                              else a == b) for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def replace(self, **changes):
        """A new value of this class with `changes` to its fields, validated as any new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
