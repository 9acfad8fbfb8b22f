"""Finite truncated simplicial sets, enriched categories, and the
stratified-Grassmannian verification toolkit built on them."""

__version__ = "0.1.0"


class Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    ``_fields`` and is built from their values in that order; equality
    (with the same class only), hash and repr go by the fields, as a
    frozen dataclass's do, and no attribute can be set or deleted after
    ``__init__``.  Plain classes, because importing ``dataclasses``
    would cost every qckit process ``inspect`` and ``ast``."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields {self._fields}, "
                f"got {len(values)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
