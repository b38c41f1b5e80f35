"""The base of the package's value types.

A subclass lists its fields in __slots__, in constructor order; a slot
whose name starts with '_' holds a memo and takes no part in equality,
hashing or the repr.  Value supplies a positional __init__ (types built
in inner loops, and types that validate or fill memos, write their
own), equality (same class and equal fields), a hash over the fields,
the repr Name(field=value, ...) and _replace.  Defining a subclass
generates and compiles no methods, so it costs about what a plain
class statement costs.  Instances are never changed after
construction, except to fill a memo slot.
"""
from operator import attrgetter


def _no_fields(value):
    return ()


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        # an attrgetter is not bound as a method, so self._key(self) calls it
        cls._key = attrgetter(*cls._fields) if cls._fields else staticmethod(_no_fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        unknown = changes.keys() - self._fields
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {sorted(unknown)[0]!r}")
        return type(self)(*(changes.get(f, getattr(self, f)) for f in self._fields))
