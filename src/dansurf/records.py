"""Value records: classes whose named fields set their equality, hash and
repr, written out by hand so that importing the package generates no code."""


class Record:
    """The fields named in `_fields`, stored in the instance dict by the
    subclass's __init__ (through vars(self), as assignment raises).

    Two records are equal when they are of exactly the same class and their
    field tuples are equal; the hash is that of the field tuple and the repr
    lists the fields, as for a frozen dataclass.  Assigning or deleting any
    attribute raises AttributeError; functools.cached_property, which writes
    the instance dict itself, still works.
    """

    _fields = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other is self:  # as the field tuples' comparison would find
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        inner = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
