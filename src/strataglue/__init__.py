"""Stable dual-graph posets, linearly stratified vector spaces, gluing
atlases, and plumbing coordinates."""

__version__ = "0.1.0"

_set = object.__setattr__  # writes a slot past Record.__setattr__


class Record:
    """An immutable record whose fields are the ``__slots__`` of its class
    and of the record classes above it, the base's first.

    Records of one class are equal when their ``_compared()`` values are
    (every field unless a class narrows it), hash those, and print as
    ``Name(field=value, ...)``.  A class whose constructor checks or
    normalizes its fields spells out its ``__init__``, setting each field
    with ``_set``; the others take this one.  Only StableGraph copies code
    of this class, its ``_compared`` and its unchecked ``_of``: every edge
    contraction runs both, and the ``dm`` benchmark slows measurably when
    they take Record's.  GluingDatum also has an unchecked ``_of``, for
    data built in normal form."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += vars(cls).get("__slots__", ())

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:  # a keyword left over is unknown or repeats a position
            args += tuple(kwargs.pop(name) for name in names[len(args):]
                          if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError("%s() takes the fields %s" % (
                type(self).__qualname__, ", ".join(names)))
        for name, value in zip(names, args):
            _set(self, name, value)

    def _compared(self):
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))


def replace(record, **changes):
    """A copy of the record with some fields changed, made by its public
    constructor, so the class's check runs on the result."""
    return type(record)(**{**{name: getattr(record, name)
                              for name in record._fields}, **changes})
