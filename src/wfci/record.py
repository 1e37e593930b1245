"""Records: classes made of named fields, compared by value.

wfci's 22 record types (descriptors, verdicts, certificates, traces) were
dataclasses.  Decorating them cost about 11 ms at every start of a process,
since each `@dataclass` execs six generated methods and a class without a
docstring also runs `inspect.signature`; importing `dataclasses`, which
pulls in `inspect`, `ast`, `dis` and `tokenize`, cost about 4 ms more.  That
was 15 of the 67 ms that importing `wfci.cli` and loading the tables took
(2-vCPU x86-64, CPython 3.11.7, no bytecode cache).  `Record` gives the same
methods, built once in this module, without generating code.

A record's fields are the parameters of its `__init__`, in order.  The
`__init__` validates and normalizes its arguments, then sets each field once
with `setfield`, since a record refuses assignment.  Like the frozen
dataclass it replaces, a record equals another of the same class whose
fields, but those named `uncompared`, are equal; hashes the tuple of those
fields; prints as `Name(field=value, ...)`; and pickles through its
`__dict__`.
"""

from operator import attrgetter

# object.__setattr__, which a record's __init__ calls for each field
setfield = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared=()):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        compared = [name for name in cls._fields if name not in uncompared]
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
