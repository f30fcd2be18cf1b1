"""Closed value algebra shared by every machine in the framework.

A machine input or output is one of:

  * ``None``            -- the null value (written ⊥ in reports)
  * ``bool``            -- truth values
  * ``int``             -- integers
  * ``bytes``           -- byte strings (messages, passwords, file contents)
  * ``Location``        -- an index into nature's slots
  * 2-tuple of values   -- an ordered pair

``ABSENT`` is *not* a value.  It is the distinguished outcome of a method
that halts without producing anything, and it compares equal to nothing
but itself.  Keeping ⊥ (a value) apart from ABSENT (no value) matters:
a respondent who answers "nothing" is different from one who does not
answer at all.

Equality between values is structural, total, and type-strict:
``same_value(True, 1)`` is False even though Python's ``==`` says
otherwise.  ``value_key`` is its hashable twin: over values and ABSENT,
two keys are equal exactly when ``same_value`` holds, so a set of keys
answers membership without a scan.  Off the algebra the two part ways
(``same_value`` never equates a 3-tuple, even with itself, and a float
NaN defeats both), so a caller that keys a collection checks
``is_value`` on its members first.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any


class _Marker:
    """A named outcome that is not a value.  Copying or pickling a marker
    yields the module-level marker of that name, so identity holds."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return self.name


ABSENT = _Marker("ABSENT")  # the method produced no output
NO_SUCH_METHOD = _Marker("NO_SUCH_METHOD")  # recorded for refused calls


class Frozen:
    """Base of the records whose fields are set once, in ``__init__``
    (through ``object.__setattr__``): assigning or deleting a field
    raises ``AttributeError``.  ``__setstate__`` lets ``copy`` and
    ``pickle`` restore the slots all the same, and a deep copy is the
    record itself, whose fields cannot change."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def read_only_copy(mapping) -> MappingProxyType:
    """A read-only view of a copy of ``mapping``, a dict or a read-only
    view of one (of an empty dict for None).  A ``Frozen`` record keeps
    a dict it is given this way, so neither the record's holders nor its
    builder can change it.  ``copy`` copies the dict under a view, where
    ``dict(view)`` would take the slow generic path."""
    return MappingProxyType((mapping or {}).copy())


class Location(Frozen):
    """A slot index into nature.  Locations are values and may be passed
    between machines (e.g. a respondent revealing where a device is).
    Two locations are equal when their indices are, and a location
    equals nothing else.  The index is of exact type ``int``, the only
    type that names a slot: ``True`` and ``1.0`` equal ``1`` under
    ``==``, so a location built on one would equal ``Location(1)``
    while naming no slot."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if type(index) is not int:
            raise TypeError(f"a location index is an int, not a {type(index).__name__}")
        if index < 0:
            raise ValueError("locations are non-negative")
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if type(other) is not Location:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return f"@{self.index}"


# The exact types of the atoms.  ``is_value`` tests a value's exact type
# against these first, so a caller on a hot path may do the same and
# call ``is_value`` only for anything else (a pair, a subclass, a
# non-value) without changing what is accepted.
ATOM_TYPES = frozenset({type(None), bool, int, bytes, Location})


def is_value(v: Any) -> bool:
    """True iff ``v`` belongs to the value algebra (ABSENT does not)."""
    if type(v) in ATOM_TYPES or isinstance(v, (bool, int, bytes, Location)):
        return True
    if isinstance(v, tuple) and len(v) == 2:
        return is_value(v[0]) and is_value(v[1])
    return False


def same_value(a: Any, b: Any) -> bool:
    """Structural, type-strict equality over values and ABSENT.

    Total over everything the kernel can produce; distinguishes
    ``True`` from ``1`` and ``None`` from ``ABSENT``.
    """
    if a is ABSENT or b is ABSENT:
        return a is b
    if a is None or b is None:
        return a is b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return (
            len(a) == 2
            and len(b) == 2
            and same_value(a[0], b[0])
            and same_value(a[1], b[1])
        )
    if type(a) is not type(b):
        return False
    return a == b


def value_key(value: Any) -> tuple:
    """A hashable key that tells values apart as ``same_value`` does:
    ``True``/``1``, ``b"1"``/``1`` and ``None``/``ABSENT`` differ, and
    pairs are keyed item by item."""
    if isinstance(value, tuple):
        return (tuple, *(value_key(item) for item in value))
    return (type(value), value)


def render_value(v: Any) -> str:
    """Stable human-readable rendering used in transcripts and reports."""
    if isinstance(v, bytes):  # first: the commonest, and no other case is bytes
        # an ASCII text is printable exactly when each byte is in 32..126
        if v and v.isascii() and (text := v.decode("ascii")).isprintable():
            return '"' + text + '"'
        return "0x" + v.hex()
    if v is ABSENT:
        return "absent"
    if v is NO_SUCH_METHOD:
        return "no-such-method"
    if v is None:
        return "⊥"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Location):
        return repr(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(render_value(item) for item in v) + ")"
    return repr(v)
