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
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Location:
    """A slot index into nature.  Locations are values and may be passed
    between machines (e.g. a respondent revealing where a device is)."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("locations are non-negative")

    def __repr__(self):
        return f"@{self.index}"


def is_value(v: Any) -> bool:
    """True iff ``v`` belongs to the value algebra (ABSENT does not)."""
    if v is None or isinstance(v, (bool, int, bytes, Location)):
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


def render_value(v: Any) -> str:
    """Stable human-readable rendering used in transcripts and reports."""
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
    if isinstance(v, bytes):
        if v and all(32 <= b < 127 for b in v):
            return '"' + v.decode("ascii") + '"'
        return "0x" + v.hex()
    if isinstance(v, Location):
        return repr(v)
    if isinstance(v, tuple):
        return "(" + render_value(v[0]) + ", " + render_value(v[1]) + ")"
    return repr(v)
