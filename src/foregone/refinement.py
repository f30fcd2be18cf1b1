"""Bounded decision procedures for the behavioral ordering on machines.

A machine ``spec`` partially specifies a machine ``candidate`` when the
candidate defines at least the spec's methods and, over every execution
that sticks to those methods, produces the same outputs -- including
across sequential stateful invocations.  The full relation is
undecidable, so we decide a bounded version: enumerate every call
sequence up to a depth bound with inputs drawn from a finite alphabet,
replay it on fresh copies of both machines under identical tapes, and
compare the outcome streams.

Each probe starts from the machines' initial states (no probe inherits
a prefix from another probe).  Machines are probed in isolation: a
cross-machine call surfaces as the same no-such-method outcome on both
sides and therefore never separates them by itself.

A ``False`` answer always has a concrete witness probe; replaying it
through the kernel exhibits the divergent outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from .kernel import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DirectInvoker,
    Machine,
    NoSuchMethodError,
    fork_machine,
)
from .values import ABSENT, same_value

Probe = tuple[tuple[str, Any], ...]

_PROBE_ID = "probe-subject"


@dataclass(frozen=True)
class ProbeSpec:
    """Bounds a scenario declares sufficient to separate its machines."""

    depth: int
    alphabet: tuple[Any, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("probe depth must be at least 1")
        if not self.alphabet:
            raise ValueError("probe alphabet must be non-empty")


def _outcome(invoker: DirectInvoker, machine: Machine, method: str, argument) -> tuple:
    try:
        value = invoker.invoke(machine, method, argument)
    except NoSuchMethodError:
        return ("no-such-method",)
    except BudgetExceededError:
        return ("budget",)
    if value is ABSENT:
        return ("absent",)
    return ("value", value)


def _same_outcome(a: tuple, b: tuple) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "value":
        return same_value(a[1], b[1])
    return True


def replay_probe(machine: Machine, probe: Probe, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """Run a call sequence against a fresh copy of ``machine`` and return
    the outcome stream.  Used to confirm witnesses independently."""
    subject = fork_machine(machine)
    subject.id = _PROBE_ID
    invoker = DirectInvoker(budget=budget)
    return [_outcome(invoker, subject, method, argument) for method, argument in probe]


def distinguishing_probe(
    spec: Machine,
    candidate: Machine,
    depth: int,
    alphabet: tuple[Any, ...],
    budget: int = DEFAULT_BUDGET,
) -> Optional[Probe]:
    """First probe (in enumeration order) on which the two machines
    diverge over the spec's methods, or None if none exists within the
    bounds.  A missing method on the candidate counts as an immediate
    witness of length one."""
    for name in spec.method_names():
        if name not in candidate.methods:
            return ((name, alphabet[0]),)
    options = [
        (name, letter) for name in spec.method_names() for letter in alphabet
    ]
    for length in range(1, depth + 1):
        for probe in itertools.product(options, repeat=length):
            left = replay_probe(spec, probe, budget)
            right = replay_probe(candidate, probe, budget)
            for a, b in zip(left, right):
                if not _same_outcome(a, b):
                    return probe
    return None


def bounded_implements(
    spec: Machine,
    candidate: Machine,
    depth: int,
    alphabet: tuple[Any, ...],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff ``candidate`` defines every method of ``spec`` and no
    probe within the bounds separates them on those methods."""
    return distinguishing_probe(spec, candidate, depth, alphabet, budget) is None


def bounded_equivalent(
    a: Machine,
    b: Machine,
    depth: int,
    alphabet: tuple[Any, ...],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Bounded implementation in both directions."""
    return bounded_implements(a, b, depth, alphabet, budget) and bounded_implements(
        b, a, depth, alphabet, budget
    )
