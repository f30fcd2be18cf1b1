"""Bounded decision procedures for the behavioral ordering on machines.

A machine ``spec`` partially specifies a machine ``candidate`` when the
candidate defines at least the spec's methods and, over every execution
that sticks to those methods, produces the same outputs -- including
across sequential stateful invocations.  The full relation is
undecidable, so we decide a bounded version: every call sequence up to
a depth bound, with inputs drawn from a finite alphabet, runs on both
machines under identical tapes, and the outcome streams are compared.

The call sequences form a tree, walked level by level.  A node holds
each side's built subject and the invoker's position after its probe:
the step count, the tape offsets and the machine states (the subject's
and any emulated respondent's).  A child moves the invoker to its
parent's position and makes one more call on each side, which copies a
state before it writes it, so a probe inherits its prefix instead of
replaying it.  Every call of a search runs through one invoker over one
probe world, under seed 0 and the search's budget; a subject runs in the
nature role, which reaches neither nature's slots (the probe world has
none) nor the world's respondent, so no call changes that world.

The outcome of a call depends only on the node it starts from, keyed per
side by the subject's ``kernel.machine_key`` read through the node's
states (state under ``value_key``, emulated respondent and zero-tape
flag included), the step count and the sorted tape offsets.  A search
therefore expands each distinct (left, right) node once: a child whose
key it has seen has its own outcome compared but is not expanded again,
since its subtree repeats that of a node at the same level or a
shallower one.  So the first diverging node of the walk is still the
shortest diverging probe, and among those the first in option order.
Machines are probed in isolation: a cross-machine call surfaces as the
same no-such-method outcome on both sides and therefore never separates
them by itself.

A comparison is decided once per process: its answer is memoized under
the ``kernel.machine_key`` of both machines, the depth, the alphabet and
the budget.  Two machines whose keys agree in everything but the
top-level id are decided without a walk: both sides run under one probe
id, so their roots are equal, and by the invariant above so is every
node below them, and no probe can separate them.  An emulated
respondent's id stays in the comparison, since it names the tape stream
the respondent reads.  A method that would fault on some probe is then
never run at load; a check that runs it still faults.

A ``False`` answer always has a concrete witness probe;
``replay_probe`` runs it from scratch through the kernel and exhibits
the divergent outputs.
"""

from __future__ import annotations

from typing import Any, Optional

from .kernel import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DirectInvoker,
    KernelError,
    Machine,
    NoSuchMethodError,
    machine_key,
)
from .values import ABSENT, Frozen, render_value, same_value, value_key

Probe = tuple[tuple[str, Any], ...]

_PROBE_ID = "probe-subject"

# comparison key -> witness (or None); see ``distinguishing_probe``
_RESULTS: dict[tuple, Optional[Probe]] = {}


class ProbeSpec(Frozen):
    """Bounds a scenario declares sufficient to separate its machines."""

    __slots__ = ("depth", "alphabet")

    def __init__(self, depth: int, alphabet: tuple[Any, ...]):
        if depth < 1:
            raise ValueError("probe depth must be at least 1")
        if not alphabet:
            raise ValueError("probe alphabet must be non-empty")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "alphabet", alphabet)


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


def _subject(machine: Machine) -> Machine:
    return Machine(
        _PROBE_ID,
        machine.state,
        machine.methods,
        machine.force_zero_tape,
        machine.emulated_respondent,
    )


def replay_probe(machine: Machine, probe: Probe, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """Run a call sequence against ``machine`` from its built state and
    return the outcome stream.  Used to confirm witnesses independently."""
    subject = _subject(machine)
    invoker = DirectInvoker(budget=budget)
    return [_outcome(invoker, subject, method, argument) for method, argument in probe]


_Node = tuple[Machine, tuple]  # (built subject, invoker position)


def _step(invoker: DirectInvoker, node: _Node, method: str, argument) -> tuple[tuple, _Node]:
    """One more call from ``node``: the outcome and the child node.  A
    position once read never changes, so the node stays as it was."""
    machine, position = node
    invoker.move_to(position)
    return _outcome(invoker, machine, method, argument), (machine, invoker.position)


def _key(left: _Node, right: _Node) -> tuple:
    return tuple(
        (machine_key(machine, states), steps, offsets)
        for machine, (steps, offsets, states) in (left, right)
    )


def _search(
    spec: Machine,
    candidate: Machine,
    depth: int,
    alphabet: tuple[Any, ...],
    budget: int,
) -> Optional[Probe]:
    """The uncached level-by-level walk behind ``distinguishing_probe``.
    A kernel error other than a missing method or an exhausted budget is
    raised again as a ``KernelError`` naming the calls, in order, of the
    probe whose last call raised it, and the original exception, with the
    probe id that stands for both sides taken out."""
    for name in spec.method_names():
        if name not in candidate.methods:
            return ((name, alphabet[0]),)
    options = [
        (name, letter) for name in spec.method_names() for letter in alphabet
    ]
    invoker = DirectInvoker(budget=budget)
    root = ((_subject(spec), invoker.position), (_subject(candidate), invoker.position))
    seen = {_key(*root)}
    level = [((), *root)]
    for length in range(1, depth + 1):
        children = []
        for probe, left, right in level:
            for option in options:
                try:
                    a, left_child = _step(invoker, left, *option)
                    b, right_child = _step(invoker, right, *option)
                except KernelError as exc:
                    cause = exc.__cause__ or exc
                    detail = str(cause).replace(f" {_PROBE_ID!r}", "").replace(f"{_PROBE_ID}.", "")
                    calls = ", ".join(
                        f"{name}({render_value(letter)})" for name, letter in probe + (option,)
                    )
                    raise KernelError(
                        f"probe {calls} raised {type(cause).__name__}: {detail}"
                    ) from cause
                if not _same_outcome(a, b):
                    return probe + (option,)
                if length < depth:
                    key = _key(left_child, right_child)
                    if key not in seen:
                        seen.add(key)
                        children.append((probe + (option,), left_child, right_child))
        level = children
    return None


def distinguishing_probe(
    spec: Machine,
    candidate: Machine,
    depth: int,
    alphabet: tuple[Any, ...],
    budget: int = DEFAULT_BUDGET,
) -> Optional[Probe]:
    """Shortest probe on which the two machines diverge over the spec's
    methods, the first in option order among those, or None if none
    exists within the bounds.  A missing method on the candidate counts
    as an immediate witness of length one."""
    spec_key, candidate_key = machine_key(spec), machine_key(candidate)
    key = (
        spec_key,
        candidate_key,
        depth,
        tuple(value_key(letter) for letter in alphabet),
        budget,
    )
    if key not in _RESULTS:
        # equal content under the one probe id: no node can diverge
        same = spec_key[1:] == candidate_key[1:]
        _RESULTS[key] = None if same else _search(spec, candidate, depth, alphabet, budget)
    return _RESULTS[key]


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
