"""Test-only helpers over the package's types.

The tool itself never narrows an evidence family, builds a changed copy
of a build, filters a transcript by callee or compares whole
transcripts, so these live beside the tests that do.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Optional

from foregone.evidence import EmptyFamilyError, Evidence
from foregone.kernel import CallEvent, Machine, Nature, RunOutput, Transcript, World
from foregone.scenarios import Scenario
from foregone.values import ABSENT, NO_SUCH_METHOD, value_key


def restrict_to(evidence: Evidence, labels: tuple[str, ...]) -> Evidence:
    """Sub-evidence over a subset of world labels (a stronger evidence)."""
    keep = set(labels)
    surviving = tuple((l, w) for l, w in evidence.worlds if l in keep)
    if not surviving:
        raise EmptyFamilyError(f"restriction of {evidence.name!r} is empty")
    return Evidence(
        f"{evidence.name}|{'+'.join(sorted(keep))}",
        evidence.assertions,
        surviving,
        evidence.probe,
        evidence.partial_specs,
        evidence.full_specs,
    )


def changed_methods(machine: Machine, **methods: Optional[Callable]) -> Machine:
    """A new machine like ``machine`` with ``methods`` in its method
    table; a method given as None is removed."""
    table = {**machine.methods, **methods}
    return Machine(
        machine.id,
        machine.state,
        {name: fn for name, fn in table.items() if fn is not None},
        machine.force_zero_tape,
        machine.emulated_respondent,
    )


def changed_world(
    world: World,
    slots: Optional[dict[int, Machine]] = None,
    respondent: Optional[Machine] = None,
    read_only: Optional[frozenset[int]] = None,
) -> World:
    """A new world like ``world``, with the machines in ``slots`` in place
    of its own at those locations, and ``respondent`` and ``read_only``
    in place of its own where given."""
    nature = world.nature
    return World(
        Nature(
            {**nature.slots, **(slots or {})},
            nature.read_only if read_only is None else read_only,
        ),
        world.respondent if respondent is None else respondent,
    )


def changed_device(
    scenario: Scenario, location: int, change: Callable[[Machine], Machine]
) -> Scenario:
    """A copy of ``scenario`` whose every world holds ``change(device)``
    in place of its device at ``location``.  A world object that several
    evidences share is rebuilt once, so the copies share it too.  The
    copy is not audited again."""
    rebuilt: dict[int, World] = {}

    def changed(world: World) -> World:
        if id(world) not in rebuilt:
            device = world.nature.slots.get(location)
            rebuilt[id(world)] = (
                world if device is None else changed_world(world, {location: change(device)})
            )
        return rebuilt[id(world)]

    twin = copy.copy(scenario)
    twin.evidences = {
        key: Evidence(
            evidence.name,
            evidence.assertions,
            tuple((label, changed(world)) for label, world in evidence.worlds),
            evidence.probe,
            evidence.partial_specs,
            evidence.full_specs,
        )
        for key, evidence in scenario.evidences.items()
    }
    return twin


def outcome_key(outcome: Any) -> Any:
    """A type-strict key of a value, with the ``ABSENT`` and
    ``NO_SUCH_METHOD`` markers as themselves."""
    return outcome if outcome is ABSENT or outcome is NO_SUCH_METHOD else value_key(outcome)


def event_key(event: CallEvent) -> tuple:
    """A type-strict key of one transcript event: ``True`` and ``1``
    as argument or output give different keys."""
    return (
        event.caller,
        event.callee,
        event.method,
        outcome_key(event.argument),
        outcome_key(event.output),
    )


def transcript_key(transcript: Transcript) -> tuple:
    """A type-strict key of a whole transcript: events, messages and
    verdict."""
    return (
        tuple(event_key(e) for e in transcript.events),
        tuple(value_key(m) for m in transcript.messages_to_verifier),
        transcript.verdict,
    )


def run_key(ran: RunOutput) -> tuple:
    """A type-strict key of a target or post-processor run."""
    return (outcome_key(ran.output), ran.read_tape)


def calls_to(transcript: Transcript, machine_id: str) -> list[CallEvent]:
    """The calls of ``transcript`` made to ``machine_id``, in order."""
    return [e for e in transcript.events if e.callee == machine_id]


def count_calls(monkeypatch, owner: Any, names: tuple[str, ...]) -> dict[str, int]:
    """Count every call to each attribute of ``owner`` in ``names`` from
    here on; the returned dict holds the counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, _real=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    return counts
