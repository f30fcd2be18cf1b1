"""Test-only helpers over the package's types.

The tool itself never narrows an evidence family, filters a transcript
by callee or compares whole transcripts, so these live beside the
tests that do.
"""

from __future__ import annotations

from typing import Any

from foregone.evidence import EmptyFamilyError, Evidence
from foregone.kernel import CallEvent, RunOutput, Transcript
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
