"""Test-only helpers over the package's types.

The tool itself never narrows an evidence family or filters a
transcript by callee, so these live beside the tests that do.
"""

from __future__ import annotations

from dataclasses import replace

from foregone.evidence import EmptyFamilyError, Evidence
from foregone.kernel import CallEvent, Transcript


def restrict_to(evidence: Evidence, labels: tuple[str, ...]) -> Evidence:
    """Sub-evidence over a subset of world labels (a stronger evidence)."""
    keep = set(labels)
    surviving = tuple((l, w) for l, w in evidence.worlds if l in keep)
    if not surviving:
        raise EmptyFamilyError(f"restriction of {evidence.name!r} is empty")
    return replace(
        evidence,
        name=f"{evidence.name}|{'+'.join(sorted(keep))}",
        worlds=surviving,
    )


def calls_to(transcript: Transcript, machine_id: str) -> list[CallEvent]:
    """The calls of ``transcript`` made to ``machine_id``, in order."""
    return [e for e in transcript.events if e.callee == machine_id]
