"""Evidence as finite enumerated families of consistent worlds.

What the government has proven is modeled as the set of worlds it
cannot rule out.  The real relation is uncomputable, so every piece of
evidence here enumerates its consistent family explicitly, and all
universally quantified checks range over that family.  The adversarial
worlds a claim's failure depends on (a deniable device, a writable
store, a respondent whose mind yields nothing) must therefore appear as
explicit members of the weaker families; each scenario documents why
its family covers the case analysis it stands in for.

Ordering: evidence2 is at least as strong as evidence1 when every world
consistent with evidence2 is consistent with evidence1 -- family
inclusion, checked structurally.

Two refinements move along that ordering:

  * ``strengthen_to_full_spec`` upgrades a location's machine assertion
    from "implements this shape" to "is exactly this shape", keeping
    only the worlds that survive a bounded equivalence probe.
  * ``drop_assertion`` removes a droppable assertion and enlarges the
    family by that assertion's declared extension worlds.

Membership testing is by structural identity (same machine shapes,
same asserted values), which keeps it total and fast; the semantic
checks live in ``audit`` and run at scenario load.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .kernel import Machine, World, same_world_content
from .refinement import ProbeSpec, bounded_equivalent, bounded_implements


class EvidenceError(Exception):
    pass


class EmptyFamilyError(EvidenceError):
    """A refinement left no consistent world: the scenario is malformed,
    since the true world is always consistent with correct evidence."""


class UnknownAssertionError(EvidenceError):
    pass


@dataclass(frozen=True)
class Assertion:
    """One human-readable claim the evidence makes, with optional hooks.

    ``holds_in`` is a per-world predicate run by the audit.  Droppable
    assertions declare the extension worlds that become consistent once
    the assertion is gone.
    """

    id: str
    text: str
    droppable: bool = False
    extension_worlds: tuple[tuple[str, World], ...] = ()
    holds_in: Optional[Callable[[World], bool]] = None


@dataclass
class Evidence:
    name: str
    assertions: tuple[Assertion, ...]
    worlds: tuple[tuple[str, World], ...]
    probe: ProbeSpec
    partial_specs: dict[int, Machine] = field(default_factory=dict)
    full_specs: dict[int, Machine] = field(default_factory=dict)
    languages: Optional[dict[str, frozenset]] = None

    def __post_init__(self):
        if not self.worlds:
            raise EmptyFamilyError(f"evidence {self.name!r} has no consistent world")
        labels = [label for label, _ in self.worlds]
        if len(set(labels)) != len(labels):
            raise EvidenceError(f"evidence {self.name!r} has duplicate world labels")

    def world(self, label: str) -> World:
        for candidate, world in self.worlds:
            if candidate == label:
                return world
        raise EvidenceError(f"evidence {self.name!r} has no world {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.worlds)


def is_consistent(evidence: Evidence, world: World) -> bool:
    """Membership of ``world`` in the enumerated family, by structural
    identity of (nature, respondent); tapes are not part of evidence."""
    return any(same_world_content(world, member) for _, member in evidence.worlds)


def at_least_as_strong(stronger: Evidence, weaker: Evidence) -> bool:
    """True iff every world of ``stronger`` appears in ``weaker``."""
    return all(is_consistent(weaker, world) for _, world in stronger.worlds)


def _rebind(spec: Machine, device: Machine) -> Optional[Machine]:
    """The spec's code with its variables bound to the device's values.

    Machine-shape assertions are parametric: the asserted shape is the
    spec's method table, while the concrete password/message/etc. live
    in the world.  Rebinding projects the device's state onto the
    spec's variables so the bounded probes compare like with like.
    Returns None when the device lacks one of the spec's variables (it
    then cannot implement the spec at all).
    """
    try:
        bound_state = {name: device.state[name] for name in spec.state}
    except KeyError:
        return None
    return Machine(id=spec.id, state=bound_state, methods=dict(spec.methods))


def _satisfies(
    world: World, location: int, spec: Machine, probe: ProbeSpec, relation: Callable
) -> bool:
    """Whether the device at ``location`` stands in ``relation``
    (``bounded_equivalent`` or ``bounded_implements``) to ``spec`` bound
    to its values.  Callers name the relation at call time, so a wrapper
    bound over the module-level name (as the benchmark tracer binds one)
    sees the call."""
    device = world.nature.slots.get(location)
    if device is None:
        return False
    bound = _rebind(spec, device)
    return bound is not None and relation(bound, device, probe.depth, probe.alphabet)


def strengthen_to_full_spec(
    evidence: Evidence, location: int, spec: Machine
) -> Evidence:
    """Upgrade the assertion at ``location`` from shape-implementation to
    exact shape; the family shrinks to the worlds that survive the
    bounded equivalence probe.  Idempotent on already-exact families."""
    surviving = tuple(
        (label, world)
        for label, world in evidence.worlds
        if _satisfies(world, location, spec, evidence.probe, bounded_equivalent)
    )
    if not surviving:
        raise EmptyFamilyError(
            f"no world of {evidence.name!r} is exactly shaped like "
            f"{spec.id!r} at location {location}"
        )
    partial = dict(evidence.partial_specs)
    partial.pop(location, None)
    full = dict(evidence.full_specs)
    full[location] = spec
    languages = None
    if evidence.languages is not None:
        keep = {label for label, _ in surviving}
        languages = {
            label: lang for label, lang in evidence.languages.items() if label in keep
        }
    return replace(
        evidence,
        name=f"{evidence.name}+exact@{location}",
        worlds=surviving,
        partial_specs=partial,
        full_specs=full,
        languages=languages,
    )


def drop_assertion(evidence: Evidence, assertion_id: str) -> Evidence:
    """Weaken the evidence by removing a droppable assertion; the family
    grows by the assertion's declared extension worlds."""
    for assertion in evidence.assertions:
        if assertion.id == assertion_id:
            if not assertion.droppable:
                raise UnknownAssertionError(
                    f"assertion {assertion_id!r} of {evidence.name!r} is not droppable"
                )
            remaining = tuple(
                a for a in evidence.assertions if a.id != assertion_id
            )
            extended = evidence.worlds + assertion.extension_worlds
            return replace(
                evidence,
                name=f"{evidence.name}-minus-{assertion_id}",
                assertions=remaining,
                worlds=extended,
            )
    raise UnknownAssertionError(
        f"evidence {evidence.name!r} has no assertion {assertion_id!r}"
    )


def restrict_to(evidence: Evidence, labels: tuple[str, ...]) -> Evidence:
    """Sub-evidence over a subset of world labels (a stronger evidence).

    Used by the monotonicity sampler to walk the subfamily lattice.
    """
    keep = set(labels)
    surviving = tuple((l, w) for l, w in evidence.worlds if l in keep)
    if not surviving:
        raise EmptyFamilyError(f"restriction of {evidence.name!r} is empty")
    languages = None
    if evidence.languages is not None:
        languages = {
            l: lang for l, lang in evidence.languages.items() if l in keep
        }
    return replace(
        evidence,
        name=f"{evidence.name}|{'+'.join(sorted(keep))}",
        worlds=surviving,
        languages=languages,
    )


def audit(evidence: Evidence) -> list[str]:
    """Self-consistency sweep; returns human-readable problems (empty
    when the family passes all of its own assertions' bounded checks)."""
    problems: list[str] = []
    for label, world in evidence.worlds:
        for location, spec in evidence.partial_specs.items():
            if not _satisfies(world, location, spec, evidence.probe, bounded_implements):
                problems.append(
                    f"{evidence.name}/{label}: nature[{location}] does not "
                    f"implement the asserted shape {spec.id!r}"
                )
        for location, spec in evidence.full_specs.items():
            if not _satisfies(world, location, spec, evidence.probe, bounded_equivalent):
                problems.append(
                    f"{evidence.name}/{label}: nature[{location}] is not "
                    f"exactly the asserted shape {spec.id!r}"
                )
        for assertion in evidence.assertions:
            if assertion.holds_in is not None and not assertion.holds_in(world):
                problems.append(
                    f"{evidence.name}/{label}: assertion {assertion.id!r} fails"
                )
    return problems
