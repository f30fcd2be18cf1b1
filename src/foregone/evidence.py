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

Membership testing compares ``kernel.world_key`` (same machine shapes,
same asserted values), which keeps it total and fast; a world that is
one of the weaker family's own objects is a member without keying.
The semantic checks live in ``audit`` and run at scenario load.
"""

from __future__ import annotations

from typing import Callable, Optional

from .kernel import Machine, MethodFaultError, World, world_key
from .refinement import ProbeSpec, bounded_equivalent, bounded_implements
from .values import Frozen, read_only_copy


class EvidenceError(Exception):
    pass


class EmptyFamilyError(EvidenceError):
    """A refinement left no consistent world: the scenario is malformed,
    since the true world is always consistent with correct evidence."""


class UnknownAssertionError(EvidenceError):
    pass


class Assertion(Frozen):
    """One human-readable claim the evidence makes, with optional hooks.

    ``holds_in`` is a per-world predicate run by the audit.  Droppable
    assertions declare the extension worlds that become consistent once
    the assertion is gone.
    """

    __slots__ = ("id", "text", "droppable", "extension_worlds", "holds_in")

    def __init__(
        self,
        id: str,
        text: str,
        droppable: bool = False,
        extension_worlds: tuple[tuple[str, World], ...] = (),
        holds_in: Optional[Callable[[World], bool]] = None,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "droppable", droppable)
        object.__setattr__(self, "extension_worlds", extension_worlds)
        object.__setattr__(self, "holds_in", holds_in)


class Evidence(Frozen):
    """A named, non-empty family of labelled worlds, the assertions that
    describe it, and the machine shapes it asserts per location.  The
    spec maps are read-only views of copies of the dicts given, so an
    evidence cannot change."""

    __slots__ = ("name", "assertions", "worlds", "probe", "partial_specs", "full_specs")

    def __init__(
        self,
        name: str,
        assertions: tuple[Assertion, ...],
        worlds: tuple[tuple[str, World], ...],
        probe: ProbeSpec,
        partial_specs: Optional[dict[int, Machine]] = None,
        full_specs: Optional[dict[int, Machine]] = None,
    ):
        if not worlds:
            raise EmptyFamilyError(f"evidence {name!r} has no consistent world")
        labels = [label for label, _ in worlds]
        if len(set(labels)) != len(labels):
            raise EvidenceError(f"evidence {name!r} has duplicate world labels")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "assertions", tuple(assertions))
        object.__setattr__(self, "worlds", tuple(worlds))
        object.__setattr__(self, "probe", probe)
        object.__setattr__(self, "partial_specs", read_only_copy(partial_specs))
        object.__setattr__(self, "full_specs", read_only_copy(full_specs))

    def world(self, label: str) -> World:
        for candidate, world in self.worlds:
            if candidate == label:
                return world
        raise EvidenceError(f"evidence {self.name!r} has no world {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.worlds)


def at_least_as_strong(stronger: Evidence, weaker: Evidence) -> bool:
    """True iff every world of ``stronger`` appears in ``weaker``, by
    ``world_key``; tapes are not part of evidence.

    A world of ``stronger`` that is one of ``weaker``'s own objects
    appears in it without being keyed: one object has one key during
    the call.  Only the other worlds, and then ``weaker``'s, are keyed.
    """
    own = {w for _, w in weaker.worlds}
    others = [w for _, w in stronger.worlds if w not in own]
    return not others or {world_key(w) for w in others} <= {
        world_key(w) for _, w in weaker.worlds
    }


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
    return Machine(id=spec.id, state=bound_state, methods=spec.methods)


def _satisfies(
    evidence: Evidence, label: str, world: World, location: int, spec: Machine, relation: Callable
) -> bool:
    """Whether the device at ``location`` of world ``label`` stands in
    ``relation`` (``bounded_equivalent`` or ``bounded_implements``) to
    ``spec`` bound to its values.  Callers name the relation at call
    time, so a wrapper bound over the module-level name (as the
    benchmark tracer binds one) sees the call.  The probes run both
    machines under one probe id, so a method fault is raised again
    naming the evidence, world, location, device id and relation."""
    device = world.nature.slots.get(location)
    if device is None:
        return False
    bound = _rebind(spec, device)
    try:
        return bound is not None and relation(
            bound, device, evidence.probe.depth, evidence.probe.alphabet
        )
    except MethodFaultError as exc:
        cause = exc.__cause__ or exc
        raise MethodFaultError(
            f"evidence {evidence.name!r}, world {label!r}: comparing nature[{location}] "
            f"{device.id!r} with {spec.id!r} under {relation.__name__} raised "
            f"{type(cause).__name__}: {cause}"
        ) from cause


def strengthen_to_full_spec(
    evidence: Evidence, location: int, spec: Machine
) -> Evidence:
    """Upgrade the assertion at ``location`` from shape-implementation to
    exact shape; the family shrinks to the worlds that survive the
    bounded equivalence probe.  Idempotent on already-exact families."""
    surviving = tuple(
        (label, world)
        for label, world in evidence.worlds
        if _satisfies(evidence, label, world, location, spec, bounded_equivalent)
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
    return Evidence(
        f"{evidence.name}+exact@{location}",
        evidence.assertions,
        surviving,
        evidence.probe,
        partial,
        full,
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
            return Evidence(
                f"{evidence.name}-minus-{assertion_id}",
                remaining,
                extended,
                evidence.probe,
                evidence.partial_specs,
                evidence.full_specs,
            )
    raise UnknownAssertionError(
        f"evidence {evidence.name!r} has no assertion {assertion_id!r}"
    )


def audit(evidence: Evidence) -> list[str]:
    """Self-consistency sweep; returns human-readable problems (empty
    when the family passes all of its own assertions' bounded checks).
    An assertion's ``holds_in`` that raises is a problem naming the
    evidence, the world, the assertion and the exception."""
    problems: list[str] = []
    for label, world in evidence.worlds:
        for location, spec in evidence.partial_specs.items():
            if not _satisfies(evidence, label, world, location, spec, bounded_implements):
                problems.append(
                    f"{evidence.name}/{label}: nature[{location}] does not "
                    f"implement the asserted shape {spec.id!r}"
                )
        for location, spec in evidence.full_specs.items():
            if not _satisfies(evidence, label, world, location, spec, bounded_equivalent):
                problems.append(
                    f"{evidence.name}/{label}: nature[{location}] is not "
                    f"exactly the asserted shape {spec.id!r}"
                )
        for assertion in evidence.assertions:
            try:
                if assertion.holds_in is None or assertion.holds_in(world):
                    continue
                failure = "fails"
            except Exception as exc:  # scenario code, whatever it raises
                failure = f"raised {type(exc).__name__}: {exc}"
            problems.append(f"{evidence.name}/{label}: assertion {assertion.id!r} {failure}")
    return problems
