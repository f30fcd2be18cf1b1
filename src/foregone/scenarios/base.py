"""Scenario bundles and the check runner shared by tests and the CLI.

A scenario packages everything one compelled-act fact pattern needs:
its evidence variants (a weak/strong chain where the fact pattern has
one), the verifier, exemplar, target, and post-processor, the declared
family of candidate actions, and the expected verdict of every check it
registers.  Each expected verdict carries a self-contained statement of
the claim it encodes, which the reports surface as the ``citation``.

A scenario's ``edges``, the (weaker, stronger) evidence pairs it
claims monotone, are derived from its monotonicity checks.

``run_check`` derives a verdict by handing the check to its kind's walk
in ``checkers`` and reading the report's verdict; a probe whose
hypothesis fails returns ``HypothesisViolated`` as its verdict.  The
registry audit compares it against the scenario's expectation.
Consecutive checks under one verifier, budget and seed list read each
other's kept runs, which leaves every report as the check alone makes
it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from ..checkers import (
    ActionFamily,
    CheckerError,
    CheckReport,
    CheckVerdict,
    DEFAULT_SEEDS,
    Languages,
    check_demonstrability,
    check_entailment,
    check_evidence_conformity,
    check_monotonicity,
    probe_random_target,
    probe_unknown_goal,
)
from ..evidence import Evidence, audit as audit_evidence
from ..kernel import DEFAULT_BUDGET, Machine
from ..toy_crypto import ToyCryptoError

CHECK_KINDS = (
    "demonstrability",
    "conformity",
    "entailment",
    "counterexample",
    "monotonicity",
    "probe-unknown-goal",
    "probe-random",
)

HOLDS = CheckVerdict.HOLDS.value
FAILS = CheckVerdict.FAILS.value
HYPOTHESIS_VIOLATED = CheckVerdict.HYPOTHESIS_VIOLATED.value


class ScenarioError(Exception):
    pass


class ScenarioCheck:
    """One registered check with its expected verdict.

    Role fields default to the scenario's primary bundle; a check that
    needs its own verifier, exemplar, family, target, and so on
    overrides them.  Every kind that runs an exemplar (the two probes
    included) runs ``exemplar or Scenario.exemplar``.  ``languages``
    maps each world label of a ``probe-unknown-goal`` check's evidence
    to the language its target output must land in; it lives on the
    check because checks that share one evidence need different ones.

    A build runs the evidence audit at load (``Scenario``) but defers
    the languages: a ``probe-unknown-goal`` check holds
    ``language_source``, a zero-argument function returning a fresh
    dict from world label to a tuple of members (a set would already
    have merged ``True`` with ``1``), and ``languages`` calls it on
    first read and keeps the result on this check.  So a process pays
    for a check's languages once, and only if something reads them.  A
    source that raises what is neither a ``CheckerError`` nor a
    ``ToyCryptoError`` raises a ``CheckerError`` naming the check.

    ``languages`` is a read-only ``checkers.Languages`` value (or None),
    so changing it in place raises ``TypeError``.  The probe keeps its
    gate outcome with the value, so each value is gated once per
    process.
    """

    def __init__(
        self,
        kind: str,
        evidence: str,
        expected: str,
        citation: str,
        verifier: Optional[Machine] = None,
        exemplar: Optional[Machine] = None,
        target: Optional[Machine] = None,
        post: Optional[Machine] = None,
        family: Optional[ActionFamily] = None,
        candidates: tuple[tuple[str, Machine], ...] = (),
        language_source: Optional[Callable[[], dict[str, tuple]]] = None,
        edge: Optional[tuple[str, str]] = None,  # (weaker key, stronger key)
    ):
        self.kind = kind
        self.evidence = evidence
        self.expected = expected
        self.citation = citation
        self.verifier = verifier
        self.exemplar = exemplar
        self.target = target
        self.post = post
        self.family = family
        self.candidates = candidates
        self.language_source = language_source
        self.edge = edge

    @property
    def id(self) -> str:
        return f"{self.kind}/{self.evidence}"

    @cached_property
    def languages(self) -> Optional[Languages]:
        source = self.language_source
        if source is None:
            return None
        try:
            by_world = source()
        except (CheckerError, ToyCryptoError):
            raise
        except Exception as exc:  # scenario code, whatever it raises
            raise CheckerError(
                f"check {self.id!r}: its language source raised {type(exc).__name__}: {exc}"
            ) from exc
        return Languages(by_world)


class Scenario:
    """One fact pattern: its evidences, its primary machines and family,
    and the checks it registers.  Construction refuses duplicate or
    malformed checks and audits each evidence object once, however many
    names it has."""

    __slots__ = (
        "name",
        "title",
        "evidences",
        "verifier",
        "exemplar",
        "target",
        "post_processor",
        "action_family",
        "checks",
    )

    def __init__(
        self,
        name: str,
        title: str,
        evidences: dict[str, Evidence],
        verifier: Machine,
        exemplar: Machine,
        target: Machine,
        post_processor: Machine,
        action_family: ActionFamily,
        checks: Optional[list[ScenarioCheck]] = None,
    ):
        checks = [] if checks is None else checks
        ids = [check.id for check in checks]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"scenario {name!r} registers duplicate checks")
        for check in checks:
            if check.kind not in CHECK_KINDS:
                raise ScenarioError(f"unknown check kind {check.kind!r}")
            if check.kind == "monotonicity":
                if check.edge is None or not all(
                    key in evidences for key in check.edge
                ):
                    raise ScenarioError(
                        f"check {check.id!r} needs an edge over known evidences"
                    )
            elif check.evidence not in evidences:
                raise ScenarioError(
                    f"check {check.id!r} names unknown evidence {check.evidence!r}"
                )
        problems = [
            problem
            for evidence in dict.fromkeys(evidences.values())
            for problem in audit_evidence(evidence)
        ]
        if problems:
            raise ScenarioError(
                f"scenario {name!r} fails its evidence audit: " + "; ".join(problems)
            )
        self.name = name
        self.title = title
        self.evidences = evidences
        self.verifier = verifier
        self.exemplar = exemplar
        self.target = target
        self.post_processor = post_processor
        self.action_family = action_family
        self.checks = checks

    @property
    def edges(self) -> list[tuple[str, str]]:
        """The (weaker, stronger) evidence keys of the monotonicity checks."""
        return [check.edge for check in self.checks if check.kind == "monotonicity"]

    def find_check(self, kind: str, evidence: Optional[str]) -> ScenarioCheck:
        matching = [c for c in self.checks if c.kind == kind]
        if evidence is not None:
            matching = [c for c in matching if c.evidence == evidence]
        if not matching:
            raise ScenarioError(
                f"scenario {self.name!r} registers no check {kind!r}"
                + (f" on evidence {evidence!r}" if evidence else "")
            )
        return matching[0]


def run_check(
    scenario: Scenario,
    check: ScenarioCheck,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> tuple[str, CheckReport]:
    """Execute one registered check and return (verdict string, report).

    Runs kept by earlier checks under the same verifier object, budget
    and seed list are read, not re-run (see ``checkers._Cells``)."""
    verifier = check.verifier or scenario.verifier
    exemplar = check.exemplar or scenario.exemplar
    target = check.target or scenario.target
    post = check.post or scenario.post_processor
    family = check.family or scenario.action_family
    # None for monotonicity, whose edge names two evidences
    evidence = scenario.evidences.get(check.evidence)
    if check.kind == "monotonicity":
        weaker, stronger = (scenario.evidences[key] for key in check.edge)
        report = check_monotonicity(verifier, exemplar, weaker, stronger, seeds, budget)
    elif check.kind == "demonstrability":
        report = check_demonstrability(verifier, exemplar, evidence, seeds, budget)
    elif check.kind == "conformity":
        report = check_evidence_conformity(
            verifier, exemplar, evidence, seeds, budget
        )
    elif check.kind == "probe-unknown-goal":
        report = probe_unknown_goal(
            verifier,
            evidence,
            check.languages,
            target,
            check.candidates,
            exemplar,
            seeds,
            budget,
        )
    elif check.kind == "probe-random":
        report = probe_random_target(
            verifier, evidence, target, check.candidates, exemplar, seeds, budget
        )
    else:  # entailment and counterexample
        report = check_entailment(
            verifier, target, post, evidence, family, seeds, budget
        )
    return report.verdict.value, report
