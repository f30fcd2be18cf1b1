"""Bounded decision procedures over (world x action x seed) cells.

Every checkable property quantifies over an enumerated evidence family,
a finite family of candidate actions, and a finite seed set standing in
for "all settings of the randomness tapes".  Cells are independent, and
every check walks them in declared order (worlds, then actions, then
seeds), so a failing report always names the first violating cell and
two runs of the same check agree byte for byte.

Conformity        the verifier accepts the action in a given world,
                  for every seed.
Demonstrability   the exemplar conforms in every consistent world and
                  never hits a silent or missing respondent method.
Entailment        for every conforming action, the post-processor's
                  output equals the target's output, cell by cell,
                  under the identical tape assignment.  Actions that do
                  not conform in a world fall outside that world's
                  quantifier and are skipped with a notice.
Monotonicity      strengthening evidence never breaks demonstrability.

The two impossibility probes mechanize proof constructions rather than
universal statements: each defeats every candidate post-processor in a
declared finite list by exhibiting a replayable witness cell, and the
reports label the result as a constructive witness, not a proof over
all verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from .evidence import Evidence, at_least_as_strong
from .kernel import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    ExecutionResult,
    Machine,
    Verdict,
    World,
    emulate_with_respondent,
    execute,
    run_post,
    run_target,
    with_zero_tape,
)
from .values import ABSENT, NO_SUCH_METHOD, render_value, same_value

DEFAULT_SEEDS: tuple[int, ...] = tuple(range(16))


class CheckerError(Exception):
    pass


class PreconditionViolatedError(CheckerError):
    """The check was asked about inputs outside its contract."""


class HypothesisViolatedError(CheckerError):
    """An impossibility probe's hypothesis gate failed, so the theorem
    it mechanizes says nothing about this scenario."""


class CheckVerdict(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"


@dataclass(frozen=True)
class Counterexample:
    """One replayable violating cell, with rendered expected/got values."""

    world: str
    action: str
    seed: int
    expected: str
    got: str


@dataclass
class CheckReport:
    verdict: CheckVerdict
    counterexample: Optional[Counterexample] = None
    cells_checked: int = 0
    max_steps: int = 0
    skipped: tuple[tuple[str, str], ...] = ()
    witnesses: tuple[Counterexample, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict is CheckVerdict.HOLDS


@dataclass
class ActionFamily:
    """The finite family of candidate actions a check ranges over.

    The family for a failure claim must contain the adversarial actions
    the claim's argument turns on; nothing detects a too-small family.
    """

    actions: tuple[tuple[str, Machine], ...]
    exemplar_label: Optional[str] = None

    def __post_init__(self):
        labels = [label for label, _ in self.actions]
        if len(set(labels)) != len(labels):
            raise CheckerError("action family has duplicate labels")
        if self.exemplar_label is not None and self.exemplar_label not in labels:
            raise CheckerError(
                f"exemplar label {self.exemplar_label!r} is not in the family"
            )

    @property
    def includes_exemplar(self) -> bool:
        return self.exemplar_label is not None

    def exemplar(self) -> Machine:
        if self.exemplar_label is None:
            raise PreconditionViolatedError("family declares no exemplar")
        for label, machine in self.actions:
            if label == self.exemplar_label:
                return machine
        raise AssertionError("unreachable: exemplar label validated at build")


# ---------------------------------------------------------------------------
# Conformity and demonstrability
# ---------------------------------------------------------------------------


def check_conformity(
    verifier: Machine,
    action: Machine,
    world: World,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Accept-with-probability-one, approximated over the seed set.

    Budget exhaustion is non-accepting, hence non-conforming.
    """
    return _conforming_runs(verifier, action, world, seeds, budget) is not None


def _conforming_runs(
    verifier: Machine, action: Machine, world: World, seeds: tuple[int, ...], budget: int
) -> Optional[list[ExecutionResult]]:
    """The execution under every seed, in order, or None at the first one
    not accepted; checks that go on to compare outputs reuse these runs."""
    runs = []
    for seed in seeds:
        result = execute(verifier, action, world, seed, budget)
        if result.transcript.verdict is not Verdict.ACCEPT:
            return None
        runs.append(result)
    return runs


def _respondent_silence(result: ExecutionResult, world: World, exemplar_id: str):
    """First respondent call by the exemplar that produced no output."""
    for event in result.transcript.events:
        if event.callee != world.respondent.id or event.caller != exemplar_id:
            continue
        if event.output is ABSENT or event.output is NO_SUCH_METHOD:
            return event
    return None


def check_demonstrability(
    verifier: Machine,
    exemplar: Machine,
    evidence: Evidence,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Holds iff, in every world of the family and under every seed, the
    exemplar's respondent calls all produce output and the verifier
    accepts."""
    return _demonstrability(verifier, exemplar, evidence, seeds, budget, {})


def _demonstrability(
    verifier: Machine,
    exemplar: Machine,
    evidence: Evidence,
    seeds: tuple[int, ...],
    budget: int,
    runs: dict[tuple[int, int], ExecutionResult],
) -> CheckReport:
    """``check_demonstrability`` that reads and fills ``runs``, the
    exemplar's executions keyed by ``(id(world), seed)``, so a second
    walk over the same world objects executes none of them again."""
    cells = 0
    max_steps = 0
    for label, world in evidence.worlds:
        for seed in seeds:
            cells += 1
            result = runs.get((id(world), seed))
            if result is None:
                result = execute(verifier, exemplar, world, seed, budget)
                runs[(id(world), seed)] = result
            max_steps = max(max_steps, result.steps_used)
            silence = _respondent_silence(result, world, exemplar.id)
            if silence is not None:
                return CheckReport(
                    verdict=CheckVerdict.FAILS,
                    counterexample=Counterexample(
                        world=label,
                        action=exemplar.id,
                        seed=seed,
                        expected="output from every respondent call",
                        got=f"{silence.method} -> {render_value(silence.output)}",
                    ),
                    cells_checked=cells,
                    max_steps=max_steps,
                )
            if result.transcript.verdict is not Verdict.ACCEPT:
                return CheckReport(
                    verdict=CheckVerdict.FAILS,
                    counterexample=Counterexample(
                        world=label,
                        action=exemplar.id,
                        seed=seed,
                        expected=Verdict.ACCEPT.value,
                        got=result.transcript.verdict.value,
                    ),
                    cells_checked=cells,
                    max_steps=max_steps,
                )
    return CheckReport(
        verdict=CheckVerdict.HOLDS, cells_checked=cells, max_steps=max_steps
    )


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------


def entailment_cell_outputs(
    verifier: Machine,
    target: Machine,
    post: Machine,
    world: World,
    action: Machine,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Any, Any, int]:
    """(target output, post output, steps) for one cell, both branches
    under the identical tape assignment derived from ``seed``."""
    result = execute(verifier, action, world, seed, budget)
    got = run_post(post, result, budget)
    expected = run_target(target, world, seed, budget)
    return expected, got, result.steps_used


def check_entailment(
    verifier: Machine,
    target: Machine,
    post: Machine,
    evidence: Evidence,
    family: ActionFamily,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Exact-equality entailment over every (world, conforming action,
    seed) cell.

    Conformity is judged per world: an action that fails to conform in
    some world is outside that world's quantifier and is skipped there
    with a notice, while still being checked wherever it does conform.
    A post-processor that exhausts its budget fails the cell (an
    unbounded post-processor could skip the respondent entirely and
    brute-force the goal).

    Each (world, action, seed) executes once: the conformity decision
    and the comparison read the same execution.  The target's branch
    depends only on (world, seed), so it runs once per world and seed.
    """
    cells = 0
    max_steps = 0
    skipped: list[tuple[str, str]] = []
    for world_label, world in evidence.worlds:
        targets: dict[int, Any] = {}
        for action_label, action in family.actions:
            runs = _conforming_runs(verifier, action, world, seeds, budget)
            if runs is None:
                skipped.append((world_label, action_label))
                continue
            for seed, result in zip(seeds, runs):
                cells += 1
                try:
                    got = run_post(post, result, budget)
                    if seed not in targets:
                        targets[seed] = run_target(target, world, seed, budget)
                except BudgetExceededError:
                    return CheckReport(
                        verdict=CheckVerdict.FAILS,
                        counterexample=Counterexample(
                            world=world_label,
                            action=action_label,
                            seed=seed,
                            expected="output within budget",
                            got="budget-exceeded",
                        ),
                        cells_checked=cells,
                        max_steps=max_steps,
                        skipped=tuple(skipped),
                    )
                expected = targets[seed]
                max_steps = max(max_steps, result.steps_used)
                if not same_value(got, expected):
                    return CheckReport(
                        verdict=CheckVerdict.FAILS,
                        counterexample=Counterexample(
                            world=world_label,
                            action=action_label,
                            seed=seed,
                            expected=render_value(expected),
                            got=render_value(got),
                        ),
                        cells_checked=cells,
                        max_steps=max_steps,
                        skipped=tuple(skipped),
                    )
    return CheckReport(
        verdict=CheckVerdict.HOLDS,
        cells_checked=cells,
        max_steps=max_steps,
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------


def check_monotonicity(
    verifier: Machine,
    exemplar: Machine,
    weaker: Evidence,
    stronger: Evidence,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Demonstrability under the weaker evidence must imply it under the
    stronger evidence (whose family is a subset).

    The stronger family's worlds are mostly the weaker family's own
    objects, so the second walk reuses the first walk's executions.
    """
    if not at_least_as_strong(stronger, weaker):
        raise PreconditionViolatedError(
            f"{stronger.name!r} is not at least as strong as {weaker.name!r}"
        )
    runs: dict[tuple[int, int], ExecutionResult] = {}
    weak_report = _demonstrability(verifier, exemplar, weaker, seeds, budget, runs)
    strong_report = _demonstrability(verifier, exemplar, stronger, seeds, budget, runs)
    cells = weak_report.cells_checked + strong_report.cells_checked
    max_steps = max(weak_report.max_steps, strong_report.max_steps)
    if weak_report.holds and not strong_report.holds:
        return CheckReport(
            verdict=CheckVerdict.FAILS,
            counterexample=strong_report.counterexample,
            cells_checked=cells,
            max_steps=max_steps,
            notes=(
                f"demonstrability degraded from {weaker.name!r} "
                f"to {stronger.name!r}",
            ),
        )
    return CheckReport(
        verdict=CheckVerdict.HOLDS, cells_checked=cells, max_steps=max_steps
    )


# ---------------------------------------------------------------------------
# Impossibility probes
# ---------------------------------------------------------------------------


def _language_holds(language: frozenset, value: Any) -> bool:
    return any(same_value(member, value) for member in language)


def probe_unknown_goal(
    verifier: Machine,
    evidence: Evidence,
    target: Machine,
    candidate_posts: tuple[tuple[str, Machine], ...],
    family: ActionFamily,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
    languages: Optional[dict[str, frozenset]] = None,
) -> CheckReport:
    """Mechanizes the unknown-goal impossibility argument.

    The evidence carries, per world, the finite language in which that
    world's target output must land.  When the languages share no
    common element the government cannot check membership, and the
    stand-in action -- the exemplar run against a hardcoded consistent
    respondent, touching the real respondent not at all -- makes every
    candidate post-processor output something that lands outside some
    consistent world's language.  Holds when every candidate is
    defeated by such a replayable witness.
    """
    languages = languages if languages is not None else evidence.languages
    if languages is None:
        raise PreconditionViolatedError(
            f"evidence {evidence.name!r} declares no per-world languages"
        )
    missing = [l for l in evidence.labels() if l not in languages]
    if missing:
        raise PreconditionViolatedError(f"worlds without languages: {missing}")

    first_label, *other_labels = evidence.labels()
    common = [
        value
        for value in languages[first_label]
        if all(_language_holds(languages[label], value) for label in other_labels)
    ]
    if common:
        raise HypothesisViolatedError(
            f"languages share {sorted(render_value(v) for v in common)}; "
            "the unknown-goal hypothesis requires an empty intersection"
        )

    exemplar = family.exemplar()
    stand_in_respondent = evidence.worlds[0][1].respondent
    stand_in = emulate_with_respondent(exemplar, stand_in_respondent)

    cells = 0
    max_steps = 0
    notes: list[str] = []
    witnesses: list[Counterexample] = []

    first_runs: dict[str, ExecutionResult] = {}
    for label, world in evidence.worlds:
        runs = _conforming_runs(verifier, stand_in, world, seeds, budget)
        if runs is None:
            return CheckReport(
                verdict=CheckVerdict.FAILS,
                cells_checked=cells,
                notes=(
                    f"stand-in action does not conform in world {label!r}; "
                    "the probe's construction requires a demonstrable verifier",
                ),
            )
        first_runs[label] = runs[0]

    targets: dict[str, Any] = {}
    for post_label, post in candidate_posts:
        outputs: dict[str, Any] = {}
        for label, result in first_runs.items():
            cells += 1
            max_steps = max(max_steps, result.steps_used)
            outputs[label] = run_post(post, result, budget)
        first = outputs[first_label]
        if not all(same_value(first, v) for v in outputs.values()):
            return CheckReport(
                verdict=CheckVerdict.FAILS,
                cells_checked=cells,
                max_steps=max_steps,
                notes=(
                    f"candidate {post_label!r}: output depends on the "
                    "respondent even though the stand-in never consults it",
                ),
            )
        defeated = None
        for label, world in evidence.worlds:
            if not _language_holds(languages[label], first):
                if label not in targets:
                    targets[label] = run_target(target, world, seeds[0], budget)
                target_output = targets[label]
                if not _language_holds(languages[label], target_output):
                    return CheckReport(
                        verdict=CheckVerdict.FAILS,
                        cells_checked=cells,
                        max_steps=max_steps,
                        notes=(
                            f"world {label!r}: target output "
                            f"{render_value(target_output)} escapes its own "
                            "declared language; the scenario is inconsistent",
                        ),
                    )
                defeated = Counterexample(
                    world=label,
                    action=stand_in.id,
                    seed=seeds[0],
                    expected=render_value(target_output),
                    got=render_value(first),
                )
                break
        if defeated is None:
            return CheckReport(
                verdict=CheckVerdict.FAILS,
                cells_checked=cells,
                max_steps=max_steps,
                notes=(
                    f"candidate {post_label!r} survives: its output "
                    f"{render_value(first)} lies in every world's language",
                ),
            )
        witnesses.append(defeated)
        notes.append(
            f"candidate {post_label!r} defeated in world {defeated.world!r}"
        )

    return CheckReport(
        verdict=CheckVerdict.HOLDS,
        cells_checked=cells,
        max_steps=max_steps,
        witnesses=tuple(witnesses),
        notes=tuple(notes)
        + ("constructive witness over the declared candidates, not a universal proof",),
    )


def probe_random_target(
    verifier: Machine,
    evidence: Evidence,
    target: Machine,
    candidate_posts: tuple[tuple[str, Machine], ...],
    family: ActionFamily,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Mechanizes the randomized-target impossibility argument.

    Gate: some world must show at least two distinct target outputs
    across the probed tape settings (the target uses its own coins in a
    non-trivial way).  Construction: pin the exemplar's and each
    candidate post-processor's coins to all zeros; the left-hand side
    then cannot track the target's coin-driven variation, so some tape
    setting disagrees.  Holds when every candidate is defeated.
    """
    for label, world in evidence.worlds:
        targets = [run_target(target, world, s, budget) for s in seeds]
        distinct: list[Any] = []
        for value in targets:
            if not any(same_value(value, seen) for seen in distinct):
                distinct.append(value)
        if len(distinct) >= 2:
            break
    else:
        raise HypothesisViolatedError(
            "no probed world shows a target output support of size >= 2"
        )

    pinned_action = with_zero_tape(family.exemplar())
    runs = _conforming_runs(verifier, pinned_action, world, seeds, budget)
    if runs is None:
        return CheckReport(
            verdict=CheckVerdict.FAILS,
            notes=(
                f"zero-coin exemplar does not conform in world {label!r}; "
                "the probe's construction requires a demonstrable verifier",
            ),
        )

    cells = 0
    max_steps = 0
    notes: list[str] = [f"support world: {label!r}"]
    witnesses: list[Counterexample] = []
    for post_label, post in candidate_posts:
        pinned_post = with_zero_tape(post)
        defeated = None
        for seed, result, expected in zip(seeds, runs, targets):
            cells += 1
            max_steps = max(max_steps, result.steps_used)
            got = run_post(pinned_post, result, budget)
            if not same_value(got, expected):
                defeated = Counterexample(
                    world=label,
                    action=pinned_action.id,
                    seed=seed,
                    expected=render_value(expected),
                    got=render_value(got),
                )
                break
        if defeated is None:
            return CheckReport(
                verdict=CheckVerdict.FAILS,
                cells_checked=cells,
                max_steps=max_steps,
                notes=tuple(notes)
                + (f"candidate {post_label!r} matched every tape setting",),
            )
        witnesses.append(defeated)
        notes.append(
            f"candidate {post_label!r} defeated at seed {defeated.seed}"
        )

    return CheckReport(
        verdict=CheckVerdict.HOLDS,
        cells_checked=cells,
        max_steps=max_steps,
        witnesses=tuple(witnesses),
        notes=tuple(notes)
        + ("constructive witness over the declared candidates, not a universal proof",),
    )
