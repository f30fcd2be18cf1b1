"""The plain way to compute every check kind, as a reference for tests.

Each function here computes the ``CheckReport`` of one check kind the
obvious way: one fresh ``execute``, ``run_post`` or ``run_target`` for
every cell it looks at, in the cell order the checkers document
(worlds, then actions, then seeds), with no cell table, no memo and
nothing carried from one cell or seed to the next.  It takes nothing
from the walks in ``foregone.checkers``, only the report types and the
note that says a verdict holds for every seed.  The differential tests
assert that both give equal reports.
"""

from __future__ import annotations

from typing import Any

from foregone.checkers import (
    SEED_FREE_NOTE,
    CellFaultError,
    CheckReport,
    CheckVerdict,
    Counterexample,
    PreconditionViolatedError,
)
from foregone.kernel import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    KernelError,
    Verdict,
    emulate_with_respondent,
    execute,
    run_post,
    run_target,
    with_zero_tape,
)
from foregone.values import ABSENT, NO_SUCH_METHOD, render_value, same_value

WITNESS_NOTE = "constructive witness over the declared candidates, not a universal proof"


class Runs:
    """Fresh kernel runs for one check.  ``read_tape`` says whether any
    of them read a tape; a run that raised counts as one that did."""

    def __init__(self, verifier, budget, worlds):
        self.verifier = verifier
        self.budget = budget
        self.worlds = worlds
        self.read_tape = False

    def _fault(self, exc, role, machine, world, seed):
        self.read_tape = True
        if isinstance(exc, BudgetExceededError):
            raise exc
        label = next((label for label, w in self.worlds if w is world), "?")
        raise CellFaultError(
            f"world {label!r}, {role} {machine.id!r}, seed {seed}: {exc}"
        ) from exc

    def execute(self, world, action, seed):
        try:
            result = execute(self.verifier, action, world, seed, self.budget)
        except KernelError as exc:
            self._fault(exc, "action", action, world, seed)
        self.read_tape |= result.read_tape
        return result

    def post(self, post, result, world, action, seed) -> Any:
        try:
            ran = run_post(post, result, seed, self.budget)
        except KernelError as exc:
            self._fault(exc, "action", action, world, seed)
        self.read_tape |= ran.read_tape
        return ran.output

    def target(self, target, world, seed) -> Any:
        try:
            ran = run_target(target, world, seed, self.budget)
        except KernelError as exc:
            self._fault(exc, "target", target, world, seed)
        self.read_tape |= ran.read_tape
        return ran.output

    def conforms(self, world, action, seeds) -> bool:
        for seed in seeds:
            if self.execute(world, action, seed).transcript.verdict is not Verdict.ACCEPT:
                return False
        return True

    def report(
        self, verdict, cells, max_steps, counterexample=None, skipped=(), witnesses=(), notes=()
    ):
        if not self.read_tape:
            notes = (*notes, SEED_FREE_NOTE)
        return CheckReport(
            verdict,
            counterexample,
            cells,
            max_steps,
            tuple(skipped),
            tuple(witnesses),
            tuple(notes),
        )


def _silence(result, world, exemplar_id):
    for event in result.transcript.events:
        if event.callee == world.respondent.id and event.caller == exemplar_id:
            if event.output is ABSENT or event.output is NO_SUCH_METHOD:
                return event
    return None


def _demonstrate(runs: Runs, exemplar, evidence, seeds):
    """(holds, cells, max steps, counterexample) of one demonstrability walk."""
    cells = 0
    max_steps = 0
    for label, world in evidence.worlds:
        for seed in seeds:
            cells += 1
            result = runs.execute(world, exemplar, seed)
            max_steps = max(max_steps, result.steps_used)
            silence = _silence(result, world, exemplar.id)
            if silence is not None:
                expected = "output from every respondent call"
                got = f"{silence.method} -> {render_value(silence.output)}"
            elif result.transcript.verdict is not Verdict.ACCEPT:
                expected, got = Verdict.ACCEPT.value, result.transcript.verdict.value
            else:
                continue
            cell = Counterexample(label, exemplar.id, seed, expected, got)
            return False, cells, max_steps, cell
    return True, cells, max_steps, None


def demonstrability(verifier, exemplar, evidence, seeds, budget=DEFAULT_BUDGET):
    runs = Runs(verifier, budget, evidence.worlds)
    holds, cells, max_steps, cell = _demonstrate(runs, exemplar, evidence, seeds)
    verdict = CheckVerdict.HOLDS if holds else CheckVerdict.FAILS
    return runs.report(verdict, cells, max_steps, cell)


def conforms(verifier, action, world, seeds, budget=DEFAULT_BUDGET) -> bool:
    """Accept-with-probability-one of ``action`` in one world, over the
    seed set; budget exhaustion does not accept.  The world comes without
    a label, so a fault names it ``'?'``."""
    return Runs(verifier, budget, ()).conforms(world, action, seeds)


def conformity(verifier, exemplar, evidence, seeds, budget=DEFAULT_BUDGET):
    runs = Runs(verifier, budget, evidence.worlds)
    cells = 0
    for label, world in evidence.worlds:
        cells += len(seeds)
        if not runs.conforms(world, exemplar, seeds):
            note = f"exemplar does not conform in world {label!r}"
            return runs.report(CheckVerdict.FAILS, cells, 0, notes=(note,))
    return runs.report(CheckVerdict.HOLDS, cells, 0)


def entailment(verifier, target, post, evidence, family, seeds, budget=DEFAULT_BUDGET):
    runs = Runs(verifier, budget, evidence.worlds)
    cells = 0
    max_steps = 0
    skipped = []
    for world_label, world in evidence.worlds:
        for action_label, action in family.actions:
            if not runs.conforms(world, action, seeds):
                skipped.append((world_label, action_label))
                continue
            for seed in seeds:
                cells += 1
                result = runs.execute(world, action, seed)
                try:
                    got = runs.post(post, result, world, action, seed)
                    expected = runs.target(target, world, seed)
                except BudgetExceededError:
                    expected, got = "output within budget", "budget-exceeded"
                else:
                    max_steps = max(max_steps, result.steps_used)
                    if same_value(got, expected):
                        continue
                    expected, got = render_value(expected), render_value(got)
                cell = Counterexample(world_label, action_label, seed, expected, got)
                return runs.report(CheckVerdict.FAILS, cells, max_steps, cell, skipped)
    if len(skipped) == len(evidence.worlds) * len(family.actions):
        raise PreconditionViolatedError("no action conforms in any world")
    return runs.report(CheckVerdict.HOLDS, cells, max_steps, skipped=skipped)


def monotonicity(verifier, exemplar, weaker, stronger, seeds, budget=DEFAULT_BUDGET):
    runs = Runs(verifier, budget, weaker.worlds + stronger.worlds)
    weak = _demonstrate(runs, exemplar, weaker, seeds)
    strong = _demonstrate(runs, exemplar, stronger, seeds)
    cells = weak[1] + strong[1]
    max_steps = max(weak[2], strong[2])
    if weak[0] and not strong[0]:
        note = f"demonstrability degraded from {weaker.name!r} to {stronger.name!r}"
        return runs.report(CheckVerdict.FAILS, cells, max_steps, strong[3], notes=(note,))
    if not weak[0]:
        note = (
            f"holds vacuously: demonstrability fails under {weaker.name!r} "
            f"at world {weak[3].world!r}"
        )
        return runs.report(CheckVerdict.HOLDS, cells, max_steps, notes=(note,))
    return runs.report(CheckVerdict.HOLDS, cells, max_steps)


def _in(language, value) -> bool:
    return any(same_value(member, value) for member in language)


def unknown_goal(
    verifier, evidence, languages, target, candidates, exemplar, seeds, budget=DEFAULT_BUDGET
):
    runs = Runs(verifier, budget, evidence.worlds)
    labels = evidence.labels()
    common = [v for v in languages[labels[0]] if all(_in(languages[l], v) for l in labels[1:])]
    if common:
        note = (
            f"languages share {sorted(render_value(v) for v in common)}; "
            "the unknown-goal hypothesis requires an empty intersection"
        )
        return runs.report(CheckVerdict.HYPOTHESIS_VIOLATED, 0, 0, notes=(note,))
    stand_in = emulate_with_respondent(exemplar, evidence.worlds[0][1].respondent)
    for label, world in evidence.worlds:
        if not runs.conforms(world, stand_in, seeds):
            note = (
                f"stand-in action does not conform in world {label!r}; "
                "the probe's construction requires a demonstrable verifier"
            )
            return runs.report(CheckVerdict.FAILS, 0, 0, notes=(note,))

    seed = seeds[0]
    cells = 0
    max_steps = 0
    notes = []
    witnesses = []
    for post_label, post in candidates:
        outputs = []
        for _, world in evidence.worlds:
            cells += 1
            result = runs.execute(world, stand_in, seed)
            max_steps = max(max_steps, result.steps_used)
            outputs.append(runs.post(post, result, world, stand_in, seed))
        first = outputs[0]
        if not all(same_value(first, value) for value in outputs):
            note = (
                f"candidate {post_label!r}: output depends on the "
                "respondent even though the stand-in never consults it"
            )
            return runs.report(CheckVerdict.FAILS, cells, max_steps, notes=(note,))
        defeated = next(
            ((l, w) for l, w in evidence.worlds if not _in(languages[l], first)),
            None,
        )
        if defeated is None:
            note = (
                f"candidate {post_label!r} survives: its output "
                f"{render_value(first)} lies in every world's language"
            )
            return runs.report(CheckVerdict.FAILS, cells, max_steps, notes=(note,))
        label, world = defeated
        expected = runs.target(target, world, seed)
        if not _in(languages[label], expected):
            note = (
                f"world {label!r}: target output {render_value(expected)} escapes "
                "its own declared language; the scenario is inconsistent"
            )
            return runs.report(CheckVerdict.FAILS, cells, max_steps, notes=(note,))
        witnesses.append(
            Counterexample(label, stand_in.id, seed, render_value(expected), render_value(first))
        )
        notes.append(f"candidate {post_label!r} defeated in world {label!r}")
    if runs.read_tape:
        notes.append(
            f"outputs compared at seed {seed} only; the stand-in's conformity "
            f"was checked under all {len(seeds)} seeds"
        )
    notes.append(WITNESS_NOTE)
    return runs.report(CheckVerdict.HOLDS, cells, max_steps, witnesses=witnesses, notes=notes)


def random_target(verifier, evidence, target, candidates, exemplar, seeds, budget=DEFAULT_BUDGET):
    runs = Runs(verifier, budget, evidence.worlds)
    # seeds in order, stopping at the first output that differs from
    # the first seed's: a target run past it is never made
    for label, world in evidence.worlds:
        first = runs.target(target, world, seeds[0])
        if any(not same_value(first, runs.target(target, world, seed)) for seed in seeds[1:]):
            break
    else:
        if len(seeds) < 2 and runs.read_tape:
            raise PreconditionViolatedError(
                "the target reads a tape, and one seed cannot show a target "
                "output support of size >= 2"
            )
        note = "no probed world shows a target output support of size >= 2"
        return runs.report(CheckVerdict.HYPOTHESIS_VIOLATED, 0, 0, notes=(note,))

    pinned_action = with_zero_tape(exemplar)
    if not runs.conforms(world, pinned_action, seeds):
        note = (
            f"zero-coin exemplar does not conform in world {label!r}; "
            "the probe's construction requires a demonstrable verifier"
        )
        return runs.report(CheckVerdict.FAILS, 0, 0, notes=(note,))

    cells = 0
    max_steps = 0
    notes = [f"support world: {label!r}"]
    witnesses = []
    for post_label, post in candidates:
        pinned_post = with_zero_tape(post)
        for seed in seeds:
            cells += 1
            result = runs.execute(world, pinned_action, seed)
            max_steps = max(max_steps, result.steps_used)
            got = runs.post(pinned_post, result, world, pinned_action, seed)
            expected = runs.target(target, world, seed)
            if not same_value(got, expected):
                witnesses.append(
                    Counterexample(
                        label, pinned_action.id, seed, render_value(expected), render_value(got)
                    )
                )
                notes.append(f"candidate {post_label!r} defeated at seed {seed}")
                break
        else:
            notes.append(f"candidate {post_label!r} matched every tape setting")
            return runs.report(CheckVerdict.FAILS, cells, max_steps, notes=notes)
    notes.append(WITNESS_NOTE)
    return runs.report(CheckVerdict.HOLDS, cells, max_steps, witnesses=witnesses, notes=notes)


def registered(scenario, check, seeds, budget=DEFAULT_BUDGET):
    """(verdict string, report) of one registered check, computed the
    plain way."""
    verifier = check.verifier or scenario.verifier
    exemplar = check.exemplar or scenario.exemplar
    target = check.target or scenario.target
    post = check.post or scenario.post_processor
    family = check.family or scenario.action_family
    evidence = scenario.evidences.get(check.evidence)
    if check.kind == "monotonicity":
        weaker, stronger = (scenario.evidences[key] for key in check.edge)
        report = monotonicity(verifier, exemplar, weaker, stronger, seeds, budget)
    elif check.kind == "demonstrability":
        report = demonstrability(verifier, exemplar, evidence, seeds, budget)
    elif check.kind == "conformity":
        report = conformity(verifier, exemplar, evidence, seeds, budget)
    elif check.kind == "probe-unknown-goal":
        report = unknown_goal(
            verifier, evidence, check.languages, target, check.candidates, exemplar,
            seeds, budget,
        )
    elif check.kind == "probe-random":
        report = random_target(
            verifier, evidence, target, check.candidates, exemplar, seeds, budget
        )
    else:
        report = entailment(verifier, target, post, evidence, family, seeds, budget)
    return report.verdict.value, report
