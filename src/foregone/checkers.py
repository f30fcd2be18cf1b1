"""Bounded decision procedures over (world x action x seed) cells.

Every checkable property quantifies over an enumerated evidence family,
a finite family of candidate actions, and a finite seed set standing in
for "all settings of the randomness tapes".  Cells are independent, and
every check walks them in declared order (worlds, then actions, then
seeds), so a failing report always names the first violating cell and
two runs of the same check agree byte for byte.

Each check reads its cells from a cell table (``_Cells``), the one
place that calls the kernel.  It makes each execution, target run and
post-processor run once per seed, and once for every seed when the run
read no randomness tape, and keeps each as the ``ExecutionResult`` the
kernel returned.  A kernel fault other than budget exhaustion leaves it
as a ``CellFaultError`` naming the world, machine and seed.  The table
builds every check's report (``_Cells.report``): when no kernel run of
the check read a tape, the report notes that the verdict holds for
every seed, not only the listed ones.

Consecutive checks under the same verifier object, budget and seed
list share their kept runs: an entailment and its counterexample twin,
the weak, strong and star checks of one scenario, or a probe run
again, read the cells an earlier check already ran.  One set of kept
runs lives at a time, and a table with another verifier, budget or
seed list replaces it.

The table holds the seeds, and ``_Cells.walk`` is the one loop over
them, with one rule: a seed at which no run read a tape stands for
every seed.  The walk learns this from the runs the table made or
served, not from its caller, so it stops a tape-free cell after the
first seed, and the check counts it once per seed: a tape-free cell
that fails names the first seed as its counterexample, and one that
passes passes at every seed.  Only cells that read a tape are walked
seed by seed.  The walks over the table:

Conformity        the verifier accepts the action in a given world,
                  for every seed; the table stops at the first seed
                  that is not accepted, or after the first seed when
                  the execution read no tape.
Demonstrability   the exemplar conforms in every consistent world and
                  never hits a silent or missing respondent method.
Entailment        for every conforming action, the post-processor's
                  output equals the target's output, cell by cell,
                  under the identical tape assignment.  Actions that do
                  not conform in a world fall outside that world's
                  quantifier and are skipped with a notice.
Monotonicity      strengthening evidence never breaks demonstrability.
                  Both demonstrability walks read one table, so a world
                  object the two families share executes once.

The two impossibility probes mechanize proof constructions rather than
universal statements: each defeats every candidate post-processor in a
declared finite list by exhibiting a replayable witness cell, and the
reports label the result as a constructive witness, not a proof over
all verifiers.

``entailment_cell_outputs`` computes one entailment cell straight from
the kernel, as a reference independent of the table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterator, NoReturn, Optional

from .evidence import Evidence, at_least_as_strong
from .kernel import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    ExecutionResult,
    KernelError,
    Machine,
    Verdict,
    World,
    emulate_with_respondent,
    execute,
    run_post,
    run_target,
    with_zero_tape,
)
from .values import (
    ABSENT,
    NO_SUCH_METHOD,
    Frozen,
    is_value,
    render_value,
    same_value,
    value_key,
)

DEFAULT_SEEDS: tuple[int, ...] = tuple(range(16))
SEED_FREE_NOTE = (
    "no kernel run read a randomness tape, so the verdict holds for every "
    "seed in 0..2**64-1, not only the listed ones"
)


class CheckerError(Exception):
    pass


class PreconditionViolatedError(CheckerError):
    """The check was asked about inputs outside its contract."""


class CellFaultError(KernelError):
    """A kernel call for one cell raised a ``KernelError`` other than
    budget exhaustion.  The message names the world, the action (or the
    target) and the seed; the original error is the ``__cause__``."""


class CheckVerdict(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    # an impossibility probe's hypothesis gate failed, so the theorem it
    # mechanizes says nothing about this scenario
    HYPOTHESIS_VIOLATED = "HypothesisViolated"


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


class Counterexample(Frozen):
    """One replayable violating cell, with rendered expected/got values.
    Counterexamples compare and hash by their fields."""

    __slots__ = ("world", "action", "seed", "expected", "got")

    def __init__(self, world: str, action: str, seed: int, expected: str, got: str):
        object.__setattr__(self, "world", world)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "got", got)

    def __eq__(self, other):
        if type(other) is not Counterexample:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))


class CheckReport:
    """A check's verdict and what the walk saw on the way.  Reports
    compare by their fields (and so are not hashable)."""

    __slots__ = (
        "verdict",
        "counterexample",
        "cells_checked",
        "max_steps",
        "skipped",
        "witnesses",
        "notes",
    )

    def __init__(
        self,
        verdict: CheckVerdict,
        counterexample: Optional[Counterexample] = None,
        cells_checked: int = 0,
        max_steps: int = 0,
        skipped: tuple[tuple[str, str], ...] = (),
        witnesses: tuple[Counterexample, ...] = (),
        notes: tuple[str, ...] = (),
    ):
        self.verdict = verdict
        self.counterexample = counterexample
        self.cells_checked = cells_checked
        self.max_steps = max_steps
        self.skipped = skipped
        self.witnesses = witnesses
        self.notes = notes

    def __eq__(self, other):
        if type(other) is not CheckReport:
            return NotImplemented
        return _fields(self) == _fields(other)

    __hash__ = None

    @property
    def holds(self) -> bool:
        return self.verdict is CheckVerdict.HOLDS


class ActionFamily(Frozen):
    """The finite family of candidate actions a check ranges over.

    The family for a failure claim must contain the adversarial actions
    the claim's argument turns on; nothing detects a too-small family.
    """

    __slots__ = ("actions",)

    def __init__(self, actions: tuple[tuple[str, Machine], ...]):
        labels = [label for label, _ in actions]
        if len(set(labels)) != len(labels):
            raise CheckerError("action family has duplicate labels")
        object.__setattr__(self, "actions", tuple(actions))


class Languages(Frozen, Mapping):
    """The unknown-goal probe's languages: each world label's finite
    language, a tuple of members distinct under ``value_key``, in the
    order first given.  So ``True`` and ``1`` are two members, where a
    set would merge them.  It is read-only: a mapping over a
    read-only view of a copy of the one given, so setting or deleting
    an item raises ``TypeError`` and neither its holders nor its
    builder can change it.

    Each member that is a value is keyed by ``value_key`` once, here,
    and the gate reads those keys.  A member that is not a value, which
    may not even hash, is kept under its rendering, a ``str`` that no
    ``value_key`` equals, and the gate refuses it.  The gate depends on
    nothing but the languages and the world labels it asks about, so
    ``keyed`` works it out once per label tuple and keeps the outcome
    here, with the value it was worked out from.
    """

    __slots__ = ("_by_world", "_gates")

    def __init__(self, by_world: Mapping[str, Iterable]):
        object.__setattr__(
            self,
            "_by_world",
            MappingProxyType(
                {
                    label: {
                        value_key(v) if is_value(v) else render_value(v): v
                        for v in language
                    }
                    for label, language in by_world.items()
                }
            ),
        )
        object.__setattr__(self, "_gates", {})

    def __getitem__(self, label: str) -> tuple:
        return tuple(self._by_world[label].values())

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_world)

    def __len__(self) -> int:
        return len(self._by_world)

    def keyed(self, labels: tuple[str, ...]) -> dict[str, dict[tuple, Any]] | str:
        """Each of ``labels``' language as ``{value_key(member): member}``
        once the gate has passed, or the gate's note when the languages
        share a member: the first label's shared members, rendered and
        sorted.  The outcome is worked out on the first call for
        ``labels`` and read on every later one.  The gate raises
        ``PreconditionViolatedError``, which is not kept, naming the
        labels without a language, or the members of a language that
        are not values."""
        outcome = self._gates.get(labels)
        if outcome is None:
            outcome = self._gates[labels] = self._gate(labels)
        return outcome

    def _gate(self, labels: tuple[str, ...]) -> dict[str, dict[tuple, Any]] | str:
        missing = [label for label in labels if label not in self._by_world]
        if missing:
            raise PreconditionViolatedError(f"worlds without languages: {missing}")
        for label in labels:
            strays = sorted(key for key in self._by_world[label] if type(key) is str)
            if strays:
                raise PreconditionViolatedError(
                    f"world {label!r}: language members {strays} are not values"
                )
        keyed = {label: self._by_world[label] for label in labels}
        first_label, *other_labels = labels
        shared = set(keyed[first_label]).intersection(*(keyed[l] for l in other_labels))
        if shared:
            common = sorted(render_value(keyed[first_label][key]) for key in shared)
            return (
                f"languages share {common}; "
                "the unknown-goal hypothesis requires an empty intersection"
            )
        return keyed


# ---------------------------------------------------------------------------
# The cell table and the reports built from it
# ---------------------------------------------------------------------------


# The runs the last cell table kept, under the verifier, budget, seed
# list and kernel entry points they were kept under: at most one entry,
# (verifier, budget, seeds, execute, run_target, run_post) -> kept runs.
_kept: dict = {}


def drop_kept_cells() -> None:
    """Forget every kept run, so the next cell table starts empty."""
    _kept.clear()


def _kept_under(verifier: Machine, budget: int, seeds: tuple[int, ...]) -> dict:
    """The runs kept under ``verifier``, ``budget`` and ``seeds``; runs
    kept under any other verifier, budget or seed list are dropped, and
    so are runs made through other kernel entry points: a caller that
    rebinds ``execute``, ``run_target`` or ``run_post`` here, to trace or
    count the runs, sees every run its functions make.  The verifier and
    the entry points are keyed as objects, the budget and the seeds by
    equality."""
    key = (verifier, budget, seeds, execute, run_target, run_post)
    if key not in _kept:
        _kept.clear()
        _kept[key] = {}
    return _kept[key]


class _Cells:
    """One check's cells under one verifier and budget.

    ``kept`` holds every kernel run the table made, each the
    ``ExecutionResult`` the kernel returned, by one rule: a run that
    read no tape under its key alone, where it serves every seed, and
    one that read a tape under its key plus the seed.  An execution
    is keyed ``(world, action)``, a target run ``(target, world)`` and a
    post-processor run ``(post, result)``, where ``result`` is the
    execution it continues.  A walk that meets a cell again, in a second
    pass or through a second family holding the same world object, reads
    it instead of running it.  Builds and results define no ``__eq__``,
    so a key holds its objects and compares them by identity.
    ``worlds`` are the ``(label, world)`` pairs the walks range over,
    which name the world of a fault, and ``seeds`` the seeds that stand
    in for every tape; ``walk`` is the only loop over them.

    Why sharing is sound: the seed reaches a run only through the
    ``RandomnessAssignment`` the kernel builds from it, and a method
    reaches that only through ``ctx.tape``.  Two runs of the same
    machines on the same world under seeds s and s' are therefore
    identical up to their first tape read, so a run that read no tape
    under s is, step for step, the run under s': the same transcript,
    verdict, steps, output and machine states.  Whether a run reads a tape
    does not depend on the seed either.  An execution that read no tape
    left no tape offsets, so a post-processor continues it under any
    seed's tapes.  ``tape_runs`` counts the runs the table made or
    served that read a tape; a run that raised reports nothing and counts
    as one that did.  The count only grows, so a walk abandoned at a
    failing seed loses no earlier read.

    ``kept`` outlives the table.  A new table under the same verifier
    object, an equal budget and an equal seed list reads and extends it,
    and any other table replaces it, so one set of kept runs lives at a
    time and a new seed list starts empty.  It is also dropped when
    ``execute``, ``run_target`` or ``run_post`` is rebound here.  A check
    sharing it may be served a run another check made, or that it made
    itself when it ran before; the run then counts as this check's own,
    and a kept run that read a tape adds to ``tape_runs``, which stays
    per table.  A build cannot change, so an identity key is a content
    key.

    The one rule of the walk: a seed at which no run read a tape stands
    for every seed.  Every later seed would make the same runs and read
    the same seed-free entries, so ``walk`` stops such a cell after its
    first seed, which names its counterexample if it has one, and the
    walks count it once for every seed.

    ``report`` is the one place a walk builds its ``CheckReport``, and
    so the one place the seed-free note is added.  A table without
    seeds raises ``PreconditionViolatedError``: a verdict over no seed
    would rest on nothing.
    """

    def __init__(self, verifier: Machine, budget: int, worlds, seeds: tuple[int, ...]):
        if not seeds:
            raise PreconditionViolatedError("no seeds to check")
        self.verifier = verifier
        self.budget = budget
        self.worlds = worlds
        self.seeds = seeds
        self.kept = _kept_under(verifier, budget, seeds)
        self.tape_runs = 0

    def run(self, world: World, action: Machine, seed: int) -> ExecutionResult:
        """The execution of one cell, run the first time it is asked for."""
        return self._kept_run(
            (world, action), seed, "action", action, world, execute, self.verifier, action, world
        )

    def _kept_run(self, key: tuple, seed: int, role: str, machine, world, kernel_run, *args):
        """The run kept under ``key``, or under ``key`` plus ``seed``;
        else ``kernel_run(*args, seed, budget)``, kept under ``key`` when
        it read no tape and under ``key`` plus ``seed`` when it did.  A
        kernel fault names ``role``, ``machine``, ``world`` and ``seed``."""
        ran = self.kept.get(key) or self.kept.get((*key, seed))
        if ran is None:
            try:
                ran = kernel_run(*args, seed, self.budget)
            except KernelError as exc:
                self._raise_fault(exc, role, machine, world, seed)
            self.kept[(*key, seed) if ran.read_tape else key] = ran
        self.tape_runs += ran.read_tape
        return ran

    def walk(self) -> Iterator[tuple[int, int]]:
        """``(index, seed)`` for the table's seeds in order.  A seed at
        which no run read a tape stands for every seed, so once the
        caller has run a seed and ``tape_runs`` did not grow while it
        did, the walk stops: every later seed would make the same runs.
        The caller names no machine; whatever it runs through the table
        is counted.  Whether a cell is tape-free is known only after its
        first seed has run, so the walk yields a seed's index, not a
        weight, and a caller whose walk ends without a failing seed
        counts one cell for every seed of the table."""
        for index, seed in enumerate(self.seeds):
            tape_runs = self.tape_runs
            yield index, seed
            if self.tape_runs == tape_runs:
                return

    def conforms(self, world: World, action: Machine) -> bool:
        """Accepted under every seed; stops at the first seed that is not,
        and after the first seed when the execution read no tape."""
        return all(
            self.run(world, action, seed).transcript.verdict is Verdict.ACCEPT
            for _, seed in self.walk()
        )

    def post(self, post: Machine, world: World, action: Machine, seed: int) -> Any:
        """``post``'s output after the execution of one cell, reading on
        from the tapes that execution left for ``seed``."""
        result = self.run(world, action, seed)
        return self._kept_run(
            (post, result), seed, "action", action, world, run_post, post, result
        ).output

    def target(self, target: Machine, world: World, seed: int) -> Any:
        """The target's output in ``world`` under ``seed``, run once."""
        return self._kept_run(
            (target, world), seed, "target", target, world, run_target, target, world
        ).output

    def report(
        self, verdict, cells, max_steps, counterexample=None, skipped=(), witnesses=(), notes=()
    ) -> CheckReport:
        """The check's report, which no walk builds but through here: the
        notes end with ``SEED_FREE_NOTE`` when no kernel run of this
        table read a tape."""
        if not self.tape_runs:
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

    def unconstructible(self, action: str, label: str) -> CheckReport:
        """A probe's report when its construction's ``action`` does not
        conform in world ``label``: no cell was compared."""
        note = (
            f"{action} does not conform in world {label!r}; "
            "the probe's construction requires a demonstrable verifier"
        )
        return self.report(CheckVerdict.FAILS, 0, 0, notes=(note,))

    def _raise_fault(self, exc: KernelError, role, machine, world, seed) -> NoReturn:
        """Re-raise ``exc`` from a kernel call for this cell: as it is for
        budget exhaustion, else as a ``CellFaultError`` naming the cell."""
        self.tape_runs += 1
        if isinstance(exc, BudgetExceededError):
            raise exc
        label = next((label for label, w in self.worlds if w is world), "?")
        raise CellFaultError(
            f"world {label!r}, {role} {machine.id!r}, seed {seed}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Conformity and demonstrability
# ---------------------------------------------------------------------------


def check_evidence_conformity(
    verifier: Machine,
    exemplar: Machine,
    evidence: Evidence,
    seeds: tuple[int, ...],
    budget: int,
) -> CheckReport:
    """Conformity of the exemplar in every world of the family, failing
    at the first world where it does not conform.  Every seed of each
    world walked counts as a cell; no step maximum is kept."""
    table = _Cells(verifier, budget, evidence.worlds, seeds)
    cells = 0
    for label, world in evidence.worlds:
        cells += len(seeds)
        if not table.conforms(world, exemplar):
            note = f"exemplar does not conform in world {label!r}"
            return table.report(CheckVerdict.FAILS, cells, 0, notes=(note,))
    return table.report(CheckVerdict.HOLDS, cells, 0)


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
    table = _Cells(verifier, budget, evidence.worlds, seeds)
    cells, max_steps, counterexample = _demonstrate(table, exemplar, evidence)
    verdict = CheckVerdict.HOLDS if counterexample is None else CheckVerdict.FAILS
    return table.report(verdict, cells, max_steps, counterexample)


def _demonstrate(table: _Cells, exemplar: Machine, evidence: Evidence):
    """(cells, max steps, first violating cell or None) of one
    demonstrability walk over ``evidence``."""
    cells = 0
    max_steps = 0
    for label, world in evidence.worlds:
        for index, seed in table.walk():
            result = table.run(world, exemplar, seed)
            max_steps = max(max_steps, result.steps_used)
            silence = _respondent_silence(result, world, exemplar.id)
            if silence is not None:
                failure = (
                    "output from every respondent call",
                    f"{silence.method} -> {render_value(silence.output)}",
                )
            elif result.transcript.verdict is not Verdict.ACCEPT:
                failure = (Verdict.ACCEPT.value, result.transcript.verdict.value)
            else:
                continue
            return cells + index + 1, max_steps, Counterexample(label, exemplar.id, seed, *failure)
        cells += len(table.seeds)
    return cells, max_steps, None


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
    got = run_post(post, result, seed, budget).output
    expected = run_target(target, world, seed, budget).output
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

    The conformity decision and the comparison read the same execution,
    and the target runs once per world and seed, or once per world when
    it reads no tape.

    When no action conforms in any world there is no cell to compare,
    and the check raises ``PreconditionViolatedError`` rather than hold
    over nothing.
    """
    table = _Cells(verifier, budget, evidence.worlds, seeds)
    cells = 0
    max_steps = 0
    skipped: list[tuple[str, str]] = []
    for world_label, world in evidence.worlds:
        for action_label, action in family.actions:
            if not table.conforms(world, action):
                skipped.append((world_label, action_label))
                continue
            for index, seed in table.walk():
                try:
                    got = table.post(post, world, action, seed)
                    expected = table.target(target, world, seed)
                except BudgetExceededError:
                    failure = ("output within budget", "budget-exceeded")
                else:
                    max_steps = max(max_steps, table.run(world, action, seed).steps_used)
                    if same_value(got, expected):
                        continue
                    failure = (render_value(expected), render_value(got))
                return table.report(
                    CheckVerdict.FAILS,
                    cells + index + 1,
                    max_steps,
                    Counterexample(world_label, action_label, seed, *failure),
                    skipped,
                )
            cells += len(seeds)
    if len(skipped) == len(evidence.worlds) * len(family.actions):
        raise PreconditionViolatedError("no action conforms in any world")
    return table.report(CheckVerdict.HOLDS, cells, max_steps, skipped=skipped)


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
    stronger evidence (whose family is a subset).  When demonstrability
    fails under the weaker evidence the implication holds vacuously, and
    a note names the weaker evidence's first failing world.

    The stronger family's worlds are mostly the weaker family's own
    objects, so the second walk reads the first walk's executions.
    """
    table = _Cells(verifier, budget, weaker.worlds + stronger.worlds, seeds)
    if not at_least_as_strong(stronger, weaker):
        raise PreconditionViolatedError(
            f"{stronger.name!r} is not at least as strong as {weaker.name!r}"
        )
    weak_cells, weak_steps, weak_failure = _demonstrate(table, exemplar, weaker)
    cells, max_steps, counterexample = _demonstrate(table, exemplar, stronger)
    notes = ()
    if weak_failure is not None:
        counterexample = None
        notes = (
            f"holds vacuously: demonstrability fails under {weaker.name!r} "
            f"at world {weak_failure.world!r}",
        )
    elif counterexample is not None:
        notes = (f"demonstrability degraded from {weaker.name!r} to {stronger.name!r}",)
    return table.report(
        CheckVerdict.HOLDS if counterexample is None else CheckVerdict.FAILS,
        cells + weak_cells,
        max(max_steps, weak_steps),
        counterexample,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Impossibility probes
# ---------------------------------------------------------------------------


# the caveat on a probe that defeats every candidate
_WITNESS_NOTE = "constructive witness over the declared candidates, not a universal proof"


def probe_unknown_goal(
    verifier: Machine,
    evidence: Evidence,
    languages: Optional[Languages],
    target: Machine,
    candidate_posts: tuple[tuple[str, Machine], ...],
    exemplar: Machine,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Mechanizes the unknown-goal impossibility argument.

    ``languages`` maps each world label of the evidence to the finite
    language in which that world's target output must land.  When the
    languages share no common element the government cannot check
    membership, and the stand-in action -- ``exemplar`` run against a
    hardcoded consistent respondent, touching the real respondent not
    at all -- makes every candidate post-processor output something
    that lands outside some consistent world's language.  Holds when
    every candidate is defeated by such a replayable witness.

    Every world must have a language, and every language member must
    be a value; ``PreconditionViolatedError`` names the worlds without
    one (all of them when ``languages`` is None) or the members that
    are not.  Each language is keyed by ``value_key``, so the
    hypothesis gate is a key-set intersection and each membership test
    a lookup, both agreeing with ``same_value``.  When the languages
    share a member the hypothesis fails: the report's verdict is
    ``HYPOTHESIS_VIOLATED`` over no cell, and its first note lists the
    first world's shared members in rendered, sorted order.  The
    ``Languages`` value keys its members when it is built and works its
    gate out once per tuple of world labels and keeps it
    (``Languages.keyed``), so a probe keys no member.

    The stand-in (``emulate_with_respondent``) is the same object on
    every run over the same built machines, so a run again under the
    same verifier, budget and seeds reads the runs the first one kept.
    It must conform under every seed, but the post-processors and the
    target are compared at the first seed only.  When some run read a
    tape, the report's notes say so; when none did, the first seed
    stands for every seed, and the notes say that instead.
    """
    table = _Cells(verifier, budget, evidence.worlds, seeds)
    keyed = (languages or Languages({})).keyed(evidence.labels())
    if type(keyed) is str:
        return table.report(CheckVerdict.HYPOTHESIS_VIOLATED, 0, 0, notes=(keyed,))

    stand_in = emulate_with_respondent(exemplar, evidence.worlds[0][1].respondent)
    for label, world in evidence.worlds:
        if not table.conforms(world, stand_in):
            return table.unconstructible("stand-in action", label)

    seed = seeds[0]
    cells = 0
    max_steps = 0
    notes: list[str] = []
    witnesses: list[Counterexample] = []
    for post_label, post in candidate_posts:
        outputs = []
        for _, world in evidence.worlds:
            cells += 1
            max_steps = max(max_steps, table.run(world, stand_in, seed).steps_used)
            outputs.append(table.post(post, world, stand_in, seed))
        first = outputs[0]
        if not all(same_value(first, v) for v in outputs):
            return table.report(
                CheckVerdict.FAILS,
                cells,
                max_steps,
                notes=(
                    f"candidate {post_label!r}: output depends on the "
                    "respondent even though the stand-in never consults it",
                ),
            )
        first_key = value_key(first)
        for label, world in evidence.worlds:
            if first_key not in keyed[label]:
                expected = table.target(target, world, seed)
                if value_key(expected) not in keyed[label]:
                    return table.report(
                        CheckVerdict.FAILS,
                        cells,
                        max_steps,
                        notes=(
                            f"world {label!r}: target output {render_value(expected)} escapes "
                            "its own declared language; the scenario is inconsistent",
                        ),
                    )
                witnesses.append(
                    Counterexample(
                        label, stand_in.id, seed, render_value(expected), render_value(first)
                    )
                )
                notes.append(f"candidate {post_label!r} defeated in world {label!r}")
                break
        else:
            return table.report(
                CheckVerdict.FAILS,
                cells,
                max_steps,
                notes=(
                    f"candidate {post_label!r} survives: its output "
                    f"{render_value(first)} lies in every world's language",
                ),
            )

    if table.tape_runs:
        notes.append(
            f"outputs compared at seed {seed} only; the stand-in's conformity "
            f"was checked under all {len(seeds)} seeds"
        )
    return table.report(
        CheckVerdict.HOLDS, cells, max_steps, witnesses=witnesses, notes=(*notes, _WITNESS_NOTE)
    )


def probe_random_target(
    verifier: Machine,
    evidence: Evidence,
    target: Machine,
    candidate_posts: tuple[tuple[str, Machine], ...],
    exemplar: Machine,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Mechanizes the randomized-target impossibility argument.

    Gate: some world must show at least two distinct target outputs
    across the probed tape settings (the target uses its own coins in a
    non-trivial way).  Construction: pin ``exemplar``'s and each
    candidate post-processor's coins to all zeros; the left-hand side
    then cannot track the target's coin-driven variation, so some tape
    setting disagrees.  Holds when every candidate is defeated.

    The gate reads worlds in order and each world's seeds in order, and
    stops at the first target output that is not ``same_value`` as that
    world's first: a seed that differs from the first is support >= 2,
    and that world is the support world.  A world with support 1 is
    read at every seed, or at its first only when its target read no
    tape.  The candidates read the support world's targets from the same
    table, each up to its witness, so, as in entailment, a target run
    that would fault past the gate's stop and every witness is never
    made.

    When no world shows support >= 2 the hypothesis fails: the report's
    verdict is ``HYPOTHESIS_VIOLATED`` over no cell, with the gate's
    note.  One seed cannot show support >= 2, so with one seed a gate
    whose target read a tape raises ``PreconditionViolatedError``.  A
    target that read no tape has support 1 under every seed, and its
    hypothesis fails whatever the seeds.

    The zero-coin machines (``with_zero_tape``) are the same objects on
    every run over the same built machines, so a run again under the
    same verifier, budget and seeds reads the runs the first one kept.
    """
    table = _Cells(verifier, budget, evidence.worlds, seeds)
    for label, world in evidence.worlds:
        outputs = (table.target(target, world, seed) for _, seed in table.walk())
        first = next(outputs)
        if any(not same_value(first, output) for output in outputs):
            break
    else:
        if len(seeds) < 2 and table.tape_runs:
            raise PreconditionViolatedError(
                "the target reads a tape, and one seed cannot show a target "
                "output support of size >= 2"
            )
        note = "no probed world shows a target output support of size >= 2"
        return table.report(CheckVerdict.HYPOTHESIS_VIOLATED, 0, 0, notes=(note,))

    pinned_action = with_zero_tape(exemplar)
    if not table.conforms(world, pinned_action):
        return table.unconstructible("zero-coin exemplar", label)

    cells = 0
    max_steps = 0
    notes: list[str] = [f"support world: {label!r}"]
    witnesses: list[Counterexample] = []
    for post_label, post in candidate_posts:
        pinned_post = with_zero_tape(post)
        # the support world's target reads a tape, so no seed is skipped
        for _, seed in table.walk():
            cells += 1
            max_steps = max(max_steps, table.run(world, pinned_action, seed).steps_used)
            got = table.post(pinned_post, world, pinned_action, seed)
            expected = table.target(target, world, seed)
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
            return table.report(CheckVerdict.FAILS, cells, max_steps, notes=notes)

    return table.report(
        CheckVerdict.HOLDS, cells, max_steps, witnesses=witnesses, notes=(*notes, _WITNESS_NOTE)
    )
