"""Metamorphic tests: the paper's quantifiers range over sets.

Demonstrability and entailment quantify over every world of an
evidence, every action of a family and every seed, so a verdict cannot
depend on the order of those members, nor on a member listed twice
under a fresh label.  Each registered check runs at seeds 0..15, and
Hypothesis draws one transformation of its inputs:

  * a permutation of the worlds of each evidence the check reads, of
    the seeds, or of an ``entailment``/``counterexample`` family: the
    verdict is unchanged, and so are a ``Holds`` report's ``cells``,
    but for the walks listed in ``ORDERED_CELLS``;
  * a world of one of those evidences added again under a fresh label,
    with its language for ``probe-unknown-goal``, or an action of an
    ``entailment``/``counterexample`` family added again under a fresh
    label: the verdict is unchanged;
  * every world label of the evidences the check reads, and every
    action label of an ``entailment``/``counterexample`` family, renamed
    to a fresh label: the report is the original report under that
    renaming, field by field.

The transformed scenario and check are copies of the registered ones
with the changed member; the worlds and actions are the registered
objects.
"""

from __future__ import annotations

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foregone.checkers import ActionFamily, CheckReport, Counterexample, DEFAULT_SEEDS
from foregone.evidence import Evidence
from foregone.scenarios import build_registry, run_check
from foregone.scenarios.base import HOLDS

SEEDS = DEFAULT_SEEDS  # 0..15

# (scenario, check id, permuted members) whose Holds cells follow the
# members' order by design, each with its reason
ORDERED_CELLS = {
    ("unknown-goal", "probe-random/coin", "seeds"): (
        "the support gate stops at the first seed that shows support of size 2 or more"
    ),
    ("password", "monotonicity/star-to-weak", "worlds"): (
        "the walk of 'star' stops at its first failing world; walking it in full"
        " changes golden bytes"
    ),
}

REGISTERED = [
    (name, check.id) for name, scenario in build_registry().items() for check in scenario.checks
]
ACTION_KINDS = ("entailment", "counterexample")


def _evidence_keys(check) -> tuple[str, ...]:
    return check.edge if check.kind == "monotonicity" else (check.evidence,)


def _with_worlds(evidence: Evidence, worlds) -> Evidence:
    return Evidence(
        evidence.name,
        evidence.assertions,
        tuple(worlds),
        evidence.probe,
        evidence.partial_specs,
        evidence.full_specs,
    )


def _again(data, members: tuple) -> tuple[tuple, str, str]:
    """``members`` with one of them inserted again, at a drawn place,
    under a fresh label; and that member's label and the fresh one."""
    label, member = data.draw(st.sampled_from(members))
    fresh = f"{label}+again"
    assert fresh not in {label for label, _ in members}
    place = data.draw(st.integers(0, len(members)))
    return members[:place] + ((fresh, member),) + members[place:], label, fresh


def _transformed(data, scenario, check):
    """A drawn transformation's name and the scenario, check and seeds it
    gives."""
    kinds = ["worlds", "seeds", "world-again"]
    if check.kind in ACTION_KINDS:
        kinds += ["family", "action-again"]
    kind = data.draw(st.sampled_from(kinds))
    scenario, check, seeds = copy.copy(scenario), copy.copy(check), SEEDS
    evidences = dict(scenario.evidences)
    family = check.family or scenario.action_family
    if kind == "worlds":
        for key in _evidence_keys(check):
            worlds = data.draw(st.permutations(evidences[key].worlds))
            evidences[key] = _with_worlds(evidences[key], worlds)
    elif kind == "seeds":
        seeds = tuple(data.draw(st.permutations(SEEDS)))
    elif kind == "world-again":
        key = data.draw(st.sampled_from(_evidence_keys(check)))
        worlds, label, fresh = _again(data, evidences[key].worlds)
        evidences[key] = _with_worlds(evidences[key], worlds)
        if check.kind == "probe-unknown-goal":
            by_world = dict(check.languages)
            by_world[fresh] = by_world[label]
            # the copy reads its languages from its own source
            check.__dict__.pop("languages", None)
            check.language_source = lambda: by_world
    elif kind == "family":
        check.family = ActionFamily(tuple(data.draw(st.permutations(family.actions))))
    else:
        check.family = ActionFamily(_again(data, family.actions)[0])
    scenario.evidences = evidences
    return kind, scenario, check, seeds


@pytest.mark.parametrize("name, check_id", REGISTERED, ids=[f"{n}:{c}" for n, c in REGISTERED])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_verdict_does_not_depend_on_order_or_on_a_member_listed_again(
    registry, name, check_id, data
):
    scenario = registry[name]
    check = next(c for c in scenario.checks if c.id == check_id)
    verdict, report = run_check(scenario, check, SEEDS)
    kind, *inputs = _transformed(data, scenario, check)
    changed_verdict, changed = run_check(*inputs)
    assert changed_verdict == verdict
    permuted = kind in ("worlds", "seeds", "family")
    if verdict == HOLDS and permuted and (name, check_id, kind) not in ORDERED_CELLS:
        assert changed.cells_checked == report.cells_checked


@pytest.mark.parametrize("name, check_id, kind", sorted(ORDERED_CELLS))
def test_each_order_dependent_walk_is_one_that_reversing_its_members_shows(
    registry, name, check_id, kind
):
    # so no exception outlives the dependence it excuses
    scenario = registry[name]
    check = next(c for c in scenario.checks if c.id == check_id)
    verdict, report = run_check(scenario, check, SEEDS)
    reversed_scenario, seeds = copy.copy(scenario), SEEDS
    if kind == "seeds":
        seeds = SEEDS[::-1]
    else:
        evidences = dict(scenario.evidences)
        for key in _evidence_keys(check):
            evidences[key] = _with_worlds(evidences[key], evidences[key].worlds[::-1])
        reversed_scenario.evidences = evidences
    reversed_verdict, reversed_report = run_check(reversed_scenario, check, seeds)
    assert reversed_verdict == verdict == HOLDS
    assert reversed_report.cells_checked != report.cells_checked


def _fresh(labels, kind: str) -> dict[str, str]:
    """A fresh label for each of ``labels``, sorting in the reverse order
    of the old ones, so that a walk that sorted labels would show."""
    ordered = sorted(set(labels))
    return {label: f"renamed-{kind}-{len(ordered) - i:02d}" for i, label in enumerate(ordered)}


def _renamed(scenario, check):
    """Copies of the scenario and check with every world label of the
    evidences the check reads, and every action label of an action
    kind's family, renamed; and the two renamings."""
    scenario, check = copy.copy(scenario), copy.copy(check)
    evidences = dict(scenario.evidences)
    keys = _evidence_keys(check)
    worlds = _fresh([label for key in keys for label in evidences[key].labels()], "world")
    for key in keys:
        renamed = [(worlds[label], world) for label, world in evidences[key].worlds]
        evidences[key] = _with_worlds(evidences[key], renamed)
    scenario.evidences = evidences
    actions: dict[str, str] = {}
    if check.kind in ACTION_KINDS:
        family = check.family or scenario.action_family
        actions = _fresh([label for label, _ in family.actions], "action")
        check.family = ActionFamily(tuple((actions[label], a) for label, a in family.actions))
    if check.kind == "probe-unknown-goal":
        by_world = {worlds[label]: members for label, members in check.languages.items()}
        check.__dict__.pop("languages", None)
        check.language_source = lambda: by_world
    return scenario, check, worlds, actions


def _report_renamed(report: CheckReport, worlds, actions) -> CheckReport:
    """``report`` with each world and action label renamed, in its cells
    and wherever a note quotes it."""

    def cell(c):
        world, action = worlds.get(c.world, c.world), actions.get(c.action, c.action)
        return Counterexample(world, action, c.seed, c.expected, c.got)

    names = {**worlds, **actions}

    def note(text):
        return re.sub(
            r"'([^']*)'", lambda m: repr(names[m[1]]) if m[1] in names else m[0], text
        )

    return CheckReport(
        report.verdict,
        report.counterexample and cell(report.counterexample),
        report.cells_checked,
        report.max_steps,
        tuple((worlds[w], actions.get(a, a)) for w, a in report.skipped),
        tuple(cell(w) for w in report.witnesses),
        tuple(note(n) for n in report.notes),
    )


@pytest.mark.parametrize("name, check_id", REGISTERED, ids=[f"{n}:{c}" for n, c in REGISTERED])
def test_a_report_under_renamed_labels_is_the_renamed_report(registry, name, check_id):
    scenario = registry[name]
    check = next(c for c in scenario.checks if c.id == check_id)
    _, report = run_check(scenario, check, SEEDS)
    renamed_scenario, renamed_check, worlds, actions = _renamed(scenario, check)
    _, renamed = run_check(renamed_scenario, renamed_check, SEEDS)
    assert renamed == _report_renamed(report, worlds, actions)
