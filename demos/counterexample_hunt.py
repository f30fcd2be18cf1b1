#!/usr/bin/env python3
"""Counterexample hunting: three recoveries and the cells that defeat them.

Each hunt enumerates (world x action x seed) cells in declared order and
stops at the first cell where the recovered value disagrees with the
target's output.  Every cell is then replayed from scratch to show the
disagreement is real, not an artifact of the search.
"""

from foregone.checkers import entailment_cell_outputs
from foregone.scenarios import build_scenario
from foregone.scenarios.base import run_check
from foregone.values import render_value


def hunt(scenario_name, check_kind, evidence_key, seeds=(0, 1, 2, 3)):
    scenario = build_scenario(scenario_name)
    check = scenario.find_check(check_kind, evidence_key)
    verdict, report = run_check(scenario, check, seeds)
    cell = report.counterexample
    print(f"--- {scenario_name}: {check_kind} on {evidence_key!r} -> {verdict}")
    if cell is None:
        print("    no violating cell in the enumerated family")
        return
    print(f"    first violating cell: world={cell.world} action={cell.action} seed={cell.seed}")

    # independent replay of the cell from its coordinates alone:
    # world, action and seed
    family = check.family or scenario.action_family
    verifier = check.verifier or scenario.verifier
    target = check.target or scenario.target
    post = check.post or scenario.post_processor
    world = scenario.evidences[check.evidence].world(cell.world)
    action = dict(family.actions)[cell.action]
    expected, got, _steps = entailment_cell_outputs(
        verifier, target, post, world, action, cell.seed
    )
    print(f"    replay: target output {render_value(expected)}")
    print(f"    replay: recovered     {render_value(got)}")
    print()


def main():
    print("Deniable device: the duress performance passes the display check")
    print("while swapping the stored message for planted content.")
    hunt("deniable", "counterexample", "weak")

    print("Partially specified store: an accepted performance may overwrite")
    print("the content before the examiner reads it.")
    hunt("hybrid", "counterexample", "weak")

    print("Colliding digest: the produced bytes differ from the located file")
    print("while hashing identically.")
    hunt("hash", "counterexample", "colliding")

    print("Equivocable commitment: the lodged value opens to a chosen message.")
    hunt("decommit", "counterexample", "weak")

    print("For contrast, the exact-shape evidence leaves nothing to find:")
    hunt("deniable", "entailment", "strong")


if __name__ == "__main__":
    main()
