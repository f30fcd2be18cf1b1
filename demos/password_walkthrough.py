#!/usr/bin/env python3
"""Walkthrough: compelled password entry, from one execution to verdicts.

Builds the password world by hand, runs the exemplar unlock against the
display-check verifier, prints the transcript, then walks the evidence
chain: demonstrability on the shape evidence, recovery on the
exact-shape evidence, and the two ways recovery falls apart (a deniable
device, and a respondent who may have nothing to enter).
"""

from foregone.checkers import check_demonstrability, check_entailment
from foregone.kernel import execute, run_target
from foregone.scenarios import build_scenario
from foregone.scenarios.base import run_check
from foregone.values import render_value


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main():
    scenario = build_scenario("password")
    evidence = scenario.evidences["weak"]
    world = evidence.world("locked-basic")

    banner("1. One execution: enter the password, then check the display")
    result = execute(scenario.verifier, scenario.exemplar, world, seed=0)
    for event in result.transcript.events:
        print("   ", event.render())
    print("    verdict:", result.transcript.verdict.value)

    banner("2. The target act and its recovery")
    print("    target output:", render_value(run_target(scenario.target, world, seed=0).output))
    print("    (the examiner recovers it by reading the device afterwards)")

    banner("3. Demonstrability across every consistent world")
    report = check_demonstrability(
        scenario.verifier, scenario.exemplar, evidence, seeds=(0, 1, 2, 3)
    )
    print(f"    worlds: {evidence.labels()}")
    print(f"    verdict: {report.verdict.value} over {report.cells_checked} cells")

    banner("4. Recovery holds once the device's shape is asserted exactly")
    strong = scenario.evidences["strong"]
    report = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        strong,
        scenario.find_check("entailment", "strong").family,
        seeds=(0, 1, 2, 3),
    )
    print(f"    worlds: {strong.labels()}")
    print(f"    verdict: {report.verdict.value} over {report.cells_checked} cells")
    print(f"    actions outside the quantifier: {list(report.skipped)}")

    banner("5. ...and fails while a deniable device stays consistent")
    verdict, report = run_check(
        scenario, scenario.find_check("entailment", "weak"), seeds=(0, 1, 2, 3)
    )
    cell = report.counterexample
    print(f"    verdict: {verdict}")
    print(
        f"    defeating cell: world={cell.world} action={cell.action} seed={cell.seed}"
    )
    print(f"    recovered {cell.got}, but the stored message was {cell.expected}")

    banner("6. ...and fails without the knowledge assertion")
    verdict, report = run_check(
        scenario, scenario.find_check("counterexample", "star"), seeds=(0, 1, 2, 3)
    )
    cell = report.counterexample
    print(f"    verdict: {verdict}")
    print(
        f"    defeating cell: world={cell.world} action={cell.action} seed={cell.seed}"
    )
    print("    the performance never consulted the respondent, so the")
    print(f"    recovered {cell.got} says nothing about a mind that yields {cell.expected}")


if __name__ == "__main__":
    main()
