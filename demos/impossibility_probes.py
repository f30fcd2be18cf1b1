#!/usr/bin/env python3
"""The two impossibility probes, with their witnesses spelled out.

Unknown goals: when the consistent minds' answer sets share no common
element, the government cannot check any answer, so a performance that
never consults the respondent defeats every candidate recovery.

Randomized targets: when the target draws on its own coins, pinning the
performance's and the recovery's coins to zero leaves the target's
variation untracked, so some tape setting disagrees.

Both probes defeat finite candidate lists and report replayable
witnesses; they are constructive demonstrations, not universal proofs.
"""

from foregone.checkers import probe_random_target, probe_unknown_goal
from foregone.scenarios import build_scenario
from foregone.scenarios.base import run_check


def show(report):
    for note in report.notes:
        print("   ", note)
    for witness in report.witnesses:
        print(
            f"    witness: world={witness.world} seed={witness.seed}"
            f" target={witness.expected} recovered={witness.got}"
        )
    print()


def main():
    scenario = build_scenario("unknown-goal")
    seeds = tuple(range(8))

    print("=== whereabouts: the government does not know what to look for")
    check = scenario.find_check("probe-unknown-goal", "whereabouts")
    report = probe_unknown_goal(
        scenario.verifier,
        scenario.evidences["whereabouts"],
        check.languages,
        check.target,
        check.candidates,
        scenario.exemplar,
        seeds,
    )
    print("    verdict:", report.verdict.value)
    show(report)

    print("=== coin flip: a fresh coin cannot be recovered")
    check = scenario.find_check("probe-random", "coin")
    report = probe_random_target(
        scenario.verifier,
        scenario.evidences["coin"],
        check.target,
        check.candidates,
        check.exemplar,
        seeds,
    )
    print("    verdict:", report.verdict.value)
    show(report)

    print("=== fresh commitment to an unverifiable secret")
    check = scenario.find_check("probe-random", "commitment")
    report = probe_random_target(
        scenario.verifier,
        scenario.evidences["commitment"],
        check.target,
        check.candidates,
        check.exemplar,
        seeds,
    )
    print("    verdict:", report.verdict.value)
    show(report)

    print("=== pinned-coin commitment, binding scheme: probe applies and wins")
    verdict, report = run_check(
        scenario, scenario.find_check("probe-unknown-goal", "commitment-pinned"), seeds
    )
    print("    verdict:", verdict)
    show(report)

    print("=== pinned-coin commitment, equivocable scheme: hypothesis collapses")
    verdict, report = run_check(
        scenario,
        scenario.find_check("probe-unknown-goal", "commitment-pinned-equivocable"),
        seeds,
    )
    print("    verdict:", verdict)
    for note in report.notes:
        print("   ", note)


if __name__ == "__main__":
    main()
