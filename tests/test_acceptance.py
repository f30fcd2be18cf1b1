"""Acceptance criteria, one test per criterion.

Each criterion runs at its stated desk scale (families of at most eight
worlds, sixteen seeds, byte strings of at most eight bytes) with exact
expectations: verdicts are compared for equality and value checks use
the structural equality the checkers themselves use.  Every test prints
one pass line; a failing criterion shows up as a failing test.
"""

from __future__ import annotations

import json
import random
from functools import partial

import pytest

from helpers import restrict_to
from reference_checks import conforms
from foregone.checkers import (
    DEFAULT_SEEDS,
    check_demonstrability,
    check_entailment,
    check_monotonicity,
    entailment_cell_outputs,
    probe_random_target,
    probe_unknown_goal,
)
from foregone.kernel import execute, run_post, run_target
from foregone.scenarios import build_registry, run_check
from foregone.scenarios.base import FAILS, HOLDS, HYPOTHESIS_VIOLATED
from foregone.toy_crypto import SCHEMES, byte_domain, small_byte_domain, toy_hash
from foregone.values import render_value, same_value

SEEDS = DEFAULT_SEEDS  # sixteen tape settings
assert len(SEEDS) == 16


@pytest.fixture(scope="module")
def registry():
    return build_registry()


def _passed(number: int, text: str) -> None:
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_password_demonstrability(registry):
    scenario = registry["password"]
    report = check_demonstrability(
        scenario.verifier, scenario.exemplar, scenario.evidences["weak"], SEEDS
    )
    assert report.holds
    assert report.cells_checked == len(scenario.evidences["weak"].worlds) * 16
    _passed(1, "password unlock demonstrable on every world x 16 seeds")


def test_criterion_02_password_entailment_under_full_spec(registry):
    scenario = registry["password"]
    check = scenario.find_check("entailment", "strong")
    family = check.family
    evidence = scenario.evidences["strong"]
    # at least three actions conform in every world of the family
    for _, world in evidence.worlds:
        conforming = [
            label
            for label, action in family.actions
            if conforms(scenario.verifier, action, world, SEEDS)
        ]
        assert len(conforming) >= 3
    report = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        evidence,
        family,
        SEEDS,
    )
    assert report.holds and report.counterexample is None
    _passed(2, "password recovery entailed under exact-shape evidence")


def test_criterion_03_non_entailment_without_the_knowledge_assertion(registry):
    scenario = registry["password"]
    check = scenario.find_check("counterexample", "star")
    evidence = scenario.evidences["star"]
    cell = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        evidence,
        check.family,
        SEEDS,
    ).counterexample
    assert cell is not None
    # the violating world is the one whose respondent yields nothing
    world = evidence.world(cell.world)
    assert world.respondent.id == "empty-handed"
    # replay: the recovered value disagrees with the target's output
    action = dict(check.family.actions)[cell.action]
    expected, got, _ = entailment_cell_outputs(
        scenario.verifier, scenario.target, scenario.post_processor, world, action, cell.seed
    )
    assert expected is None and isinstance(got, bytes)
    assert not same_value(expected, got)
    # and the recovered value is independent of the respondent: the same
    # action in a knowing-respondent world yields the identical bytes
    other = evidence.world("locked-basic")
    _, got_elsewhere, _ = entailment_cell_outputs(
        scenario.verifier, scenario.target, scenario.post_processor, other, action, cell.seed
    )
    assert same_value(got, got_elsewhere)
    _passed(3, "missing knowledge assertion defeats recovery via a mind-blind cell")


def test_criterion_04_deniable_split_verdict(registry):
    scenario = registry["deniable"]
    demonstrable = check_demonstrability(
        scenario.verifier, scenario.exemplar, scenario.evidences["weak"], SEEDS
    )
    assert demonstrable.holds
    report = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["weak"],
        scenario.action_family,
        SEEDS,
    )
    assert not report.holds
    assert report.counterexample.action == "use-duress-password"
    assert report.counterexample.world == "deniable"
    _passed(4, "deniable device: demonstrability holds while recovery fails via duress")


def test_criterion_05_partial_specification_pitfall(registry):
    scenario = registry["hybrid"]
    weak = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["weak"],
        scenario.action_family,
        SEEDS,
    )
    assert not weak.holds
    assert weak.counterexample.world == "writable-store"
    strong = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["strong"],
        scenario.action_family,
        SEEDS,
    )
    assert strong.holds
    _passed(5, "store recovery fails under shape evidence, holds under exact shape")


def test_criterion_06_monotonicity_lemma(registry):
    edges_checked = 0
    for scenario in registry.values():
        for weaker_key, stronger_key in scenario.edges:
            report = check_monotonicity(
                scenario.verifier,
                scenario.exemplar,
                scenario.evidences[weaker_key],
                scenario.evidences[stronger_key],
                SEEDS,
            )
            assert report.holds, (scenario.name, weaker_key, stronger_key)
            edges_checked += 1
    assert edges_checked >= 6

    # fifty deterministic subfamily pairs sampled across the registry
    rng = random.Random(0x20260808)
    lattice = [
        (scenario, evidence)
        for scenario in registry.values()
        for evidence in scenario.evidences.values()
        if len(evidence.worlds) >= 2
    ]
    sampled = 0
    while sampled < 50:
        scenario, evidence = rng.choice(lattice)
        labels = list(evidence.labels())
        outer_size = rng.randint(1, len(labels))
        outer = tuple(rng.sample(labels, outer_size))
        inner = tuple(rng.sample(outer, rng.randint(1, len(outer))))
        weaker = restrict_to(evidence, outer)
        stronger = restrict_to(evidence, inner)
        report = check_monotonicity(
            scenario.verifier, scenario.exemplar, weaker, stronger, (0, 1, 2, 3)
        )
        assert report.holds, (scenario.name, evidence.name, outer, inner)
        # conformity never degrades either
        if all(
            conforms(scenario.verifier, scenario.exemplar, world, (0, 1))
            for _, world in weaker.worlds
        ):
            assert all(
                conforms(scenario.verifier, scenario.exemplar, world, (0, 1))
                for _, world in stronger.worlds
            )
        sampled += 1
    _passed(6, "demonstrability and conformity monotone over 50 sampled pairs + all edges")


def test_criterion_07_two_factor_unlock(registry):
    scenario = registry["twofactor"]
    demonstrable = check_demonstrability(
        scenario.verifier, scenario.exemplar, scenario.evidences["weak"], SEEDS
    )
    assert demonstrable.holds
    report = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["strong"],
        scenario.action_family,
        SEEDS,
    )
    assert report.holds
    _passed(7, "two-factor unlock demonstrable; recovery holds with both shapes exact")


def test_criterion_08_hash_dichotomy(registry):
    scenario = registry["hash"]
    pair = (b"q3-report", b"shadow-q3")
    domain = byte_domain() + pair
    injective, colliding = partial(toy_hash, None), partial(toy_hash, pair)

    # brute-force preimage sweeps are the oracle for both outcomes
    digest = injective(b"q3-report")
    preimages = [x for x in domain if injective(x) == digest]
    assert set(preimages) == {b"q3-report"}
    digest = colliding(b"q3-report")
    preimages = {x for x in domain if colliding(x) == digest}
    assert preimages == {b"q3-report", b"shadow-q3"}

    injective_check = scenario.find_check("entailment", "injective")
    verdict, report = run_check(scenario, injective_check, SEEDS)
    assert verdict == HOLDS and report.counterexample is None

    colliding_check = scenario.find_check("counterexample", "colliding")
    verdict, report = run_check(scenario, colliding_check, SEEDS)
    assert verdict == FAILS
    cell = report.counterexample
    produced = b"q3-report"
    target_file = run_target(
        scenario.target, scenario.evidences["colliding"].world(cell.world), cell.seed
    ).output
    assert produced != target_file
    assert colliding(produced) == colliding(target_file)
    _passed(8, "injective digest entails exactly; collision yields equal-digest cell")


def test_criterion_09_commitment_opening(registry):
    scenario = registry["decommit"]
    for evidence_key in ("strong", "weak"):
        report = check_demonstrability(
            scenario.verifier, scenario.exemplar, scenario.evidences[evidence_key], SEEDS
        )
        assert report.holds, evidence_key

    # binding verified by the exhaustive double-opening sweep
    assert (
        SCHEMES["transparent"].double_opening_witness(byte_domain(), small_byte_domain())
        is None
    )
    binding = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["strong"],
        scenario.action_family,
        SEEDS,
    )
    assert binding.holds

    witness = SCHEMES["xor-pad"].double_opening_witness(byte_domain(), small_byte_domain())
    assert witness is not None
    equivocable = check_entailment(
        scenario.verifier,
        scenario.target,
        scenario.post_processor,
        scenario.evidences["weak"],
        scenario.action_family,
        SEEDS,
    )
    assert not equivocable.holds
    assert equivocable.counterexample.action == "open-to-chosen-message"

    composed = scenario.find_check("entailment", "composed")
    verdict, _ = run_check(scenario, composed, SEEDS)
    assert verdict == HOLDS
    _passed(9, "binding commitments entail their secret (and its complement); equivocable ones do not")


def test_criterion_10_one_time_pad_table(registry):
    scenario = registry["otp-table"]
    table = {
        "probe-unknown-goal/secret-own-key": HOLDS,
        "probe-unknown-goal/secret-fixed-key": HOLDS,
        "probe-random/secret-sampled-key": HOLDS,
        "probe-unknown-goal/known-own-key": HOLDS,
        "entailment/known-fixed-key": HOLDS,
        "probe-random/known-sampled-key": HOLDS,
    }
    for check in scenario.checks:
        if check.id not in table:
            continue
        verdict, report = run_check(scenario, check, SEEDS)
        assert verdict == table[check.id], check.id
        if check.kind.startswith("probe"):
            assert len(check.candidates) >= 3
            assert len(report.witnesses) == len(check.candidates)
    derandomized = scenario.find_check("entailment", "known-derandomized")
    verdict, _ = run_check(scenario, derandomized, SEEDS)
    assert verdict == HOLDS
    _passed(10, "pad table reproduced: five defeats, one recovery, derandomized recovery")


def test_criterion_11_impossibility_probes(registry):
    scenario = registry["unknown-goal"]

    whereabouts = scenario.find_check("probe-unknown-goal", "whereabouts")
    report = probe_unknown_goal(
        scenario.verifier,
        scenario.evidences["whereabouts"],
        whereabouts.languages,
        whereabouts.target,
        whereabouts.candidates,
        scenario.exemplar,
        SEEDS,
    )
    assert report.holds
    assert len(report.witnesses) == len(whereabouts.candidates)
    # replay one witness end to end: stand-in run, candidate recovery,
    # target comparison in the witnessing world
    from foregone.kernel import emulate_with_respondent

    stand_in = emulate_with_respondent(
        scenario.exemplar,
        scenario.evidences["whereabouts"].worlds[0][1].respondent,
    )
    witness = report.witnesses[0]
    world = scenario.evidences["whereabouts"].world(witness.world)
    run = execute(scenario.verifier, stand_in, world, witness.seed)
    got = run_post(
        dict(whereabouts.candidates)["echo-first-message"], run, witness.seed
    ).output
    expected = run_target(whereabouts.target, world, witness.seed).output
    assert render_value(got) == witness.got
    assert render_value(expected) == witness.expected

    for check_key in ("coin", "commitment"):
        check = scenario.find_check("probe-random", check_key)
        report = probe_random_target(
            scenario.verifier,
            scenario.evidences[check_key],
            check.target,
            check.candidates,
            check.exemplar,
            SEEDS,
        )
        assert report.holds, check_key
        assert len(report.witnesses) == len(check.candidates)
        # replay the first witness cell
        witness = report.witnesses[0]
        world = scenario.evidences[check_key].world(witness.world)
        target_out = run_target(check.target, world, witness.seed).output
        assert render_value(target_out) == witness.expected

    pinned = scenario.find_check("probe-unknown-goal", "commitment-pinned")
    verdict, _ = run_check(scenario, pinned, SEEDS)
    assert verdict == HOLDS
    gated = scenario.find_check("probe-unknown-goal", "commitment-pinned-equivocable")
    verdict, _ = run_check(scenario, gated, SEEDS)
    assert verdict == HYPOTHESIS_VIOLATED
    _passed(11, "both impossibility probes defeat every candidate with replayable witnesses")


def test_criterion_12_determinism_of_the_full_audit(tmp_path):
    from foregone.cli import main

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["audit", "--json", "--out"]
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["mismatches"] == 0
    _passed(12, "full audit is byte-identical across runs and fully green")
