from __future__ import annotations

import copy
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import foregone
from foregone.checkers import (
    SEED_FREE_NOTE,
    CheckVerdict,
    Languages,
    check_demonstrability,
    check_monotonicity,
)
from foregone.cli import _rows_for
from foregone.evidence import at_least_as_strong, audit as audit_evidence
from foregone.kernel import DEFAULT_BUDGET, Verdict, execute, run_target
from foregone.scenarios import (
    BUILDERS,
    ScenarioError,
    build_registry,
    build_scenario,
    run_check,
)
from foregone.scenarios.base import FAILS, HOLDS, HYPOTHESIS_VIOLATED
from foregone.toy_crypto import (
    SCHEMES,
    CommitmentScheme,
    byte_domain,
    toy_hash,
)
from foregone.values import render_value, same_value, value_key

from conftest import FEW_SEEDS
from helpers import changed_device, changed_methods


def audit_rows(registry):
    return [
        row
        for scenario in registry.values()
        for row in _rows_for(scenario, scenario.checks, FEW_SEEDS, DEFAULT_BUDGET)
    ]


def test_every_registered_expectation_is_reproduced(registry):
    rows = audit_rows(registry)
    mismatches = [r for r in rows if r["verdict"] != r["expected"]]
    assert mismatches == []
    assert len(rows) >= 40


def test_every_verdict_string_is_its_report_s_verdict(registry):
    for scenario in registry.values():
        for check in scenario.checks:
            verdict, report = run_check(scenario, check, FEW_SEEDS)
            assert verdict == report.verdict.value, f"{scenario.name}:{check.id}"


def test_scenario_loading_runs_the_evidence_audit(registry):
    for scenario in registry.values():
        for evidence in scenario.evidences.values():
            assert audit_evidence(evidence) == []


def test_a_build_audits_each_evidence_object_once(monkeypatch):
    import foregone.scenarios.base as base

    audited = []
    real = base.audit_evidence

    def audit(evidence):
        audited.append(evidence)
        return real(evidence)

    monkeypatch.setattr(base, "audit_evidence", audit)
    scenario = build_scenario("otp-table")
    # nine evidence names, two evidence objects, audited in first-seen order
    assert len(scenario.evidences) == 9
    assert audited == list(dict.fromkeys(scenario.evidences.values()))
    assert len(audited) == 2
    # so a failing evidence lists each of its problems once
    monkeypatch.setattr(base, "audit_evidence", lambda evidence: [f"{evidence.name} fails"])
    with pytest.raises(ScenarioError) as raised:
        build_scenario("otp-table")
    assert str(raised.value) == (
        "scenario 'otp-table' fails its evidence audit: "
        "secret-plaintext-and-key fails; recorded-plaintext-secret-key fails"
    )


def test_weak_families_strictly_contain_strong_families(registry):
    for scenario in registry.values():
        for weaker_key, stronger_key in scenario.edges:
            weaker = scenario.evidences[weaker_key]
            stronger = scenario.evidences[stronger_key]
            assert at_least_as_strong(stronger, weaker)
            assert set(stronger.labels()) < set(weaker.labels())


def test_monotonicity_holds_along_every_declared_edge(registry):
    for scenario in registry.values():
        for weaker_key, stronger_key in scenario.edges:
            report = check_monotonicity(
                scenario.verifier,
                scenario.exemplar,
                scenario.evidences[weaker_key],
                scenario.evidences[stronger_key],
                FEW_SEEDS,
            )
            assert report.holds, (scenario.name, weaker_key, stronger_key)


def test_a_monotonicity_row_whose_weaker_evidence_fails_says_it_holds_vacuously(registry):
    # of the registered edges only password's star-to-weak has a weaker
    # evidence that is not demonstrable
    vacuous = {}
    for scenario in registry.values():
        for check in scenario.checks:
            if check.kind == "monotonicity":
                report = run_check(scenario, check, FEW_SEEDS)[1]
                vacuous[scenario.name, check.id] = [
                    note for note in report.notes if note.startswith("holds vacuously")
                ]
    assert {key: notes for key, notes in vacuous.items() if notes} == {
        ("password", "monotonicity/star-to-weak"): [
            "holds vacuously: demonstrability fails under "
            "'password-entry-minus-respondent-knows-password' at world 'silent-respondent'"
        ]
    }


def test_entailment_holds_implies_demonstrability_holds(registry):
    linked = 0
    for scenario in registry.values():
        for check in scenario.checks:
            if check.kind != "entailment" or check.expected != HOLDS:
                continue
            verifier = check.verifier or scenario.verifier
            evidence = scenario.evidences[check.evidence]
            report = check_demonstrability(
                verifier, check.exemplar or scenario.exemplar, evidence, FEW_SEEDS
            )
            assert report.holds, (scenario.name, check.id)
            linked += 1
    assert linked >= 5


def test_exemplars_belong_to_their_families(registry):
    for scenario in registry.values():
        machines = [machine for _, machine in scenario.action_family.actions]
        assert any(machine is scenario.exemplar for machine in machines), scenario.name


class _Ran(Exception):
    pass


def test_every_kind_runs_the_check_exemplar_else_the_scenario_exemplar(
    registry, monkeypatch
):
    import foregone.scenarios.base as base

    def recorder(position):
        def record(*args):
            raise _Ran(args[position])

        return record

    # the argument position of the exemplar in each checker that runs one
    for name, position in (
        ("check_monotonicity", 1),
        ("check_demonstrability", 1),
        ("check_evidence_conformity", 1),
        ("probe_unknown_goal", 5),
        ("probe_random_target", 4),
    ):
        monkeypatch.setattr(base, name, recorder(position))
    overridden = 0
    for scenario in registry.values():
        for check in scenario.checks:
            if check.kind in ("entailment", "counterexample"):
                continue
            try:
                run_check(scenario, check, FEW_SEEDS)
            except _Ran as ran:
                expected = check.exemplar or scenario.exemplar
                assert ran.args[0] is expected, check.id
                overridden += check.exemplar is not None
            else:
                raise AssertionError(f"{check.id} ran no exemplar checker")
    assert overridden >= 4  # unknown-goal's coin and commitment probes


def test_build_scenario_refuses_an_unknown_name_listing_the_known_ones():
    with pytest.raises(ScenarioError) as raised:
        build_scenario("no-such-scenario")
    assert str(raised.value) == (
        f"unknown scenario 'no-such-scenario'; known: {sorted(BUILDERS)}"
    )


def test_no_scenario_verifier_ever_touches_the_respondent(registry):
    # quantified isolation and read-only soundness: across every
    # (scenario, check, world) execution, the verifier phase produces no
    # respondent-directed events and read-only locations never change
    for scenario in registry.values():
        for check in scenario.checks:
            if check.kind == "monotonicity":
                continue
            verifier = check.verifier or scenario.verifier
            exemplar = check.exemplar or scenario.exemplar
            evidence = scenario.evidences[check.evidence]
            for _, world in evidence.worlds:
                sealed = {
                    loc: dict(world.nature.slots[loc].state)
                    for loc in world.nature.read_only
                }
                result = execute(verifier, exemplar, world, 0)
                offenders = [
                    e
                    for e in result.transcript.events
                    if e.caller == verifier.id and e.callee == world.respondent.id
                ]
                assert offenders == [], (scenario.name, check.id)
                for loc, before in sealed.items():
                    slot = world.nature.slots[loc]
                    assert slot not in result.states
                    assert dict(slot.state) == before


# --- scenario-specific behavior ---------------------------------------------------


def test_known_file_verifier_rejects_the_duress_performance(registry):
    from foregone.scenarios.password import duress_action, known_file_verifier

    scenario = registry["deniable"]
    world = scenario.evidences["weak"].world("deniable")
    result = execute(
        known_file_verifier(b"tax-records"),
        duress_action(b"cat-pictures"),
        world,
        0,
    )
    assert result.transcript.verdict is Verdict.REJECT


def test_hybrid_counterexample_is_the_overwrite_cell(registry):
    scenario = registry["hybrid"]
    check = scenario.find_check("counterexample", "weak")
    verdict, report = run_check(scenario, check, FEW_SEEDS)
    assert verdict == FAILS
    cell = report.counterexample
    assert (cell.world, cell.action) == ("writable-store", "overwrite-store")


def test_twofactor_wrong_code_leaves_the_device_dark(registry):
    from foregone.kernel import Machine
    from foregone.scenarios.twofactor import DEVICE_LOCATION
    from foregone.values import ABSENT

    def wrong_code_only(ctx, _arg):
        pwd = ctx.respondent.call("pwd")
        ctx.nature(DEVICE_LOCATION).call("prompt_pwd", pwd)
        ctx.nature(DEVICE_LOCATION).call("prompt_code", b"000000")
        return ABSENT

    scenario = registry["twofactor"]
    world = scenario.evidences["weak"].world("office")
    action = Machine(id="give-up-after-wrong-code", methods={"run": wrong_code_only})
    result = execute(scenario.verifier, action, world, 0)
    assert result.transcript.verdict is Verdict.REJECT


def test_digest_verifier_rejects_a_wrong_submission(registry):
    from foregone.scenarios.hashfile import digest_verifier
    from foregone.scenarios.common import send_fixed_action

    scenario = registry["hash"]
    verifier = digest_verifier(None, toy_hash(None, b"q3-report"))
    world = scenario.evidences["injective"].world("archive")
    result = execute(
        verifier, send_fixed_action("send-wrong-bytes", b"not-the-file"), world, 0
    )
    assert result.transcript.verdict is Verdict.REJECT


def test_a_digest_verifier_needs_no_hash_build_before_it():
    # A fresh interpreter that never builds the hash scenario: the
    # verifier's own state names its hash.
    program = textwrap.dedent(
        """
        from foregone.kernel import Nature, World, execute
        from foregone.scenarios.common import mind, send_fixed_action
        from foregone.scenarios.hashfile import digest_verifier
        from foregone.toy_crypto import toy_hash

        world = World(nature=Nature(), respondent=mind("bystander"))
        for collision in (None, (b"q3-report", b"shadow-q3")):
            verifier = digest_verifier(collision, toy_hash(None, b"q3-report"))
            for sent in (b"q3-report", b"shadow-q3"):
                action = send_fixed_action("send-file", sent)
                print(execute(verifier, action, world, 0).transcript.verdict.value)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(foregone.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["Accept", "Reject", "Accept", "Accept"]


def test_hash_collision_cell_has_equal_digests_but_different_bytes(registry):
    scenario = registry["hash"]
    check = scenario.find_check("counterexample", "colliding")
    verdict, report = run_check(scenario, check, FEW_SEEDS)
    assert verdict == FAILS
    cell = report.counterexample
    assert cell.world == "collision-partner-file"
    # replay the dichotomy: produced bytes differ from the target file,
    # yet both hash to the published digest
    pair = (b"q3-report", b"shadow-q3")
    produced = b"q3-report"
    target_file = run_target(
        scenario.target, scenario.evidences["colliding"].world(cell.world), 0
    ).output
    assert produced != target_file
    assert toy_hash(pair, produced) == toy_hash(pair, target_file)


def test_decommit_equivocation_cell_names_the_chosen_message(registry):
    scenario = registry["decommit"]
    check = scenario.find_check("counterexample", "weak")
    verdict, report = run_check(scenario, check, FEW_SEEDS)
    assert verdict == FAILS
    cell = report.counterexample
    assert (cell.world, cell.action) == ("openable-box", "open-to-chosen-message")
    assert cell.got == '"red-page"'
    assert cell.expected == '"ledger42"'


def test_decommit_composed_recovery_complements_the_secret(registry):
    scenario = registry["decommit"]
    check = scenario.find_check("entailment", "composed")
    verdict, report = run_check(scenario, check, FEW_SEEDS)
    assert verdict == HOLDS
    # the composed target really is the bitwise complement
    from foregone.toy_crypto import complement

    world = scenario.evidences["strong"].world("sealed-box")
    composed = run_target(check.target, world, 0).output
    plain = run_target(scenario.target, world, 0).output
    assert composed == complement(plain)


def test_otp_table_layout(registry):
    scenario = registry["otp-table"]
    expected_cells = {
        "probe-unknown-goal/secret-own-key": HOLDS,
        "probe-unknown-goal/secret-fixed-key": HOLDS,
        "probe-random/secret-sampled-key": HOLDS,
        "probe-unknown-goal/known-own-key": HOLDS,
        "entailment/known-fixed-key": HOLDS,
        "probe-random/known-sampled-key": HOLDS,
        "entailment/known-derandomized": HOLDS,
    }
    expectations = {check.id: check.expected for check in scenario.checks}
    for check_id, expected in expected_cells.items():
        assert expectations[check_id] == expected


# 16 seeds under each of which the coin target draws the same tape bit
# (chance 2^-15 for a list of 16)
_ONE_SIDED_COIN_SEEDS = (
    1339976358, 1700622100, 1027869820, 1649524026, 4325349, 482528858,
    857373407, 710431008, 225529579, 2017110884, 1939002612, 71064048,
    1744533108, 1649147586, 1460163002, 279350042,
)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="known defect: probe-random reads the coin's support from the "
    "sampled seeds, and these seeds all draw one side, so it reports "
    "HypothesisViolated",
)
def test_the_coin_probe_holds_under_seeds_that_draw_one_side(registry):
    scenario = registry["unknown-goal"]
    check = scenario.find_check("probe-random", "coin")
    assert run_check(scenario, check, _ONE_SIDED_COIN_SEEDS)[0] == HOLDS


def test_equivocable_commitment_answer_sets_coincide(registry):
    scenario = registry["unknown-goal"]
    check = scenario.find_check("probe-unknown-goal", "commitment-pinned-equivocable")
    verdict, report = run_check(scenario, check, FEW_SEEDS)
    assert verdict == HYPOTHESIS_VIOLATED
    assert check.languages["holder-a"] == check.languages["holder-b"]
    # the gate compares no cell and runs nothing, so no run read a tape
    shared = sorted(render_value(member) for member in check.languages["holder-a"])
    assert len(shared) == 256
    assert report.verdict is CheckVerdict.HYPOTHESIS_VIOLATED
    assert report.cells_checked == 0
    assert report.notes == (
        f"languages share {shared}; the unknown-goal hypothesis requires an empty intersection",
        SEED_FREE_NOTE,
    )


def test_xor_pad_languages_cover_every_commitment(registry):
    scenario = registry["unknown-goal"]
    check = scenario.find_check("probe-unknown-goal", "commitment-pinned-equivocable")
    world = scenario.evidences["commitment"].world("holder-a")
    fresh = run_target(scenario.checks[2].target, world, 0).output  # a fresh xor-pad commitment
    assert any(same_value(fresh, member) for member in check.languages["holder-a"])


# --- languages are computed where they are read -------------------------------------


def _count_commitment_work(monkeypatch) -> dict[str, int]:
    """Count ``openable_commitments`` calls, the xor-pad ``commit`` calls
    they make, and calls to the xor-pad scheme's ``check`` and
    ``equivocate``, from here on.  The cells' own commitments are not
    counted."""
    counts = {
        "openable_commitments": 0,
        "xor-pad commit": 0,
        "xor-pad check": 0,
        "xor-pad equivocate": 0,
    }
    real_openable = CommitmentScheme.openable_commitments
    real_check = CommitmentScheme.check
    xor_pad = SCHEMES["xor-pad"]
    in_language = []

    def openable(self, *args):
        counts["openable_commitments"] += 1
        in_language.append(True)
        try:
            return real_openable(self, *args)
        finally:
            in_language.pop()

    def commit(*args):
        counts["xor-pad commit"] += bool(in_language)
        return xor_pad.commit(*args)

    def check(self, *args):
        counts["xor-pad check"] += self is counted
        return real_check(self, *args)

    def equivocate(*args):
        counts["xor-pad equivocate"] += 1
        return xor_pad.equivocate(*args)

    monkeypatch.setattr(CommitmentScheme, "openable_commitments", openable)
    monkeypatch.setattr(CommitmentScheme, "check", check)
    counted = CommitmentScheme(xor_pad.name, commit, xor_pad.binding_class, equivocate)
    monkeypatch.setitem(SCHEMES, "xor-pad", counted)
    return counts


def test_commitment_languages_are_computed_once_by_the_probe_that_reads_them(
    monkeypatch,
):
    counts = _count_commitment_work(monkeypatch)
    scenario = build_registry()["unknown-goal"]
    assert counts["openable_commitments"] == 0
    counts["xor-pad check"] = 0  # decommit's evidence audit opens its xor-pad box
    equivocable = scenario.find_check(
        "probe-unknown-goal", "commitment-pinned-equivocable"
    )
    # each of the 2 languages commits its secret with each of the 256
    # openings, and calls neither check nor equivocate
    languages = {
        "openable_commitments": 2,
        "xor-pad commit": 512,
        "xor-pad check": 0,
        "xor-pad equivocate": 0,
    }
    for _ in range(2):  # the second run reads the languages the first kept
        assert run_check(scenario, equivocable, FEW_SEEDS)[0] == HYPOTHESIS_VIOLATED
        assert counts == languages
    pinned = scenario.find_check("probe-unknown-goal", "commitment-pinned")
    assert run_check(scenario, pinned, FEW_SEEDS)[0] == HOLDS
    assert counts == {**languages, "openable_commitments": 4}


def _keyed(languages):
    return {label: {value_key(v) for v in language} for label, language in languages.items()}


def test_overridden_parameters_reach_the_languages():
    params = {
        "place_b": b"Rome",
        "secret_a": b"\x05",
        "secret_b": b"\x07",
        "pinned_coin": b"\x09",
    }
    scenario = build_scenario("unknown-goal", params)
    secrets = (params["secret_a"], params["secret_b"])
    expected = {
        "whereabouts": {"was-in-boston": {b"Boston"}, "was-in-paris": {b"Rome"}},
    }
    for evidence, scheme in (
        ("commitment-pinned", "transparent"),
        ("commitment-pinned-equivocable", "xor-pad"),
    ):
        expected[evidence] = {
            label: SCHEMES[scheme].openable_commitments(secret, secrets, byte_domain())
            for label, secret in zip(("holder-a", "holder-b"), secrets)
        }
    got = {
        evidence: _keyed(scenario.find_check("probe-unknown-goal", evidence).languages)
        for evidence in expected
    }
    assert got == {evidence: _keyed(by_world) for evidence, by_world in expected.items()}
    assert got["commitment-pinned"]["holder-a"] == {value_key(b"C|\x05")}


def test_no_two_checks_share_a_language_dict():
    first = build_scenario("unknown-goal")
    second = build_scenario("unknown-goal")
    copied = copy.deepcopy(first)  # before anything has read the languages
    for check in first.checks:
        if check.kind != "probe-unknown-goal":
            continue
        labels = set(check.languages)
        assert len(labels) == 2
        kept = sorted(labels)[1]
        check.languages = Languages({kept: check.languages[kept]})
        assert set(check.languages) == {kept}
        for other in (second, copied):
            assert set(other.find_check(check.kind, check.evidence).languages) == labels


def test_a_check_s_languages_refuse_an_in_place_change_but_take_a_new_value():
    check = build_scenario("unknown-goal").find_check("probe-unknown-goal", "whereabouts")
    languages = check.languages
    assert type(languages) is Languages
    with pytest.raises(TypeError):
        languages["was-in-boston"] = ()
    with pytest.raises(TypeError):
        del languages["was-in-boston"]
    assert check.languages is languages
    given = {"was-in-boston": {b"Boston"}}
    check.languages = Languages(given)
    given["was-in-paris"] = {b"Paris"}  # the value holds a copy of what it was given
    assert type(check.languages) is Languages
    assert dict(check.languages) == {"was-in-boston": (b"Boston",)}
    check.languages = None
    assert check.languages is None


# --- tampering is detected ----------------------------------------------------------


def _noop(ctx, _arg):
    from foregone.values import ABSENT

    return ABSENT


def test_disabling_the_duress_interface_breaks_the_expected_counterexample():
    scenario = changed_device(
        build_scenario("deniable"),
        3,
        lambda device: changed_methods(device, duress=_noop) if "duress" in device.methods else device,
    )
    check = scenario.find_check("counterexample", "weak")
    verdict, _report = run_check(scenario, check, FEW_SEEDS)
    assert verdict != check.expected  # the audit would flag this build


def test_scenarios_rebuild_cleanly_under_parameter_overrides():
    scenario = build_scenario(
        "password", {"pwd": b"opensesame", "message": b"shoebox"}
    )
    rows = [
        (check.id, run_check(scenario, check, FEW_SEEDS)[0], check.expected)
        for check in scenario.checks
    ]
    assert all(verdict == expected for _, verdict, expected in rows)


def test_audit_rows_are_deterministic(registry):
    first = audit_rows(registry)
    second = audit_rows(registry)
    key_fields = (
        "scenario",
        "check",
        "evidence",
        "verdict",
        "expected",
        "citation",
    )
    assert [{k: r[k] for k in key_fields} for r in first] == [
        {k: r[k] for k in key_fields} for r in second
    ]
