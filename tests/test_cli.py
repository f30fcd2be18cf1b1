from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foregone
import foregone.cli as cli
import foregone.refinement as refinement
import foregone.scenarios.password as password
import foregone.toy_crypto as toy_crypto

from foregone.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_MATCH,
    EXIT_MISMATCH,
    cmd_list,
    cmd_run,
    main,
    parse_overrides,
    parse_override_value,
    parse_seed_list,
    toy_sweeps,
)
from foregone.checkers import ActionFamily
from foregone.evidence import Evidence
from foregone.kernel import Machine, Nature, World, run_target
from foregone.refinement import ProbeSpec
from foregone.scenarios import (
    BUILDERS,
    build_registry,
    build_scenario,
    run_check,
    scenario_names,
)
from foregone.scenarios.base import HOLDS, Scenario, ScenarioCheck
from foregone.scenarios.common import (
    accept_any_verifier,
    do_nothing_action,
    first_message_post,
    mind,
)
from foregone.toy_crypto import otp
from foregone.values import ABSENT

SEEDS_FLAG = "0,1,2,3"
GOLDEN = Path(__file__).parent / "golden"

REPORT_FIELDS = [
    "scenario",
    "check",
    "evidence",
    "verdict",
    "expected",
    "counterexample",
    "cells",
    "seeds",
    "budget",
    "citation",
]


# --- configuration parsing ---------------------------------------------------------


def test_seed_list_parsing():
    assert parse_seed_list("0, 7,15") == (0, 7, 15)
    assert parse_seed_list("0,18446744073709551615") == (0, 2**64 - 1)
    # a repeated seed, or one outside 0..2**64-1 that the tapes would wrap, is refused
    for text in ("", "1,zebra", "1,1", "0,3,0", "-1", "0,18446744073709551616"):
        with pytest.raises(ConfigError):
            parse_seed_list(text)
    # int would read these as 3, 10, 5 and 5
    for text in ("٣", "1_0", "+5", "0,５"):
        with pytest.raises(ConfigError, match=r"^bad seed list .* is not an integer$"):
            parse_seed_list(text)
    for text, seed in (("-1", -1), ("0,18446744073709551616", 2**64)):
        with pytest.raises(ConfigError) as raised:
            parse_seed_list(text)
        assert str(raised.value) == f"seed {seed} in {text!r} is outside 0..2**64-1"


def test_a_repeated_seed_is_named_by_its_first_place_in_the_list():
    for text, named in (("1,2,2,1", 1), ("3,1,2,2", 2), ("5,2**70,5", 5)):
        text = text.replace("2**70", str(2**70))
        with pytest.raises(ConfigError) as raised:
            parse_seed_list(text)
        assert str(raised.value) == f"seed list {text!r} repeats seed {named}"
    with pytest.raises(ConfigError, match="is outside"):
        parse_seed_list(f"{2**70},5,5")


def test_a_long_seed_list_parses_in_linear_time():
    # Ten times the seeds must take well under a hundred times as long,
    # which a quadratic parse would; the best of three runs damps noise.
    def parse_s(count):
        text = ",".join(str(seed) for seed in range(count))
        spent = []
        for _ in range(3):
            start = time.perf_counter()
            assert parse_seed_list(text) == tuple(range(count))
            spent.append(time.perf_counter() - start)
        return min(spent)

    assert parse_s(30_000) < 30 * parse_s(3_000)


def test_a_repeated_seed_is_a_config_error_from_the_flag_and_the_environment(
    capsys, monkeypatch
):
    argv = ["run", "password", "--check", "entailment", "--evidence", "weak", "--json"]
    assert main(argv + ["--seeds", "1,1"]) == EXIT_CONFIG
    monkeypatch.setenv("FOREGONE_SEED", "1,1")
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed list '1,1' repeats seed 1\n" * 2


@pytest.mark.parametrize(
    "flag, text",
    [(flag, text) for flag in ("--seeds", "--budget") for text in ("٣", "1_0", "+5")],
)
def test_an_integer_only_int_would_read_is_refused_from_the_flags_and_the_environment(
    flag, text, capsys, monkeypatch
):
    # main refuses both flags itself: one error line each, not argparse's usage block
    argv = ["run", "password", "--check", "demonstrability", "--evidence", "weak"]
    assert main(argv + [flag, text]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and repr(text) in captured.err
    if flag == "--seeds":
        monkeypatch.setenv("FOREGONE_SEED", text)
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == captured.err


def test_override_value_parsing():
    assert parse_override_value("0x68756e74") == b"hunt"
    assert parse_override_value("12345") == 12345
    assert parse_override_value("-3") == -3
    with pytest.raises(ConfigError):
        parse_override_value("0xzz")
    with pytest.raises(ConfigError):
        parse_override_value("not-a-value")
    # int refuses the first two and would read the rest as 5, 3, 5 and 10
    for text in ("--5", "²", "５", "٣", "+5", "1_0"):
        with pytest.raises(ConfigError, match="is neither an integer"):
            parse_override_value(text)


def test_an_override_that_only_looks_like_an_integer_is_a_config_error(tmp_path, capsys):
    overrides = tmp_path / "params.txt"
    overrides.write_text("decommit.secret = --5\n")
    assert main(["run", "decommit", "--overrides", str(overrides)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: override value '--5'")


def test_overrides_file_parsing():
    text = """
    # comment line
    password.pwd = 0x636174
    password.message = 0x6d656f77

    hybrid.content = 0x00ff
    """
    parsed = parse_overrides(text)
    assert parsed == {
        "password": {"pwd": b"cat", "message": b"meow"},
        "hybrid": {"content": b"\x00\xff"},
    }
    with pytest.raises(ConfigError):
        parse_overrides("no-dot = 5")
    with pytest.raises(ConfigError):
        parse_overrides("just a line")


# --- list --------------------------------------------------------------------------


def test_list_names_every_scenario(capsys):
    assert main(["list"]) == EXIT_MATCH
    out = capsys.readouterr().out
    for name in (
        "password",
        "deniable",
        "hybrid",
        "twofactor",
        "hash",
        "decommit",
        "otp-table",
        "unknown-goal",
    ):
        assert name in out


def test_list_json_carries_names_and_citations(capsys):
    assert main(["list", "--json"]) == EXIT_MATCH
    payload = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in payload]
    assert "password" in names and "otp-table" in names
    first_check = payload[0]["checks"][0]
    assert set(first_check) == {"check", "evidence", "expected", "citation"}


def test_list_json_matches_the_golden_file(capsys):
    # Pins every scenario's registered checks, expected verdicts and
    # citations; regenerate it only for a change that moves them on purpose.
    assert main(["list", "--json"]) == EXIT_MATCH
    assert capsys.readouterr().out.encode() == (GOLDEN / "list.json").read_bytes()


def test_empty_registry_is_a_diagnosed_config_error(capsys):
    assert cmd_list({}, as_json=False) == EXIT_CONFIG
    assert "empty" in capsys.readouterr().err


# --- run ---------------------------------------------------------------------------


def test_run_reports_in_the_fixed_schema(capsys):
    code = main(
        [
            "run",
            "password",
            "--check",
            "entailment",
            "--evidence",
            "strong",
            "--seeds",
            SEEDS_FLAG,
            "--json",
        ]
    )
    assert code == EXIT_MATCH
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == REPORT_FIELDS
    assert payload["verdict"] == payload["expected"] == "Holds"
    assert payload["counterexample"] is None
    assert payload["seeds"] == [0, 1, 2, 3]


def test_run_surfaces_the_expected_counterexample(capsys):
    code = main(
        [
            "run",
            "deniable",
            "--check",
            "counterexample",
            "--seeds",
            SEEDS_FLAG,
            "--json",
        ]
    )
    assert code == EXIT_MATCH  # Fails was the expected verdict
    payload = json.loads(capsys.readouterr().out)
    cell = payload["counterexample"]
    assert (cell["world"], cell["action"], cell["seed"]) == (
        "deniable",
        "use-duress-password",
        0,
    )
    assert set(cell) == {"world", "action", "seed", "expected_value", "got_value"}


def test_run_audit_all_summarizes_a_scenario(capsys):
    code = main(["run", "otp-table", "--seeds", "0,1", "--json"])
    assert code == EXIT_MATCH
    payload = json.loads(capsys.readouterr().out)
    assert payload["mismatches"] == 0
    assert len(payload["reports"]) == 7


def test_run_exit_codes_for_config_errors(capsys):
    assert main(["run", "no-such-scenario"]) == EXIT_CONFIG
    assert main(["run", "password", "--check", "entailment", "--evidence", "bogus"]) == (
        EXIT_CONFIG
    )
    assert main(["run", "password", "--seeds", ""]) == EXIT_CONFIG
    assert main(["run", "password", "--budget", "0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_evidence_without_a_check_is_refused(capsys):
    assert main(["run", "password", "--evidence", "nope"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --evidence needs --check KIND\n"


@pytest.mark.parametrize("command", [["run", "password"], ["audit"]])
def test_an_out_path_that_cannot_be_written_is_a_config_error(command, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(command + ["--seeds", "0,1", "--out", str(target)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {str(target)!r}: ")
    assert not target.parent.exists()


def test_verdict_mismatch_exits_one(registry, capsys):
    scenario = copy.deepcopy(registry["hybrid"])
    scenario.find_check("entailment", "strong").expected = "Fails"
    code = cmd_run(
        scenario,
        "entailment",
        "strong",
        (0, 1),
        100_000,
        as_json=True,
        out_path=None,
    )
    assert code == EXIT_MISMATCH
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Holds" and payload["expected"] == "Fails"


def test_run_respects_the_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("FOREGONE_SEED", "3,4")
    code = main(["run", "hybrid", "--check", "entailment", "--evidence", "strong", "--json"])
    assert code == EXIT_MATCH
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [3, 4]


def test_run_with_overrides_file(tmp_path, capsys):
    overrides = tmp_path / "params.txt"
    overrides.write_text("password.pwd = 0x6f70656e\npassword.message = 0x626f78\n")
    code = main(
        [
            "run",
            "password",
            "--check",
            "demonstrability",
            "--evidence",
            "weak",
            "--seeds",
            "0,1",
            "--overrides",
            str(overrides),
            "--json",
        ]
    )
    assert code == EXIT_MATCH
    assert json.loads(capsys.readouterr().out)["verdict"] == "Holds"


def test_unknown_override_parameter_is_a_config_error(tmp_path, capsys):
    overrides = tmp_path / "params.txt"
    overrides.write_text("password.volume = 11\n")
    assert main(["run", "password", "--overrides", str(overrides)]) == EXIT_CONFIG
    assert "volume" in capsys.readouterr().err


def test_override_of_the_wrong_type_is_a_config_error(tmp_path, capsys):
    overrides = tmp_path / "params.txt"
    overrides.write_text("password.pwd = 5\n")
    assert main(["run", "password", "--overrides", str(overrides)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "password.pwd" in err
    assert "bytes" in err and "int" in err


def test_equal_hash_collision_witnesses_are_a_config_error(tmp_path, capsys):
    overrides = tmp_path / "params.txt"
    overrides.write_text("hash.file = 0x61\nhash.collision_partner = 0x61\n")
    assert main(["run", "hash", "--overrides", str(overrides)]) == EXIT_CONFIG
    assert "hash.file and hash.collision_partner must differ" in capsys.readouterr().err


def test_a_fault_in_machine_code_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    def hoard(ctx, _arg):
        ctx.state["seen"] = []
        return ABSENT

    scenario = copy.deepcopy(registry["hybrid"])
    scenario.exemplar = Machine(id="hoarder", methods={"run": hoard})
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    code = main(["run", "hybrid", "--check", "demonstrability", "--seeds", "0,1"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hybrid demonstrability/weak: ")
    assert "'hoarder'" in captured.err and "'seen'" in captured.err


def test_a_check_given_inputs_outside_its_contract_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    scenario = copy.deepcopy(registry["unknown-goal"])
    check = next(c for c in scenario.checks if c.id == "probe-unknown-goal/commitment-pinned")
    check.languages = {"holder-a": check.languages["holder-a"]}
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    argv = ["run", "unknown-goal", "--check", "probe-unknown-goal", "--seeds", "0,1"]
    code = main(argv + ["--evidence", "commitment-pinned"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown-goal probe-unknown-goal/commitment-pinned: "
        "worlds without languages: ['holder-b']\n"
    )


def test_a_language_member_that_cannot_be_hashed_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    scenario = copy.deepcopy(registry["unknown-goal"])
    check = next(c for c in scenario.checks if c.id == "probe-unknown-goal/whereabouts")
    check.language_source = lambda: {"was-in-boston": (b"Boston",), "was-in-paris": ([1],)}
    check.__dict__.pop("_languages", None)  # read on the check's first run
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    argv = ["run", "unknown-goal", "--check", "probe-unknown-goal", "--seeds", "0,1"]
    code = main(argv + ["--evidence", "whereabouts"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown-goal probe-unknown-goal/whereabouts: "
        "world 'was-in-paris': language members ['[1]'] are not values\n"
    )


def _missing_languages():
    raise KeyError("wanted")


def test_a_language_source_that_raises_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    scenario = copy.deepcopy(registry["unknown-goal"])
    check = next(c for c in scenario.checks if c.id == "probe-unknown-goal/whereabouts")
    check.language_source = _missing_languages
    check.__dict__.pop("_languages", None)  # read on the check's first run
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    argv = ["run", "unknown-goal", "--check", "probe-unknown-goal", "--seeds", "0,1"]
    assert main(argv + ["--evidence", "whereabouts"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown-goal probe-unknown-goal/whereabouts: check "
        "'probe-unknown-goal/whereabouts': its language source raised KeyError: 'wanted'\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["audit", "--budget", "5"],
            "twofactor entailment/strong: no action conforms in any world",
        ),
        (
            ["run", "password", "--check", "entailment", "--evidence", "weak", "--budget", "1"],
            "password entailment/weak: no action conforms in any world",
        ),
        (
            ["audit", "--seeds", "0"],
            "otp-table probe-random/secret-sampled-key: the target reads a tape, "
            "and one seed cannot show a target output support of size >= 2",
        ),
        (
            ["run", "unknown-goal", "--seeds", "1"],
            "unknown-goal probe-random/coin: the target reads a tape, "
            "and one seed cannot show a target output support of size >= 2",
        ),
    ],
)
def test_a_verdict_that_would_rest_on_nothing_is_a_config_error(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_unknown_goal_check_without_languages_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    scenario = copy.deepcopy(registry["unknown-goal"])
    scenario.find_check("probe-unknown-goal", "whereabouts").languages = None
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    argv = ["run", "unknown-goal", "--check", "probe-unknown-goal", "--seeds", "0,1"]
    assert main(argv + ["--evidence", "whereabouts"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown-goal probe-unknown-goal/whereabouts: "
        "worlds without languages: ['was-in-boston', 'was-in-paris']\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "unknown-goal", "--check", "probe-unknown-goal"]
            + ["--evidence", "commitment-pinned-equivocable"],
            "error: unknown-goal probe-unknown-goal/commitment-pinned-equivocable: "
            "key length 2 != message length 1\n",
        ),
        # the audit meets the mismatch first inside the kernel, in an
        # earlier unknown-goal check that sends a commitment
        (
            ["audit"],
            "error: unknown-goal probe-random/commitment: world 'holder-a', "
            "action 'send-a-commitment+zero-coins', seed 0: machine "
            "'send-a-commitment+zero-coins' method 'run' raised LengthMismatchError: "
            "key length 2 != message length 1\n",
        ),
    ],
    ids=["run", "audit"],
)
def test_a_secret_the_commitment_scheme_cannot_take_is_a_config_error_naming_the_check(
    tmp_path, capsys, argv, message
):
    overrides = tmp_path / "params.txt"
    overrides.write_text("unknown-goal.secret_a = 0x1133\n")
    assert main(argv + ["--seeds", "0,1", "--overrides", str(overrides)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "override, message",
    [
        (
            "decommit.secret = 0x11",
            "'decommit' cannot be built: key length 1 != message length 8",
        ),
        (
            "decommit.pad_opening = 0x11",
            "'decommit' cannot be built: key length 8 != message length 1",
        ),
        (
            "otp-table.key_a = 0x1122",
            "'otp-table' cannot be built: key length 2 != message length 1",
        ),
        (
            "otp-table.secret_a = 0x1122",
            "'otp-table' cannot be built: key length 1 != message length 2",
        ),
    ],
)
@pytest.mark.parametrize("command", ["list", "run", "audit"])
def test_an_override_a_toy_primitive_refuses_at_build_is_a_config_error_naming_the_scenario(
    tmp_path, capsys, override, message, command
):
    overrides = tmp_path / "params.txt"
    overrides.write_text(override + "\n")
    argv = {
        "list": ["list"],
        "run": ["run", override.split(".")[0], "--check", "audit-all", "--seeds", "0,1"],
        "audit": ["audit", "--seeds", "0,1"],
    }[command]
    assert main(argv + ["--overrides", str(overrides)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scenario {message}\n"


@pytest.mark.parametrize(
    "chosen, message",
    [
        *(
            (
                b"\x00" * length,
                "scenario 'decommit' cannot be built: decommit.chosen length "
                f"{length} != lodged commitment length 8",
            )
            for length in (1, 9, 16)
        ),
        (b"ledger42", "decommit.chosen and decommit.secret must differ"),
    ],
    ids=["1-byte", "9-byte", "16-byte", "the-secret"],
)
@pytest.mark.parametrize("command", ["list", "run", "audit"])
def test_a_chosen_message_the_weak_family_cannot_equivocate_to_is_a_config_error(
    tmp_path, capsys, chosen, message, command
):
    # Without the check, `run decommit` reported Holds against an expected
    # Fails for the weak family and exited 1, the code for a mismatch.
    overrides = tmp_path / "params.txt"
    overrides.write_text(f"decommit.chosen = 0x{chosen.hex()}\n")
    argv = {
        "list": ["list"],
        "run": ["run", "decommit", "--seeds", "0,1"],
        "audit": ["audit", "--seeds", "0,1"],
    }[command]
    assert main(argv + ["--overrides", str(overrides)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_chosen_message_of_the_lodged_commitments_length_builds(tmp_path, capsys):
    assert main(["run", "decommit", "--seeds", "0,1"]) == EXIT_MATCH
    overrides = tmp_path / "params.txt"
    overrides.write_text(f"decommit.chosen = 0x{b'blue-pg!'.hex()}\n")
    assert main(["run", "decommit", "--seeds", "0,1", "--overrides", str(overrides)]) == EXIT_MATCH
    capsys.readouterr()


@pytest.mark.parametrize(
    "body, raised",
    [
        (lambda ctx, _arg: len(ctx), "TypeError"),
        (lambda ctx, _arg: otp(b"\x01", b"\x01\x02"), "LengthMismatchError"),
    ],
    ids=["type-error", "length-mismatch"],
)
def test_an_exception_raised_by_method_code_is_a_config_error(
    registry, monkeypatch, capsys, body, raised
):
    scenario = copy.deepcopy(registry["hybrid"])
    scenario.exemplar = Machine(id="faulty", methods={"run": body})
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    code = main(["run", "hybrid", "--check", "demonstrability", "--seeds", "0,1"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hybrid demonstrability/weak: ")
    assert f"machine 'faulty' method 'run' raised {raised}: " in captured.err


def _raise_type_error(ctx, _arg):
    return len(ctx)


def _halt_without_output(ctx, _arg):
    return ABSENT


RAISED = "machine 'faulty' method 'run' raised TypeError: "


@pytest.mark.parametrize(
    "role, body, check, message",
    [
        (
            "exemplar",
            _raise_type_error,
            "demonstrability/weak",
            f"world 'plain-store', action 'faulty', seed 5: {RAISED}",
        ),
        (
            "post_processor",
            _raise_type_error,
            "entailment/strong",
            f"world 'plain-store', action 'do-nothing', seed 5: {RAISED}",
        ),
        (
            "target",
            _raise_type_error,
            "entailment/strong",
            f"world 'plain-store', target 'faulty', seed 5: {RAISED}",
        ),
        (
            "target",
            _halt_without_output,
            "entailment/strong",
            "world 'plain-store', target 'faulty', seed 5:"
            " target 'faulty' produced no output\n",
        ),
    ],
    ids=["action", "post-processor", "target", "target-without-output"],
)
def test_a_fault_in_a_cell_names_the_world_the_machine_and_the_seed(
    registry, monkeypatch, capsys, role, body, check, message
):
    scenario = copy.deepcopy(registry["hybrid"])
    setattr(scenario, role, Machine(id="faulty", methods={"run": body}))
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    kind, evidence = check.split("/")
    argv = ["run", "hybrid", "--check", kind, "--evidence", evidence, "--seeds", "5,6"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: hybrid {check}: {message}")


def test_a_probe_random_target_that_faults_before_its_witness_names_the_cell(
    registry, monkeypatch, capsys
):
    # The target outputs at seed 5 and faults at seed 6, the seed the
    # support gate reads next, before any output could differ.
    scenario = copy.deepcopy(registry["otp-table"])
    check = scenario.find_check("probe-random", "secret-sampled-key")
    world_label, world = scenario.evidences[check.evidence].worlds[0]
    draw = Machine(id="faulty", methods={"run": lambda ctx, _arg: ctx.tape.read_bytes(8)})
    first = run_target(draw, world, 5).output

    def fault_after_seed_five(ctx, _arg):
        if ctx.tape.read_bytes(8) != first:
            raise TypeError("a later seed")
        return first

    check.target = Machine(id="faulty", methods={"run": fault_after_seed_five})
    monkeypatch.setattr(cli, "build_scenario", lambda name, params: scenario)
    argv = ["run", "otp-table", "--check", "probe-random", "--evidence", check.evidence]
    assert main(argv + ["--seeds", "5,6"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: otp-table probe-random/secret-sampled-key: world {world_label!r}, "
        f"target 'faulty', seed 6: {RAISED}a later seed\n"
    )


def test_run_builds_only_the_named_scenario(monkeypatch, capsys):
    calls = {name: 0 for name in scenario_names()}
    for name, module in BUILDERS.items():

        def counted(params, _name=name, _build=module.build):
            calls[_name] += 1
            return _build(params)

        monkeypatch.setattr(module, "build", counted)
    code = main(["run", "password", "--check", "demonstrability", "--seeds", "0"])
    assert code == EXIT_MATCH
    capsys.readouterr()
    assert calls == {name: int(name == "password") for name in scenario_names()}


# --- a device method that faults on a probe letter ----------------------------------


_TRIP = b"trip"


def _guarded_read(ctx, argument):
    if argument == _TRIP:
        raise TypeError("a tripped read")
    return ctx.state["content"]


def _plain_read(ctx, _arg):
    return ctx.state["content"]


def _send_tripped_read(ctx, _arg):
    ctx.send(ctx.nature(0).call("read", _TRIP))
    return ABSENT


def _guarded_scenario(spec_read):
    """A one-world scenario whose device at slot 0 faults on ``read(_TRIP)``,
    a letter of its evidence's probe alphabet.  Its evidence asserts that
    the device implements a store whose ``read`` is ``spec_read``."""

    def build(params):
        device = Machine(
            id="guarded-store", state={"content": b"x"}, methods={"read": _guarded_read}
        )
        spec = Machine(id="store-shape", state={"content": b"?"}, methods={"read": spec_read})
        evidence = Evidence(
            name="guarded",
            assertions=(),
            worlds=(("guarded", World(Nature(slots={0: device}), mind("silent"))),),
            probe=ProbeSpec(depth=2, alphabet=(None, _TRIP)),
            partial_specs={0: spec},
        )
        exemplar = Machine(id="trip-read", methods={"run": _send_tripped_read})
        return Scenario(
            name="guarded",
            title="a device that faults on a probe letter",
            evidences={"weak": evidence},
            verifier=accept_any_verifier(),
            exemplar=exemplar,
            target=do_nothing_action(),
            post_processor=first_message_post(),
            action_family=ActionFamily(actions=(("trip-read", exemplar),)),
            checks=[ScenarioCheck("demonstrability", "weak", HOLDS, "runs the tripping read")],
        )

    return SimpleNamespace(DEFAULTS={}, build=build)


def test_a_device_compared_only_with_itself_builds_and_faults_in_the_check(
    monkeypatch, capsys
):
    # The spec rebound to the device's values has the device's content,
    # so the build decides the comparison without a walk and never runs
    # the tripping read; the check that runs it names the cell.
    monkeypatch.setattr(refinement, "_RESULTS", {})
    monkeypatch.setitem(BUILDERS, "guarded", _guarded_scenario(_guarded_read))
    assert build_scenario("guarded").name == "guarded"
    assert main(["run", "guarded", "--check", "demonstrability", "--seeds", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: guarded demonstrability/weak: world 'guarded', action 'trip-read', seed 0: "
        "machine 'guarded-store' method 'read' raised TypeError: a tripped read\n"
    )


@pytest.mark.parametrize("command", ["run", "audit"])
def test_a_device_compared_with_a_different_spec_faults_the_build(
    monkeypatch, capsys, command
):
    # The spec's read is another function, so the build walks the pair
    # and the device's read faults on the probe letter.  The walk runs
    # both sides under one probe id; the message names the device.
    monkeypatch.setattr(refinement, "_RESULTS", {})
    monkeypatch.setitem(BUILDERS, "guarded", _guarded_scenario(_plain_read))
    argv = {"run": ["run", "guarded"], "audit": ["audit"]}[command]
    assert main(argv + ["--seeds", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: scenario 'guarded' cannot be built: evidence 'guarded', world 'guarded': "
        "comparing nature[0] 'guarded-store' with 'store-shape' under bounded_implements "
        "raised TypeError: a tripped read\n"
    )


def _tripped_predicate(world):
    raise ValueError("a tripped predicate")


def test_an_evidence_predicate_that_raises_fails_the_build_naming_the_world(
    monkeypatch, capsys
):
    monkeypatch.setattr(password, "_message_present", _tripped_predicate)
    assert main(["run", "password", "--seeds", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: scenario 'password' fails its evidence audit: password-entry/locked-basic: "
        "assertion 'message-present' raised ValueError: a tripped predicate; "
    )


@pytest.mark.parametrize(
    "text, named",
    [
        ("hash.bogus = 1\n", "bogus"),
        ("deniable.pwd = 5\n", "deniable.pwd"),
        ("nowhere.pwd = 0x00\n", "nowhere"),
    ],
)
def test_overrides_of_other_scenarios_are_validated_by_run(tmp_path, capsys, text, named):
    overrides = tmp_path / "params.txt"
    overrides.write_text(text)
    assert main(["run", "password", "--overrides", str(overrides)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_unknown_scenario_names_every_known_one(capsys):
    assert main(["run", "no-such-scenario"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: unknown scenario 'no-such-scenario'; known: "
        "['decommit', 'deniable', 'hash', 'hybrid', 'otp-table', 'password',"
        " 'twofactor', 'unknown-goal']\n"
    )


@st.composite
def _edge_runs(draw):
    """A scenario, 1-3 distinct seeds, a small budget or the default, and
    0-2 byte-string overrides of that scenario's parameters."""
    name = draw(st.sampled_from(scenario_names()))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True))
    budget = draw(st.one_of(st.none(), st.integers(1, 64)))
    known = sorted(BUILDERS[name].DEFAULTS)
    params = draw(st.lists(st.sampled_from(known), max_size=2, unique=True))
    overrides = {param: draw(st.binary(min_size=1, max_size=9)) for param in params}
    return name, seeds, budget, overrides


@settings(max_examples=100, deadline=None)
@given(edge=_edge_runs())
def test_a_run_at_the_edges_exits_with_a_code_and_no_verdict_rests_on_nothing(
    tmp_path_factory, edge
):
    name, seeds, budget, overrides = edge
    path = tmp_path_factory.getbasetemp() / "edge-overrides.txt"
    path.write_text("".join(f"{name}.{p} = 0x{v.hex()}\n" for p, v in overrides.items()))
    argv = ["run", name, "--json", "--seeds", ",".join(map(str, seeds))]
    argv += ["--overrides", str(path)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_MATCH, EXIT_MISMATCH, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and name in err.getvalue()
        return
    rows = json.loads(out.getvalue())["reports"]
    assert all(row["cells"] >= 1 for row in rows if row["verdict"] == "Holds")


# --- audit -------------------------------------------------------------------------


GOLDEN_AUDIT = GOLDEN / "audit.json"


@pytest.mark.parametrize("name", scenario_names())
def test_run_audit_all_matches_the_golden_audit_rows(name, monkeypatch, capsys):
    # ``run`` builds only the named scenario; its rows must still be the
    # ones the full audit reports for that scenario.
    monkeypatch.delenv("FOREGONE_SEED", raising=False)
    assert main(["run", name, "--check", "audit-all", "--json"]) == EXIT_MATCH
    rows = json.loads(capsys.readouterr().out)["reports"]
    golden = json.loads(GOLDEN_AUDIT.read_text())["reports"]
    assert rows == [row for row in golden if row["scenario"] == name]


def test_audit_passes_and_is_byte_identical(tmp_path, monkeypatch):
    # The golden file is ``foregone audit --json`` under the default seeds:
    # a change that moves any report byte must say so and regenerate it.
    monkeypatch.delenv("FOREGONE_SEED", raising=False)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["audit", "--json", "--out", str(first)]) == EXIT_MATCH
    assert main(["audit", "--json", "--out", str(second)]) == EXIT_MATCH
    assert first.read_bytes() == second.read_bytes() == GOLDEN_AUDIT.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["mismatches"] == 0
    assert all(v == "pass" for v in payload["toy_sweeps"].values())
    assert payload["evidence_audit"] == ["pass"]


def test_audit_over_32_seeds_matches_its_golden_file(tmp_path, monkeypatch):
    # Pins the rows a longer, non-default seed list gives: cell counts
    # of 32 per tape-free cell and counterexamples at the first seed.
    monkeypatch.delenv("FOREGONE_SEED", raising=False)
    out = tmp_path / "audit.json"
    seeds = ",".join(str(seed) for seed in range(7000, 7032))
    assert main(["audit", "--json", "--seeds", seeds, "--out", str(out)]) == EXIT_MATCH
    assert out.read_bytes() == (GOLDEN / "audit-seeds-7000-7031.json").read_bytes()


def test_markdown_audit_matches_its_golden_file(tmp_path, monkeypatch):
    # The golden file is ``foregone audit`` under the default seeds.
    monkeypatch.delenv("FOREGONE_SEED", raising=False)
    out = tmp_path / "audit.md"
    assert main(["audit", "--out", str(out)]) == EXIT_MATCH
    assert out.read_bytes() == (GOLDEN / "audit.md").read_bytes()


def test_audit_bytes_do_not_depend_on_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(foregone.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        done = subprocess.run(
            [sys.executable, "-m", "foregone.cli", "audit", "--seeds", "0,1", "--json"],
            env=env,
            capture_output=True,
            check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_markdown_report_mentions_the_claim(capsys):
    code = main(
        ["run", "password", "--check", "entailment", "--evidence", "strong", "--seeds", "0,1"]
    )
    assert code == EXIT_MATCH
    out = capsys.readouterr().out
    assert "entailment on strong" in out
    assert "verdict: Holds (expected Holds)" in out


def test_toy_sweeps_all_pass():
    assert all(value == "pass" for value in toy_sweeps().values())


def test_one_toy_sweep_pass_makes_exactly_these_black_box_calls(monkeypatch):
    # each primitive is a black box to the sweeps: a binding proof over the
    # transparent scheme's 256 commitments x 256 messages x 16 openings
    # calls check 256 * (255 * 16 + 1) times.  The counters are closures of
    # this process, so the sweeps run on one worker here;
    # test_toy_crypto.py sums a two-worker sweep's calls across processes
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda: 1)
    counts: dict[str, int] = {}

    def counted(name, primitive):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return primitive(*args)

        return call

    for name, scheme in list(toy_crypto.SCHEMES.items()):
        wrapped = toy_crypto.CommitmentScheme(
            scheme.name,
            counted(f"{name} commit", scheme.commit),
            counted(f"{name} check", scheme.check),
            scheme.binding_class,
            scheme.equivocate,
        )
        monkeypatch.setitem(toy_crypto.SCHEMES, name, wrapped)
    monkeypatch.setattr(toy_crypto, "toy_hash", counted("toy_hash", toy_crypto.toy_hash))
    monkeypatch.setattr(cli, "otp", counted("otp", cli.otp))
    assert all(value == "pass" for value in toy_sweeps().values())
    assert counts == {
        "transparent check": 1_044_736,
        "transparent commit": 4_096,
        "xor-pad check": 3,
        "xor-pad commit": 4_608,
        "otp": 3_072,
        "toy_hash": 259,
    }


def test_only_the_binding_sweep_forks_a_worker(monkeypatch):
    # two workers whatever the CPUs: a registry build and every registered
    # check (the unknown-goal languages included) search in this process,
    # and of the toy sweeps only the transparent binding sweep forks,
    # since xor-pad's is decided at its first commitment
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda: 2)
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for scenario in build_registry().values():
        for check in scenario.checks:
            run_check(scenario, check)
    assert forks == []
    assert all(value == "pass" for value in toy_sweeps().values())
    assert forks == [True]


def _raising_hash(x):
    raise toy_crypto.DomainExceededError(f"no hash of {x!r} here")


def _check_raising_in_a_worker(parent: int):
    """The transparent check, but raising at the first commitment of the
    binding sweep's second half when a forked worker asks."""

    def check(c, d, x):
        if c == b"C|\x80" and os.getpid() != parent:
            raise toy_crypto.DomainExceededError(f"no opening of {c!r} here")
        return toy_crypto.TRANSPARENT.check(c, d, x)

    return check


@pytest.mark.parametrize("where", ["this process", "a worker"])
def test_a_toy_sweep_that_raises_is_a_diagnosed_config_error(where, monkeypatch, capsys):
    if where == "this process":
        monkeypatch.setattr(toy_crypto, "_worker_count", lambda: 1)
        spec = toy_crypto.HashSpec("raising", _raising_hash, (b"\x00",), True)
        monkeypatch.setattr(cli, "make_injective_hash", lambda: spec)
        message = "error: toy sweeps: no hash of b'\\x00' here\n"
    else:
        # the second half of the sorted commitments is searched in a
        # forked worker, whose exception comes back with its type and message
        monkeypatch.setattr(toy_crypto, "_worker_count", lambda: 2)
        transparent = toy_crypto.TRANSPARENT
        raising = toy_crypto.CommitmentScheme(
            transparent.name,
            transparent.commit,
            _check_raising_in_a_worker(os.getpid()),
            transparent.binding_class,
        )
        monkeypatch.setitem(toy_crypto.SCHEMES, "transparent", raising)
        message = "error: toy sweeps: no opening of b'C|\\x80' here\n"
    assert main(["audit", "--seeds", SEEDS_FLAG]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


# --- demos -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "demo", ["password_walkthrough", "counterexample_hunt", "impossibility_probes"]
)
def test_demo_output_matches_its_golden_file(demo):
    script = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(foregone.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, check=True
    )
    assert done.stdout == (GOLDEN / f"demo_{demo}.txt").read_bytes()
