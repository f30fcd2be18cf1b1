from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foregone
import foregone.cli as cli

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
from foregone.kernel import Machine
from foregone.scenarios import BUILDERS, scenario_names
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


def test_override_value_parsing():
    assert parse_override_value("0x68756e74") == b"hunt"
    assert parse_override_value("12345") == 12345
    assert parse_override_value("-3") == -3
    with pytest.raises(ConfigError):
        parse_override_value("0xzz")
    with pytest.raises(ConfigError):
        parse_override_value("not-a-value")


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
