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
from foregone.values import ABSENT

SEEDS_FLAG = "0,1,2,3"

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
    with pytest.raises(ConfigError):
        parse_seed_list("")
    with pytest.raises(ConfigError):
        parse_seed_list("1,zebra")


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
    tampered = dict(registry)
    scenario = copy.deepcopy(registry["hybrid"])
    scenario.find_check("entailment", "strong").expected = "Fails"
    tampered["hybrid"] = scenario
    code = cmd_run(
        tampered,
        "hybrid",
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


def test_a_fault_in_machine_code_is_a_config_error_naming_the_check(
    registry, monkeypatch, capsys
):
    def hoard(ctx, _arg):
        ctx.state["seen"] = []
        return ABSENT

    tampered = dict(registry)
    scenario = copy.deepcopy(registry["hybrid"])
    scenario.exemplar = Machine(id="hoarder", methods={"run": hoard})
    tampered["hybrid"] = scenario
    monkeypatch.setattr(cli, "build_registry", lambda overrides: tampered)
    code = main(["run", "hybrid", "--check", "demonstrability", "--seeds", "0,1"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hybrid demonstrability/weak: ")
    assert "'hoarder'" in captured.err and "'seen'" in captured.err


# --- audit -------------------------------------------------------------------------


GOLDEN_AUDIT = Path(__file__).parent / "golden" / "audit.json"


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
