"""Deniable encryption: compelled unlock with a duress interface in play.

The split verdict this scenario exists to pin down: with a deniable
device among the consistent worlds, the unlock stays demonstrable (the
true password opens the deniable device too) while recovery of the
stored message is defeated by the duress interface, which swaps in
replacement content and still passes the display check.

A second verifier checks for content the government already knows.
Against that verifier the duress performance is rejected, so over the
declared family the recovery claim comes back -- knowing the files with
particularity is what closes the deniability gap.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence, strengthen_to_full_spec
from ..refinement import ProbeSpec
from .base import FAILS, HOLDS, Scenario, ScenarioCheck
from .common import mind
from .password import (
    DEVICE_LOCATION,
    _message_present,
    _respondent_knows_password,
    _world,
    announce_action,
    decrypt_target,
    deniable_device,
    device_reading_post,
    duress_action,
    enter_twice_action,
    exemplar_action,
    known_file_verifier,
    password_device,
    retry_action,
    unlocked_verifier,
)

DEFAULTS: dict[str, Any] = {
    "pwd": b"hunter2",
    "message": b"tax-records",
    "duress_pwd": b"d00rbell",
    "replacement": b"cat-pictures",
}


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    pwd = params["pwd"]
    message = params["message"]
    weak = Evidence(
        name="password-entry-deniable",
        assertions=(
            Assertion(
                id="device-implements-prompt-read",
                text="a device at the seized location implements the"
                " password prompt/read surface",
            ),
            Assertion(
                id="respondent-knows-password",
                text="the respondent's mind yields the device password",
                holds_in=_respondent_knows_password,
            ),
            Assertion(
                id="message-present",
                text="the device stores a non-null message",
                holds_in=_message_present,
            ),
        ),
        worlds=(
            (
                "locked-basic",
                _world(password_device(pwd, message), mind("knows-password", pwd=pwd)),
            ),
            (
                "deniable",
                _world(
                    deniable_device(pwd, params["duress_pwd"], message),
                    mind(
                        "knows-both-passwords",
                        pwd=pwd,
                        duress_pwd=params["duress_pwd"],
                    ),
                ),
            ),
        ),
        probe=ProbeSpec(depth=3, alphabet=(pwd, b"wrong-guess", None)),
        partial_specs={DEVICE_LOCATION: password_device(b"?", b"?")},
    )
    strong = strengthen_to_full_spec(weak, DEVICE_LOCATION, password_device(b"?", b"?"))
    return {"weak": weak, "strong": strong}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)
    known_file = known_file_verifier(params["message"])

    exemplar = exemplar_action()
    family = ActionFamily(
        actions=(
            ("enter-password", exemplar),
            ("retry-after-typo", retry_action()),
            ("enter-password-twice", enter_twice_action()),
            ("announce-progress", announce_action()),
            ("use-duress-password", duress_action(params["replacement"])),
        ),
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="weak",
            expected=HOLDS,
            citation="The same exemplar unlock works even when a deniable"
            " device is consistent: the true password opens it too.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="weak",
            expected=FAILS,
            citation="A duress performance passes the display check while"
            " replacing the stored message, so the display check does not"
            " deliver the stored message.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="weak",
            expected=FAILS,
            citation="The defeating cell is the duress performance on the"
            " deniable device.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="strong",
            expected=HOLDS,
            citation="Ruling the duress interface out by exact-shape"
            " evidence restores recovery of the stored message.",
        ),
        ScenarioCheck(
            kind="demonstrability",
            evidence="known-file",
            expected=HOLDS,
            verifier=known_file,
            citation="Checking for content the government already knows is"
            " still demonstrable with the same exemplar.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="known-file",
            expected=HOLDS,
            verifier=known_file,
            citation="Checking for known content rejects the duress"
            " performance, so recovery holds over the declared family even"
            " against the deniable device.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="weak-to-strong",
            expected=HOLDS,
            edge=("weak", "strong"),
            citation="Adding the exact-shape evidence never breaks the"
            " demonstrated unlock.",
        ),
    ]

    evidences["known-file"] = evidences["weak"]

    return Scenario(
        name="deniable",
        title="deniable encryption and the duress password",
        evidences=evidences,
        verifier=unlocked_verifier(),
        exemplar=exemplar,
        target=decrypt_target(),
        post_processor=device_reading_post(),
        action_family=family,
        checks=checks,
    )
