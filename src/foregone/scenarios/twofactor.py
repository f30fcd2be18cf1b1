"""Two-factor unlock: a password plus a code fetched from a second device.

The primary device releases its message only after the right password
is entered and the ephemeral code it pushed to the paired second device
is typed back.  The government need not know where the second device
lives; the respondent's mind discloses its location, and the exemplar
fetches the code from there.

Demonstrability holds on the shape-implementation evidence.  Recovery
of the stored message is claimed on the exact-shape evidence for both
devices; on the weaker evidence a primary device with an extra write
method defeats it, same pitfall as the plain store scenario.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence, strengthen_to_full_spec
from ..kernel import Machine, Nature, World
from ..refinement import ProbeSpec
from ..values import ABSENT, Location
from .base import FAILS, HOLDS, Scenario, ScenarioCheck
from .common import mind
from .password import (
    DEVICE_LOCATION,
    _message_present,
    _read,
    _respondent_knows_password,
    _verifier_run,
    device_reading_post,
)

SECOND_LOCATION = 9

DEFAULTS: dict[str, Any] = {
    "pwd": b"p@ss-one",
    "message": b"blueprints",
    "code": b"42-42-42",
    "alt_pwd": b"p@ss-two",
    "alt_message": b"diary",
    "alt_code": b"77-00-77",
    "planted": b"forged-page",
}


# --- devices ------------------------------------------------------------------


def _prompt_pwd(ctx, attempt):
    if attempt == ctx.state["pwd"]:
        ctx.state["got_pwd"] = True
        ctx.nature(ctx.state["second_loc"]).call("set_code", ctx.state["code_value"])
    return ABSENT


def _prompt_code(ctx, code):
    if ctx.state["got_pwd"] and code == ctx.state["code_value"]:
        ctx.state["unlocked"] = True
    return ABSENT


def _write(ctx, new_message):
    ctx.state["message"] = new_message
    return ABSENT


def twofactor_device(pwd: bytes, message: bytes, code: bytes) -> Machine:
    return Machine(
        id="two-factor-device",
        state={
            "pwd": pwd,
            "message": message,
            "code_value": code,
            "second_loc": SECOND_LOCATION,
            "got_pwd": False,
            "unlocked": False,
        },
        methods={"prompt_pwd": _prompt_pwd, "prompt_code": _prompt_code, "read": _read},
    )


def writable_twofactor_device(pwd: bytes, message: bytes, code: bytes) -> Machine:
    shaped = twofactor_device(pwd, message, code)
    return Machine(
        id="two-factor-device-writable",
        state=shaped.state,
        methods={**shaped.methods, "write": _write},
    )


def _set_code(ctx, value):
    ctx.state["code"] = value
    return ABSENT


def _get_code(ctx, _arg):
    return ctx.state["code"]


def second_device() -> Machine:
    """Receives the ephemeral code; yields ⊥ until one arrives."""
    return Machine(
        id="second-device",
        state={"code": None},
        methods={"set_code": _set_code, "get_code": _get_code},
    )


# --- verifier, actions, target ---------------------------------------------


def _unlock(ctx) -> bool:
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return False
    ctx.nature(DEVICE_LOCATION).call("prompt_pwd", pwd)
    where = ctx.respondent.call("find_second")
    if where is ABSENT:
        return False
    code = ctx.nature(where).call("get_code")
    ctx.nature(DEVICE_LOCATION).call("prompt_code", code)
    return True


def _exemplar_run(ctx, _arg):
    _unlock(ctx)
    return ABSENT


def _wrong_code_first_run(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("prompt_pwd", pwd)
    ctx.nature(DEVICE_LOCATION).call("prompt_code", b"not-the-code")
    where = ctx.respondent.call("find_second")
    if where is ABSENT:
        return ABSENT
    code = ctx.nature(where).call("get_code")
    ctx.nature(DEVICE_LOCATION).call("prompt_code", code)
    return ABSENT


def _report_run(ctx, _arg):
    if _unlock(ctx):
        ctx.send(ctx.nature(DEVICE_LOCATION).call("read"))
    return ABSENT


def _tamper_run(ctx, _arg):
    if _unlock(ctx):
        ctx.nature(DEVICE_LOCATION).call("write", ctx.state["planted"])
    return ABSENT


def _target_run(ctx, _arg):
    if not _unlock(ctx):
        return None
    return ctx.nature(DEVICE_LOCATION).call("read")


# --- evidence -----------------------------------------------------------------


def _respondent_finds_second(world: World) -> bool:
    where = world.respondent.state.get("find_second")
    return isinstance(where, Location) and where.index in world.nature.slots


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    def world(device: Machine, pwd: bytes) -> World:
        return World(
            nature=Nature(slots={DEVICE_LOCATION: device, SECOND_LOCATION: second_device()}),
            respondent=mind(
                "account-holder", pwd=pwd, find_second=Location(SECOND_LOCATION)
            ),
        )

    weak = Evidence(
        name="two-factor-unlock",
        assertions=(
            Assertion(
                id="device-implements-two-factor",
                text="the seized device implements the password/code/read surface",
            ),
            Assertion(
                id="second-device-reachable",
                text="the respondent can locate the paired second device",
                holds_in=_respondent_finds_second,
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
                "office",
                world(
                    twofactor_device(params["pwd"], params["message"], params["code"]),
                    params["pwd"],
                ),
            ),
            (
                "home",
                world(
                    twofactor_device(
                        params["alt_pwd"], params["alt_message"], params["alt_code"]
                    ),
                    params["alt_pwd"],
                ),
            ),
            (
                "tamperable",
                world(
                    writable_twofactor_device(
                        params["pwd"], params["message"], params["code"]
                    ),
                    params["pwd"],
                ),
            ),
        ),
        probe=ProbeSpec(depth=2, alphabet=(params["pwd"], params["code"], None)),
        partial_specs={
            DEVICE_LOCATION: twofactor_device(b"?", b"?", b"?"),
            SECOND_LOCATION: second_device(),
        },
    )
    strong = strengthen_to_full_spec(
        weak, DEVICE_LOCATION, twofactor_device(b"?", b"?", b"?")
    )
    strong = strengthen_to_full_spec(strong, SECOND_LOCATION, second_device())
    return {"weak": weak, "strong": strong}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)

    exemplar = Machine(id="enter-password-and-code", methods={"run": _exemplar_run})
    family = ActionFamily(
        actions=(
            ("enter-password-and-code", exemplar),
            (
                "fumble-code-then-recover",
                Machine(
                    id="fumble-code-then-recover",
                    methods={"run": _wrong_code_first_run},
                ),
            ),
            (
                "unlock-and-report",
                Machine(id="unlock-and-report", methods={"run": _report_run}),
            ),
            (
                "unlock-and-overwrite",
                Machine(
                    id="unlock-and-overwrite",
                    state={"planted": params["planted"]},
                    methods={"run": _tamper_run},
                ),
            ),
        ),
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="weak",
            expected=HOLDS,
            citation="Entering the known password and relaying the delivered"
            " code unlocks every consistent device pair.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="strong",
            expected=HOLDS,
            citation="With both devices' shapes asserted exactly, any"
            " accepted performance leaves the stored message on display.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="weak",
            expected=FAILS,
            citation="Shape-implementation evidence admits a primary device"
            " with a write method, and an accepted performance may replace"
            " the message after unlocking.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="weak",
            expected=FAILS,
            citation="The defeating cell is the overwrite performance"
            " against the writable primary device.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="weak-to-strong",
            expected=HOLDS,
            edge=("weak", "strong"),
            citation="Exact-shape evidence never breaks the demonstrated"
            " unlock.",
        ),
    ]

    return Scenario(
        name="twofactor",
        title="two-factor authenticated unlock",
        evidences=evidences,
        verifier=Machine(id="two-factor-display-check", methods={"run": _verifier_run}),
        exemplar=exemplar,
        target=Machine(
            id="two-factor-decrypt-and-produce", methods={"run": _target_run}
        ),
        post_processor=device_reading_post(),
        action_family=family,
        checks=checks,
    )
