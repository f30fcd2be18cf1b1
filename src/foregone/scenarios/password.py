"""Compelled password entry against a possibly deniable device.

The device family: a password-protected store that displays its message
once the right password is entered, and a deniable variant that adds a
separate duress interface which swaps the stored message for arbitrary
replacement content before unlocking.  The duress interface is a
distinct method taking a (duress password, replacement) pair, so the
plain prompt/read surface of the deniable device behaves exactly like
the plain device.

Evidence variants:

  weak    the device implements the plain prompt/read shape (the
          deniable device is consistent with that), and the respondent
          knows the password.
  strong  the weak evidence with the device's shape asserted exactly,
          which rules the deniable device out.
  star    the weak evidence minus the knowledge assertion, which lets
          in a world whose respondent has nothing to enter.

Registered verdicts: the unlock is demonstrable on the weak evidence;
recovery of the stored message is entailed only on the strong evidence;
on the weak evidence the duress interface defeats it, and on the star
evidence an action that succeeds without consulting the respondent
defeats it.  The family for each failure claim contains exactly the
action its argument turns on.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence, drop_assertion, strengthen_to_full_spec
from ..kernel import Machine, Nature, World, emulate_with_respondent
from ..refinement import ProbeSpec
from ..values import ABSENT
from .base import FAILS, HOLDS, Scenario, ScenarioCheck
from .common import mind, read_location_post, silent_mind

DEVICE_LOCATION = 3

DEFAULTS: dict[str, Any] = {
    "pwd": b"hunter2",
    "message": b"tax-records",
    "alt_pwd": b"cats123",
    "alt_message": b"ledger-2019",
    "duress_pwd": b"d00rbell",
    "replacement": b"cat-pictures",
}


# --- device methods ----------------------------------------------------------


def _prompt(ctx, attempt):
    if attempt == ctx.state["pwd"]:
        ctx.state["unlocked"] = True
    return ABSENT


def _read(ctx, _arg):
    return ctx.state["message"] if ctx.state["unlocked"] else None


def _duress(ctx, pair):
    if isinstance(pair, tuple) and pair[0] == ctx.state["duress_pwd"]:
        ctx.state["message"] = pair[1]
        ctx.state["unlocked"] = True
    return ABSENT


def password_device(pwd: bytes, message: bytes) -> Machine:
    return Machine(
        id="password-device",
        state={"pwd": pwd, "message": message, "unlocked": False},
        methods={"prompt": _prompt, "read": _read},
    )


def deniable_device(pwd: bytes, duress_pwd: bytes, message: bytes) -> Machine:
    """Implements the plain device's surface and adds the duress method."""
    return Machine(
        id="deniable-device",
        state={
            "pwd": pwd,
            "duress_pwd": duress_pwd,
            "message": message,
            "unlocked": False,
        },
        methods={"prompt": _prompt, "read": _read, "duress": _duress},
    )


# --- verifier, actions, target, post -----------------------------------------


def _verifier_run(ctx, _arg):
    return ctx.nature(DEVICE_LOCATION).call("read") is not None


def unlocked_verifier() -> Machine:
    """Accepts iff the device displays some message."""
    return Machine(id="device-displays-message", methods={"run": _verifier_run})


def _known_file_run(ctx, _arg):
    return ctx.nature(DEVICE_LOCATION).call("read") == ctx.state["expected"]


def known_file_verifier(expected: bytes) -> Machine:
    """Accepts iff the device displays exactly the known content."""
    return Machine(
        id="device-displays-known-file",
        state={"expected": expected},
        methods={"run": _known_file_run},
    )


def _enter_password(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    return ABSENT


def _retry_after_typo(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd + b"-oops")
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    return ABSENT


def _enter_twice(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    return ABSENT


def _announce_progress(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    ctx.send(b"done")
    shown = ctx.nature(DEVICE_LOCATION).call("read")
    ctx.send(shown)
    return ABSENT


def _use_duress(ctx, _arg):
    duress = ctx.respondent.call("duress_pwd")
    if duress is ABSENT:
        return ABSENT
    ctx.nature(DEVICE_LOCATION).call("duress", (duress, ctx.state["replacement"]))
    return ABSENT


def exemplar_action() -> Machine:
    return Machine(id="enter-password", methods={"run": _enter_password})


def retry_action() -> Machine:
    return Machine(id="retry-after-typo", methods={"run": _retry_after_typo})


def enter_twice_action() -> Machine:
    return Machine(id="enter-password-twice", methods={"run": _enter_twice})


def announce_action() -> Machine:
    return Machine(id="announce-progress", methods={"run": _announce_progress})


def duress_action(replacement: bytes) -> Machine:
    return Machine(
        id="use-duress-password",
        state={"replacement": replacement},
        methods={"run": _use_duress},
    )


def _target_run(ctx, _arg):
    pwd = ctx.respondent.call("pwd")
    if pwd is ABSENT:
        return None
    ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
    return ctx.nature(DEVICE_LOCATION).call("read")


def decrypt_target() -> Machine:
    """Enter the respondent's password, then read out the message."""
    return Machine(id="decrypt-and-produce", methods={"run": _target_run})


def device_reading_post() -> Machine:
    return read_location_post("read-device-after", DEVICE_LOCATION)


# --- evidence ----------------------------------------------------------------


def _respondent_knows_password(world: World) -> bool:
    device = world.nature.slots[DEVICE_LOCATION]
    return world.respondent.state.get("pwd") == device.state["pwd"]


def _message_present(world: World) -> bool:
    return world.nature.slots[DEVICE_LOCATION].state["message"] is not None


def _world(device: Machine, respondent: Machine) -> World:
    return World(
        nature=Nature(slots={DEVICE_LOCATION: device}),
        respondent=respondent,
    )


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    pwd = params["pwd"]
    message = params["message"]
    probe = ProbeSpec(depth=3, alphabet=(pwd, b"wrong-guess", None))

    silent_world = (
        "silent-respondent",
        _world(password_device(pwd, message), silent_mind("empty-handed", "pwd")),
    )
    weak = Evidence(
        name="password-entry",
        assertions=(
            Assertion(
                id="device-implements-prompt-read",
                text="a device at the seized location implements the"
                " password prompt/read surface",
            ),
            Assertion(
                id="respondent-knows-password",
                text="the respondent's mind yields the device password",
                droppable=True,
                extension_worlds=(silent_world,),
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
                "locked-alt",
                _world(
                    password_device(params["alt_pwd"], params["alt_message"]),
                    mind("knows-password", pwd=params["alt_pwd"]),
                ),
            ),
            (
                "deniable",
                _world(
                    deniable_device(pwd, params["duress_pwd"], message),
                    mind("knows-both-passwords", pwd=pwd, duress_pwd=params["duress_pwd"]),
                ),
            ),
        ),
        probe=probe,
        partial_specs={DEVICE_LOCATION: password_device(b"?", b"?")},
    )
    strong = strengthen_to_full_spec(weak, DEVICE_LOCATION, password_device(b"?", b"?"))
    star = drop_assertion(weak, "respondent-knows-password")
    return {"weak": weak, "strong": strong, "star": star}


# --- scenario ----------------------------------------------------------------


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)

    verifier = unlocked_verifier()
    exemplar = exemplar_action()
    target = decrypt_target()
    post = device_reading_post()

    stand_in = emulate_with_respondent(
        exemplar, mind("knows-password", pwd=params["pwd"])
    )
    never_answers = emulate_with_respondent(
        exemplar, silent_mind("empty-handed", "pwd")
    )

    core = (
        ("enter-password", exemplar),
        ("retry-after-typo", retry_action()),
        ("enter-password-twice", enter_twice_action()),
        ("announce-progress", announce_action()),
    )
    family_strong = ActionFamily(actions=core)
    family_weak = ActionFamily(
        actions=core
        + (
            ("use-duress-password", duress_action(params["replacement"])),
            ("stand-in-respondent", stand_in),
        ),
    )
    family_star = ActionFamily(
        actions=core
        + (
            ("stand-in-respondent", stand_in),
            ("emulate-silent-respondent", never_answers),
        ),
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="weak",
            expected=HOLDS,
            citation="Entering the known password makes every consistent"
            " device display a message, deniable devices included.",
        ),
        ScenarioCheck(
            kind="conformity",
            evidence="weak",
            expected=HOLDS,
            citation="The exemplar unlock is accepted in every consistent world.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="strong",
            expected=HOLDS,
            family=family_strong,
            citation="With the device's code asserted exactly, any accepted"
            " performance lets the examiner read out the stored message.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="weak",
            expected=FAILS,
            family=family_weak,
            citation="While the evidence leaves a deniable device possible,"
            " an accepted performance may surface planted content instead of"
            " the stored message.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="star",
            expected=FAILS,
            family=family_star,
            citation="Without the knowledge assertion, an accepted"
            " performance can succeed without consulting the respondent,"
            " so its fruits carry no information about the stored message.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="star",
            expected=FAILS,
            family=family_star,
            citation="Recovering the message is not entailed once a"
            " respondent with nothing to enter is consistent.",
        ),
        ScenarioCheck(
            kind="demonstrability",
            evidence="star",
            expected=FAILS,
            citation="Without the knowledge assertion, a consistent"
            " respondent's mind may yield nothing, so no exemplar unlock"
            " can be demonstrated.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="weak-to-strong",
            expected=HOLDS,
            edge=("weak", "strong"),
            citation="Adding the exact-shape evidence never breaks the"
            " demonstrated unlock.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="star-to-weak",
            expected=HOLDS,
            edge=("star", "weak"),
            citation="Adding the knowledge assertion never breaks a"
            " demonstrated unlock.",
        ),
    ]

    return Scenario(
        name="password",
        title="compelled password entry",
        evidences=evidences,
        verifier=verifier,
        exemplar=exemplar,
        target=target,
        post_processor=post,
        action_family=family_weak,
        checks=checks,
    )
