"""Compelled encryption under a one-time pad: the verdict table.

Six cells, crossing what the government can verify against how the pad
key is chosen:

  evidence "secret"  the respondent holds a plaintext and a key; the
                     government can verify neither.
  evidence "known"   the plaintext is independently on record in
                     nature; the keys remain the respondent's.

  key choice         the respondent's own key / a key fixed by the
                     government / a key sampled fresh by the action.

Only one cell supports recovery: known plaintext with a fixed key,
where the examiner can recompute the unique ciphertext unaided.  Every
other cell is defeated, the deterministic ones by the unknown-goal
probe (the government cannot check membership in any candidate answer
set) and the sampled-key ones by the randomized-target probe (the
action's own coins make the answer a moving target).  A seventh cell
pins the coins of a toy randomized encryption as well as the key, which
makes the ciphertext unique and recovery hold again.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence
from ..kernel import Machine, Nature, World, read_only_store
from ..refinement import ProbeSpec
from ..toy_crypto import otp
from ..values import ABSENT
from .base import HOLDS, Scenario, ScenarioCheck
from .common import (
    accept_any_verifier,
    do_nothing_action,
    first_message_post,
    guesses,
    mind,
    send_fixed_action,
)

PLAINTEXT_LOCATION = 2

DEFAULTS: dict[str, Any] = {
    "secret_a": b"\x11",
    "key_a": b"\xa5",
    "secret_b": b"\x22",
    "key_b": b"\x3c",
    "known_plain": b"\x0f",
    "known_key_a": b"\xa0",
    "known_key_b": b"\x0b",
    "fixed_key": b"\x5a",
    "pinned_coin": b"\x33",
}


# --- targets ------------------------------------------------------------------


def _own_key_target_run(ctx, _arg):
    key = ctx.respondent.call("k")
    plain = ctx.respondent.call("x")
    if key is ABSENT or plain is ABSENT:
        return None
    return otp(key, plain)


def own_key_target() -> Machine:
    return Machine(id="encrypt-under-own-key", methods={"run": _own_key_target_run})


def _fixed_key_target_run(ctx, _arg):
    plain = ctx.respondent.call("x")
    if plain is ABSENT:
        return None
    return otp(ctx.state["key"], plain)


def fixed_key_target(key: bytes) -> Machine:
    return Machine(
        id="encrypt-under-fixed-key",
        state={"key": key},
        methods={"run": _fixed_key_target_run},
    )


def _sampled_key_target_run(ctx, _arg):
    plain = ctx.respondent.call("x")
    if plain is ABSENT:
        return None
    key = ctx.tape.read_bytes(len(plain))
    return otp(key, plain)


def sampled_key_target() -> Machine:
    return Machine(
        id="encrypt-under-sampled-key", methods={"run": _sampled_key_target_run}
    )


def _pinned_coins_target_run(ctx, _arg):
    """Toy randomized encryption with both key and coins fixed: the
    ciphertext (coin, plain ⊕ key ⊕ coin) is unique."""
    plain = ctx.respondent.call("x")
    if plain is ABSENT:
        return None
    key = ctx.state["key"]
    coin = ctx.state["coin"]
    return (coin, otp(otp(key, coin), plain))


# --- the accepting verifier's side of the one recovering cell ----------------


def _read_plain_accept_run(ctx, _arg):
    ctx.nature(PLAINTEXT_LOCATION).call("read")
    return True


def read_plaintext_verifier() -> Machine:
    """Reads the recorded plaintext for its own computation and accepts
    every performance; the recovery works because the examiner can
    recompute the unique ciphertext unaided."""
    return Machine(id="read-plaintext-and-accept", methods={"run": _read_plain_accept_run})


def _recompute_fixed_run(ctx, _arg):
    plain = ctx.nature(PLAINTEXT_LOCATION).call("read")
    return otp(ctx.state["key"], plain)


def _recompute_pinned_run(ctx, _arg):
    plain = ctx.nature(PLAINTEXT_LOCATION).call("read")
    key = ctx.state["key"]
    coin = ctx.state["coin"]
    return (coin, otp(otp(key, coin), plain))


# --- exemplar -----------------------------------------------------------------


def _send_own_ciphertext_run(ctx, _arg):
    key = ctx.respondent.call("k")
    plain = ctx.respondent.call("x")
    if key is ABSENT or plain is ABSENT:
        return ABSENT
    ctx.send(otp(key, plain))
    return ABSENT


# --- evidence -----------------------------------------------------------------


def _plaintext_on_record(world: World) -> bool:
    recorded = world.nature.slots[PLAINTEXT_LOCATION].state["value"]
    return world.respondent.state.get("x") == recorded


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    def recorded(key: bytes) -> World:
        plain = params["known_plain"]
        return World(
            nature=Nature(
                slots={PLAINTEXT_LOCATION: read_only_store("plaintext-record", plain)},
                read_only=frozenset({PLAINTEXT_LOCATION}),
            ),
            respondent=mind("keeper", x=plain, k=key),
        )

    secret = Evidence(
        name="secret-plaintext-and-key",
        assertions=(
            Assertion(
                id="respondent-holds-secret-and-key",
                text="the respondent's mind yields a plaintext and a key;"
                " the government can verify neither",
            ),
        ),
        worlds=(
            (
                "keeper-a",
                World(
                    nature=Nature(),
                    respondent=mind("keeper", x=params["secret_a"], k=params["key_a"]),
                ),
            ),
            (
                "keeper-b",
                World(
                    nature=Nature(),
                    respondent=mind("keeper", x=params["secret_b"], k=params["key_b"]),
                ),
            ),
        ),
        probe=ProbeSpec(depth=1, alphabet=(None,)),
    )
    known = Evidence(
        name="recorded-plaintext-secret-key",
        assertions=(
            Assertion(
                id="plaintext-on-record",
                text="the plaintext is independently recorded in nature and"
                " matches the respondent's",
                holds_in=_plaintext_on_record,
            ),
        ),
        worlds=(
            ("recorded-a", recorded(params["known_key_a"])),
            ("recorded-b", recorded(params["known_key_b"])),
        ),
        probe=ProbeSpec(depth=1, alphabet=(None,)),
        partial_specs={
            PLAINTEXT_LOCATION: read_only_store("plaintext-record", b"?")
        },
    )
    return {"secret": secret, "known": known}


def build(params: Mapping[str, Any]) -> Scenario:
    base_evidences = build_evidences(params)
    secret = base_evidences["secret"]
    known = base_evidences["known"]

    exemplar = Machine(
        id="send-own-ciphertext", methods={"run": _send_own_ciphertext_run}
    )
    family = ActionFamily(
        actions=(
            ("send-own-ciphertext", exemplar),
            ("do-nothing", do_nothing_action()),
            ("send-junk", send_fixed_action("send-junk", b"\x99")),
        ),
    )

    own_a = otp(params["key_a"], params["secret_a"])
    own_b = otp(params["key_b"], params["secret_b"])
    fixed_a = otp(params["fixed_key"], params["secret_a"])
    fixed_b = otp(params["fixed_key"], params["secret_b"])
    known_own_a = otp(params["known_key_a"], params["known_plain"])
    known_own_b = otp(params["known_key_b"], params["known_plain"])

    evidences = dict(base_evidences)
    for alias in (
        "secret-own-key",
        "secret-fixed-key",
        "secret-sampled-key",
    ):
        evidences[alias] = secret
    for alias in (
        "known-own-key",
        "known-fixed-key",
        "known-sampled-key",
        "known-derandomized",
    ):
        evidences[alias] = known

    checks = [
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="secret-own-key",
            expected=HOLDS,
            target=own_key_target(),
            candidates=guesses(own_a),
            language_source=lambda: {
                "keeper-a": (own_a,),
                "keeper-b": (own_b,),
            },
            citation="With plaintext and key both beyond verification, every"
            " candidate recovery lands outside some consistent answer set.",
        ),
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="secret-fixed-key",
            expected=HOLDS,
            target=fixed_key_target(params["fixed_key"]),
            candidates=guesses(fixed_a),
            language_source=lambda: {
                "keeper-a": (fixed_a,),
                "keeper-b": (fixed_b,),
            },
            citation="Fixing the key does not help while the plaintext"
            " cannot be verified: the answer set still varies by mind.",
        ),
        ScenarioCheck(
            kind="probe-random",
            evidence="secret-sampled-key",
            expected=HOLDS,
            target=sampled_key_target(),
            candidates=guesses(own_a),
            citation="A freshly sampled pad key makes the ciphertext a"
            " moving target; no recovery tracks the action's own coins.",
        ),
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="known-own-key",
            expected=HOLDS,
            target=own_key_target(),
            candidates=guesses(known_own_a),
            language_source=lambda: {
                "recorded-a": (known_own_a,),
                "recorded-b": (known_own_b,),
            },
            citation="A recorded plaintext does not pin down a ciphertext"
            " under the respondent's own unverifiable key.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="known-fixed-key",
            expected=HOLDS,
            verifier=read_plaintext_verifier(),
            target=fixed_key_target(params["fixed_key"]),
            post=Machine(
                id="recompute-fixed-ciphertext",
                state={"key": params["fixed_key"]},
                methods={"run": _recompute_fixed_run},
            ),
            citation="With the plaintext on record and the key fixed, the"
            " examiner recomputes the unique ciphertext unaided, whatever"
            " the performance did.",
        ),
        ScenarioCheck(
            kind="probe-random",
            evidence="known-sampled-key",
            expected=HOLDS,
            target=sampled_key_target(),
            candidates=guesses(otp(params["fixed_key"], params["known_plain"])),
            citation="Even with the plaintext on record, sampling the key"
            " fresh defeats every candidate recovery.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="known-derandomized",
            expected=HOLDS,
            verifier=read_plaintext_verifier(),
            target=Machine(
                id="encrypt-with-pinned-coins",
                state={"key": params["fixed_key"], "coin": params["pinned_coin"]},
                methods={"run": _pinned_coins_target_run},
            ),
            post=Machine(
                id="recompute-pinned-ciphertext",
                state={"key": params["fixed_key"], "coin": params["pinned_coin"]},
                methods={"run": _recompute_pinned_run},
            ),
            citation="Pinning the coins as well as the key makes the"
            " randomized ciphertext unique and recoverable again.",
        ),
    ]

    return Scenario(
        name="otp-table",
        title="compelled one-time-pad encryption (verdict table)",
        evidences=evidences,
        verifier=accept_any_verifier(),
        exemplar=exemplar,
        target=own_key_target(),
        post_processor=first_message_post(),
        action_family=family,
        checks=checks,
    )
