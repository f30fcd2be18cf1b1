"""Goals the government cannot check: the impossibility playground.

Three fact patterns drive the two probes.

Whereabouts: the evidence says the respondent can state where she was,
but nothing constrains the answer.  Consistent minds carry disjoint
answer sets, so whatever a candidate recovery outputs, some consistent
world's answer set excludes it: the verifier would have to accept a
made-up answer.

Coin flip: a target that announces a fresh coin cannot be recovered
from any performance, because pinning the performance's coins cannot
pin the target's.

Commitments to an unverifiable secret: committing with fresh coins
falls to the randomized-target probe (a hiding scheme's commitment
moves with the coins); committing with pinned coins falls to the
unknown-goal probe when the scheme is binding (each secret admits its
own small set of openable commitments, and the sets are disjoint).
With the equivocable scheme instead, every commitment opens to every
secret, the answer sets all coincide, and the unknown-goal hypothesis
collapses -- the probe reports that rather than a verdict.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence
from ..kernel import Machine, Nature, World
from ..refinement import ProbeSpec
from ..toy_crypto import SCHEMES, byte_domain
from ..values import ABSENT
from .base import HOLDS, HYPOTHESIS_VIOLATED, Scenario, ScenarioCheck
from .common import (
    accept_any_verifier,
    first_message_post,
    fixed_output_post,
    guesses,
    mind,
)

DEFAULTS: dict[str, Any] = {
    "place_a": b"Boston",
    "place_b": b"Paris",
    "secret_a": b"\x11",
    "secret_b": b"\x22",
    "pinned_coin": b"\x42",
}


# --- targets and exemplars ------------------------------------------------------


def _state_location_run(ctx, _arg):
    answer = ctx.respondent.call("x")
    if answer is ABSENT:
        return ABSENT
    ctx.send(answer)
    return ABSENT


def state_location_action() -> Machine:
    return Machine(id="state-a-location", methods={"run": _state_location_run})


def _location_target_run(ctx, _arg):
    answer = ctx.respondent.call("x")
    return None if answer is ABSENT else answer


def location_target() -> Machine:
    return Machine(id="disclose-location", methods={"run": _location_target_run})


def _coin_target_run(ctx, _arg):
    return b"heads" if ctx.tape.read_bit() == 0 else b"tails"


def coin_target() -> Machine:
    return Machine(id="announce-coin-flip", methods={"run": _coin_target_run})


def _flip_and_send_run(ctx, _arg):
    ctx.send(b"heads" if ctx.tape.read_bit() == 0 else b"tails")
    return ABSENT


def flip_and_send_action() -> Machine:
    return Machine(id="flip-and-send", methods={"run": _flip_and_send_run})


def _fresh_commit_target_run(ctx, _arg):
    secret = ctx.respondent.call("x")
    if secret is ABSENT:
        return None
    coins = ctx.tape.read_bytes(len(secret))
    return SCHEMES[ctx.state["scheme"]].commit(secret, coins)[0]


def _pinned_commit_target_run(ctx, _arg):
    secret = ctx.respondent.call("x")
    if secret is ABSENT:
        return None
    return SCHEMES[ctx.state["scheme"]].commit(secret, ctx.state["coin"])[0]


def pinned_commit_target(scheme_name: str, coin: bytes) -> Machine:
    return Machine(
        id="commit-with-pinned-coins",
        state={"scheme": scheme_name, "coin": coin},
        methods={"run": _pinned_commit_target_run},
    )


def _send_commitment_run(ctx, _arg):
    secret = ctx.respondent.call("x")
    if secret is ABSENT:
        return ABSENT
    ctx.send(SCHEMES[ctx.state["scheme"]].commit(secret, ctx.state["coin"])[0])
    return ABSENT


def send_commitment_action(scheme_name: str, coin: bytes) -> Machine:
    return Machine(
        id="send-a-commitment",
        state={"scheme": scheme_name, "coin": coin},
        methods={"run": _send_commitment_run},
    )


def _openable_languages(
    scheme_name: str, secrets: tuple[bytes, bytes]
) -> dict[str, tuple[bytes, ...]]:
    """Each holder's language: the commitments in the scheme's image over
    ``secrets`` that open to that holder's secret, in sorted order."""
    scheme = SCHEMES[scheme_name]
    return {
        label: tuple(sorted(scheme.openable_commitments(secret, secrets, byte_domain())))
        for label, secret in zip(("holder-a", "holder-b"), secrets)
    }


# --- evidence -------------------------------------------------------------------


def _single_respondent_world(respondent: Machine) -> World:
    return World(
        nature=Nature(),
        respondent=respondent,
    )


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    probe = ProbeSpec(depth=1, alphabet=(None,))
    whereabouts = Evidence(
        name="whereabouts-last-night",
        assertions=(
            Assertion(
                id="respondent-can-state-location",
                text="the respondent's mind yields some statement of where"
                " she was; nothing constrains which",
            ),
        ),
        worlds=(
            (
                "was-in-boston",
                _single_respondent_world(mind("traveler", x=params["place_a"])),
            ),
            (
                "was-in-paris",
                _single_respondent_world(mind("traveler", x=params["place_b"])),
            ),
        ),
        probe=probe,
    )
    coin = Evidence(
        name="a-coin-to-flip",
        assertions=(
            Assertion(
                id="respondent-can-flip",
                text="the respondent can flip a coin and announce the result",
            ),
        ),
        worlds=(
            ("coin-flipper", _single_respondent_world(mind("bystander", x=b"ok"))),
        ),
        probe=probe,
    )
    commitment = Evidence(
        name="unverifiable-committed-secret",
        assertions=(
            Assertion(
                id="respondent-holds-secret",
                text="the respondent's mind yields a secret the government"
                " cannot verify",
            ),
        ),
        worlds=(
            (
                "holder-a",
                _single_respondent_world(mind("holder", x=params["secret_a"])),
            ),
            (
                "holder-b",
                _single_respondent_world(mind("holder", x=params["secret_b"])),
            ),
        ),
        probe=probe,
    )
    return {"whereabouts": whereabouts, "coin": coin, "commitment": commitment}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)
    place_a = params["place_a"]
    place_b = params["place_b"]
    secret_a = params["secret_a"]
    secrets = (secret_a, params["secret_b"])
    coin = params["pinned_coin"]

    exemplar = state_location_action()
    commit_exemplar = send_commitment_action("xor-pad", coin)

    evidences["commitment-pinned"] = evidences["commitment"]
    evidences["commitment-pinned-equivocable"] = evidences["commitment"]

    checks = [
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="whereabouts",
            expected=HOLDS,
            target=location_target(),
            candidates=guesses(place_a)
            + (("fixed-elsewhere", fixed_output_post("fixed-elsewhere", b"Tokyo")),),
            language_source=lambda: {
                "was-in-boston": (place_a,),
                "was-in-paris": (place_b,),
            },
            citation="The government cannot check where she was, so any"
            " candidate recovery lands outside some consistent answer set"
            " -- the verifier must accept a made-up answer.",
        ),
        ScenarioCheck(
            kind="probe-random",
            evidence="coin",
            expected=HOLDS,
            target=coin_target(),
            exemplar=flip_and_send_action(),
            candidates=guesses(b"heads")
            + (("fixed-tails", fixed_output_post("fixed-tails", b"tails")),),
            citation="A fresh coin announcement cannot be recovered: pinning"
            " the performance's coins cannot pin the target's.",
        ),
        ScenarioCheck(
            kind="probe-random",
            evidence="commitment",
            expected=HOLDS,
            target=Machine(
                id="commit-with-fresh-coins",
                state={"scheme": "xor-pad"},
                methods={"run": _fresh_commit_target_run},
            ),
            exemplar=commit_exemplar,
            candidates=guesses(secret_a),
            citation="A fresh commitment to an unverifiable secret moves"
            " with its coins; no recovery tracks it.",
        ),
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="commitment-pinned",
            expected=HOLDS,
            target=pinned_commit_target("transparent", coin),
            exemplar=send_commitment_action("transparent", coin),
            candidates=guesses(
                SCHEMES["transparent"].commit(secret_a, coin)[0]
            ),
            language_source=partial(_openable_languages, "transparent", secrets),
            citation="With a binding scheme and pinned coins, each secret"
            " admits its own openable commitments and the sets are disjoint,"
            " so no candidate recovery survives.",
        ),
        ScenarioCheck(
            kind="probe-unknown-goal",
            evidence="commitment-pinned-equivocable",
            expected=HYPOTHESIS_VIOLATED,
            target=pinned_commit_target("xor-pad", coin),
            exemplar=commit_exemplar,
            candidates=guesses(secret_a),
            language_source=partial(_openable_languages, "xor-pad", secrets),
            citation="Under the equivocable scheme every commitment opens to"
            " every secret: the answer sets coincide and the unknown-goal"
            " hypothesis collapses.",
        ),
    ]

    return Scenario(
        name="unknown-goal",
        title="unverifiable goals and randomized targets",
        evidences=evidences,
        verifier=accept_any_verifier(),
        exemplar=exemplar,
        target=location_target(),
        post_processor=first_message_post(),
        action_family=ActionFamily(actions=(("state-a-location", exemplar),)),
        checks=checks,
    )
