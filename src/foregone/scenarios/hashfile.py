"""Producing a file checked against its published digest.

The respondent's mind discloses where the wanted file lives; the
verifier accepts whatever byte string hashes to the published digest.
With an injective toy hash, an accepted performance can only ever carry
the file itself, so recovery holds exactly.  With a hash carrying a
documented collision, a performance that sends the collision partner is
accepted too, and the defeating cell shows two distinct outputs with
equal digests -- the dichotomy the digest check leaves open.

Each digest verifier carries its hash in its own state: the collision
pair of ``toy_crypto.toy_hash``, or ``None`` for the injective hash.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence
from ..kernel import Machine, Nature, World, read_only_store
from ..refinement import ProbeSpec
from ..toy_crypto import toy_hash
from ..values import ABSENT, Location
from .base import FAILS, HOLDS, Scenario, ScenarioCheck, ScenarioError
from .common import first_message_post, mind, send_fixed_action

FILE_LOCATION = 4
ALT_FILE_LOCATION = 6

DEFAULTS: dict[str, Any] = {
    "file": b"q3-report",
    "collision_partner": b"shadow-q3",
}


def _verifier_run(ctx, _arg):
    produced = ctx.receive()
    if produced is ABSENT or not isinstance(produced, bytes):
        return False
    return toy_hash(ctx.state["collision"], produced) == ctx.state["digest"]


def digest_verifier(collision: Optional[tuple[bytes, bytes]], digest: bytes) -> Machine:
    """Accepts iff the produced bytes hash to the published digest under
    ``toy_hash(collision, ·)``."""
    return Machine(
        id="digest-check",
        state={"collision": collision, "digest": digest},
        methods={"run": _verifier_run},
    )


def _produce_run(ctx, _arg):
    where = ctx.respondent.call("find_file")
    if where is ABSENT:
        return ABSENT
    ctx.send(ctx.nature(where).call("read"))
    return ABSENT


def _chatty_run(ctx, _arg):
    where = ctx.respondent.call("find_file")
    if where is ABSENT:
        return ABSENT
    ctx.send(ctx.nature(where).call("read"))
    ctx.send(b"that is everything")
    return ABSENT


def _target_run(ctx, _arg):
    where = ctx.respondent.call("find_file")
    if where is ABSENT:
        return None
    return ctx.nature(where).call("read")


def _world(file_location: int, content: bytes) -> World:
    return World(
        nature=Nature(
            slots={file_location: read_only_store("file-store", content)},
            read_only=frozenset({file_location}),
        ),
        respondent=mind("knows-file-location", find_file=Location(file_location)),
    )


def _file_matches_digest(collision: Optional[tuple[bytes, bytes]], digest: bytes):
    def check(world: World) -> bool:
        where = world.respondent.state["find_file"]
        content = world.nature.slots[where.index].state["value"]
        return toy_hash(collision, content) == digest

    return check


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    file_content = params["file"]
    partner = params["collision_partner"]
    if file_content == partner:
        raise ScenarioError("hash.file and hash.collision_partner must differ")
    digest = toy_hash(None, file_content)
    probe = ProbeSpec(depth=1, alphabet=(None,))

    injective_evidence = Evidence(
        name="file-with-digest",
        assertions=(
            Assertion(
                id="respondent-locates-file",
                text="the respondent's mind yields the file's location",
            ),
            Assertion(
                id="file-matches-digest",
                text="the located file hashes to the published digest",
                holds_in=_file_matches_digest(None, digest),
            ),
        ),
        worlds=(
            ("archive", _world(FILE_LOCATION, file_content)),
            ("archive-alt-slot", _world(ALT_FILE_LOCATION, file_content)),
        ),
        probe=probe,
        partial_specs={},
    )
    colliding_evidence = Evidence(
        name="file-with-colliding-digest",
        assertions=(
            Assertion(
                id="respondent-locates-file",
                text="the respondent's mind yields the file's location",
            ),
            Assertion(
                id="file-matches-digest",
                text="the located file hashes to the published digest",
                holds_in=_file_matches_digest((file_content, partner), digest),
            ),
        ),
        worlds=(
            ("true-file", _world(FILE_LOCATION, file_content)),
            ("collision-partner-file", _world(FILE_LOCATION, partner)),
        ),
        probe=probe,
        partial_specs={},
    )
    return {"injective": injective_evidence, "colliding": colliding_evidence}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)
    file_content = params["file"]
    digest = toy_hash(None, file_content)
    injective_verifier = digest_verifier(None, digest)
    collision = (file_content, params["collision_partner"])
    colliding_verifier = digest_verifier(collision, digest)

    exemplar = Machine(id="produce-located-file", methods={"run": _produce_run})
    injective_family = ActionFamily(
        actions=(
            ("produce-located-file", exemplar),
            (
                "produce-and-comment",
                Machine(id="produce-and-comment", methods={"run": _chatty_run}),
            ),
            ("send-memorized-file", send_fixed_action("send-memorized-file", file_content)),
        ),
        exemplar_label="produce-located-file",
    )
    colliding_family = ActionFamily(
        actions=(
            ("produce-located-file", exemplar),
            (
                "send-collision-partner",
                send_fixed_action("send-collision-partner", file_content),
            ),
        ),
        exemplar_label="produce-located-file",
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="injective",
            expected=HOLDS,
            verifier=injective_verifier,
            citation="Producing the located file passes the digest check in"
            " every consistent world.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="injective",
            expected=HOLDS,
            verifier=injective_verifier,
            family=injective_family,
            citation="An injective digest pins the preimage down, so an"
            " accepted performance can only carry the file itself.",
        ),
        ScenarioCheck(
            kind="demonstrability",
            evidence="colliding",
            expected=HOLDS,
            verifier=colliding_verifier,
            citation="Producing the located file passes the digest check"
            " whether or not the hash has collisions.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="colliding",
            expected=FAILS,
            verifier=colliding_verifier,
            family=colliding_family,
            citation="With a known collision, an accepted performance may"
            " carry the collision partner: the outputs differ while their"
            " digests agree.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="colliding",
            expected=FAILS,
            verifier=colliding_verifier,
            family=colliding_family,
            citation="The digest check recovers either the file or a"
            " collision partner; nothing in the evidence rules the partner"
            " out.",
        ),
    ]

    return Scenario(
        name="hash",
        title="file production checked by digest",
        evidences=evidences,
        verifier=injective_verifier,
        exemplar=exemplar,
        target=Machine(id="produce-the-file", methods={"run": _target_run}),
        post_processor=first_message_post("produced-bytes"),
        action_family=injective_family,
        checks=checks,
    )
