"""Opening a commitment lodged in nature.

A commitment value sits at a read-only location; the respondent's mind
holds the committed message and its opening.  The verifier accepts any
(message, opening) pair that the scheme's public check validates
against the lodged commitment.  The scheme's checker itself lives in
nature, so worlds can disagree about which scheme produced the lodged
value while the verifier stays one fixed machine.

With a binding scheme the lodged value admits one message only, so an
accepted performance always discloses the committed message -- and any
fixed function of it, via a post-composed recovery.  Dropping the
binding assertion admits an equivocable scheme, under which a
performance may open the commitment to any message of its choice;
demonstrability survives unchanged.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence, drop_assertion
from ..kernel import Machine, Nature, World, read_only_store
from ..refinement import ProbeSpec
from ..toy_crypto import SCHEMES, BindingClass, complement
from ..values import ABSENT
from .base import FAILS, HOLDS, Scenario, ScenarioCheck, ScenarioError
from .common import mind

COMMITMENT_LOCATION = 2
CHECKER_LOCATION = 8

DEFAULTS: dict[str, Any] = {
    "secret": b"ledger42",
    "opening": b"saltmine",
    "alt_secret": b"page-007",
    "alt_opening": b"pepper44",
    "pad_opening": b"k3ypad99",
    "chosen": b"red-page",
}


# --- machines -----------------------------------------------------------------


def _check_method(ctx, triple):
    # expects (commitment, (opening, message))
    if not isinstance(triple, tuple) or not isinstance(triple[1], tuple):
        return False
    commitment, (opening, message) = triple
    if not all(isinstance(part, bytes) for part in (commitment, opening, message)):
        return False
    return SCHEMES[ctx.state["scheme"]].check(commitment, opening, message)


def scheme_checker(scheme_name: str) -> Machine:
    """Nature machine exposing one scheme's public check."""
    return Machine(
        id="commitment-checker",
        state={"scheme": scheme_name},
        methods={"check": _check_method},
    )


def _verifier_run(ctx, _arg):
    """Accept iff the sent (message, opening) pair verifies against the
    lodged commitment under the world's public checker."""
    pair = ctx.receive()
    if not isinstance(pair, tuple):
        return False
    message, opening = pair
    commitment = ctx.nature(COMMITMENT_LOCATION).call("read")
    verdict = ctx.nature(CHECKER_LOCATION).call(
        "check", (commitment, (opening, message))
    )
    return verdict is True


def _reveal_run(ctx, _arg):
    message = ctx.respondent.call("secret")
    opening = ctx.respondent.call("decom")
    if message is ABSENT or opening is ABSENT:
        return ABSENT
    ctx.send((message, opening))
    return ABSENT


def _reveal_chatty_run(ctx, _arg):
    message = ctx.respondent.call("secret")
    opening = ctx.respondent.call("decom")
    if message is ABSENT or opening is ABSENT:
        return ABSENT
    ctx.send((message, opening))
    ctx.send(b"as lodged")
    return ABSENT


def _equivocate_run(ctx, _arg):
    """Open the lodged commitment to a chosen message; only an
    equivocable scheme lets this verify."""
    chosen = ctx.state["chosen"]
    commitment = ctx.nature(COMMITMENT_LOCATION).call("read")
    if isinstance(commitment, bytes) and len(commitment) == len(chosen):
        ctx.send((chosen, SCHEMES["xor-pad"].equivocate(commitment, chosen)))
    else:
        ctx.send((chosen, chosen))
    return ABSENT


def _secret_target_run(ctx, _arg):
    message = ctx.respondent.call("secret")
    return None if message is ABSENT else message


def _complement_target_run(ctx, _arg):
    """A fixed function of the committed message, not the message itself."""
    message = ctx.respondent.call("secret")
    return None if message is ABSENT else complement(message)


def _opened_message_run(ctx, _arg):
    messages = ctx.messages
    if not messages or not isinstance(messages[0], tuple):
        return None
    return messages[0][0]


def _complemented_message_run(ctx, _arg):
    messages = ctx.messages
    if not messages or not isinstance(messages[0], tuple):
        return None
    opened = messages[0][0]
    return complement(opened) if isinstance(opened, bytes) else None


# --- evidence -----------------------------------------------------------------


def _opening_verifies(world: World) -> bool:
    scheme = SCHEMES[world.nature.slots[CHECKER_LOCATION].state["scheme"]]
    commitment = world.nature.slots[COMMITMENT_LOCATION].state["value"]
    return scheme.check(
        commitment,
        world.respondent.state["decom"],
        world.respondent.state["secret"],
    )


def _scheme_is_binding(world: World) -> bool:
    scheme = SCHEMES[world.nature.slots[CHECKER_LOCATION].state["scheme"]]
    return scheme.binding_class is BindingClass.PERFECTLY_BINDING


def _world(scheme_name: str, secret: bytes, opening: bytes) -> World:
    commitment, decommitment = SCHEMES[scheme_name].commit(secret, opening)
    return World(
        nature=Nature(
            slots={
                COMMITMENT_LOCATION: read_only_store("commitment-store", commitment),
                CHECKER_LOCATION: scheme_checker(scheme_name),
            },
            read_only=frozenset({COMMITMENT_LOCATION}),
        ),
        respondent=mind("committer", secret=secret, decom=decommitment),
    )


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    openable = (
        "openable-box",
        _world("xor-pad", params["secret"], params["pad_opening"]),
    )
    strong = Evidence(
        name="commitment-opening-binding",
        assertions=(
            Assertion(
                id="respondent-can-open",
                text="the respondent's mind yields a message and opening"
                " that verify against the lodged commitment",
                holds_in=_opening_verifies,
            ),
            Assertion(
                id="scheme-binding",
                text="the lodged commitment's scheme is perfectly binding",
                droppable=True,
                extension_worlds=(openable,),
                holds_in=_scheme_is_binding,
            ),
        ),
        worlds=(
            ("sealed-box", _world("transparent", params["secret"], params["opening"])),
            (
                "sealed-box-alt",
                _world("transparent", params["alt_secret"], params["alt_opening"]),
            ),
        ),
        probe=ProbeSpec(depth=1, alphabet=(None,)),
        partial_specs={
            COMMITMENT_LOCATION: read_only_store("commitment-store", b"?"),
            CHECKER_LOCATION: scheme_checker("transparent"),
        },
    )
    weak = drop_assertion(strong, "scheme-binding")
    return {"strong": strong, "weak": weak, "composed": strong}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)
    # The equivocating action opens the xor-pad commitment to ``chosen``,
    # which must be another message of the commitment's length: one of
    # another length never verifies, and the committed message itself is
    # no equivocation.  Either way the weak family would lose the failure
    # its checks expect.
    openable = evidences["weak"].world("openable-box")
    lodged = openable.nature.slots[COMMITMENT_LOCATION].state["value"]
    if len(params["chosen"]) != len(lodged):
        raise ScenarioError(
            "scenario 'decommit' cannot be built: decommit.chosen length "
            f"{len(params['chosen'])} != lodged commitment length {len(lodged)}"
        )
    if params["chosen"] == params["secret"]:
        raise ScenarioError("decommit.chosen and decommit.secret must differ")

    exemplar = Machine(id="reveal-true-opening", methods={"run": _reveal_run})
    family = ActionFamily(
        actions=(
            ("reveal-true-opening", exemplar),
            (
                "reveal-and-comment",
                Machine(id="reveal-and-comment", methods={"run": _reveal_chatty_run}),
            ),
            (
                "open-to-chosen-message",
                Machine(
                    id="open-to-chosen-message",
                    state={"chosen": params["chosen"]},
                    methods={"run": _equivocate_run},
                ),
            ),
        ),
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="strong",
            expected=HOLDS,
            citation="Revealing the true opening verifies in every"
            " consistent world.",
        ),
        ScenarioCheck(
            kind="demonstrability",
            evidence="weak",
            expected=HOLDS,
            citation="Dropping the binding assertion does not touch"
            " demonstrability: the true opening still verifies.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="strong",
            expected=HOLDS,
            citation="A binding commitment admits one message, so an"
            " accepted performance always discloses the committed message.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="weak",
            expected=FAILS,
            citation="Under an equivocable scheme a performance may open"
            " the lodged commitment to any chosen message and still verify.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="weak",
            expected=FAILS,
            citation="The defeating cell is the equivocated opening against"
            " the equivocable-scheme world.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="composed",
            expected=HOLDS,
            target=Machine(
                id="disclose-complemented-secret",
                methods={"run": _complement_target_run},
            ),
            post=Machine(
                id="complemented-message-from-transcript",
                methods={"run": _complemented_message_run},
            ),
            citation="Recovery composes: with a binding scheme the examiner"
            " also obtains any fixed function of the committed message.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="weak-to-strong",
            expected=HOLDS,
            edge=("weak", "strong"),
            citation="Restoring the binding assertion never breaks the"
            " demonstrated opening.",
        ),
    ]

    return Scenario(
        name="decommit",
        title="opening a lodged commitment",
        evidences=evidences,
        verifier=Machine(id="opening-check", methods={"run": _verifier_run}),
        exemplar=exemplar,
        target=Machine(
            id="disclose-committed-secret", methods={"run": _secret_target_run}
        ),
        post_processor=Machine(
            id="opened-message-from-transcript", methods={"run": _opened_message_run}
        ),
        action_family=family,
        checks=checks,
    )
