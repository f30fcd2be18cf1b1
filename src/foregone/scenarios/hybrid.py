"""The partial-specification pitfall: a read-only-looking store.

The evidence says a store at a known location implements ``read``.  A
recovery claim for "whatever the store holds" looks trivial -- the
examiner can read the store unaided, with a do-nothing exemplar.  But
shape-implementation evidence leaves room for a store that also
implements ``write``, and against that store an accepted performance
may first overwrite the content.  Exact-shape evidence closes the gap.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..checkers import ActionFamily
from ..evidence import Assertion, Evidence, strengthen_to_full_spec
from ..kernel import Machine, Nature, World
from ..refinement import ProbeSpec
from ..values import ABSENT
from .base import FAILS, HOLDS, Scenario, ScenarioCheck
from .common import accept_any_verifier, do_nothing_action, mind, read_location_post

STORE_LOCATION = 5

DEFAULTS: dict[str, Any] = {
    "content": b"field-notes",
    "planted": b"cats",
}


def _read(ctx, _arg):
    return ctx.state["content"]


def _write(ctx, new_content):
    ctx.state["content"] = new_content
    return ABSENT


def plain_store(content: bytes) -> Machine:
    return Machine(id="plain-store", state={"content": content}, methods={"read": _read})


def writable_store(content: bytes) -> Machine:
    return Machine(
        id="writable-store",
        state={"content": content},
        methods={"read": _read, "write": _write},
    )


def _overwrite_run(ctx, _arg):
    ctx.nature(STORE_LOCATION).call("write", ctx.state["planted"])
    return ABSENT


def _report_run(ctx, _arg):
    ctx.send(ctx.nature(STORE_LOCATION).call("read"))
    return ABSENT


def _target_run(ctx, _arg):
    return ctx.nature(STORE_LOCATION).call("read")


def build_evidences(params: Mapping[str, Any]) -> dict[str, Evidence]:
    content = params["content"]

    def world(store: Machine) -> World:
        return World(
            nature=Nature(slots={STORE_LOCATION: store}),
            respondent=mind("bystander", name=b"r"),
        )

    weak = Evidence(
        name="store-implements-read",
        assertions=(
            Assertion(
                id="store-readable",
                text="a store at the known location implements read",
            ),
        ),
        worlds=(
            ("plain-store", world(plain_store(content))),
            ("writable-store", world(writable_store(content))),
        ),
        probe=ProbeSpec(depth=2, alphabet=(params["planted"], None)),
        partial_specs={STORE_LOCATION: plain_store(b"?")},
    )
    strong = strengthen_to_full_spec(weak, STORE_LOCATION, plain_store(b"?"))
    return {"weak": weak, "strong": strong}


def build(params: Mapping[str, Any]) -> Scenario:
    evidences = build_evidences(params)

    exemplar = do_nothing_action()
    family = ActionFamily(
        actions=(
            ("do-nothing", exemplar),
            (
                "overwrite-store",
                Machine(
                    id="overwrite-store",
                    state={"planted": params["planted"]},
                    methods={"run": _overwrite_run},
                ),
            ),
            (
                "read-and-report",
                Machine(id="read-and-report", methods={"run": _report_run}),
            ),
        ),
    )

    checks = [
        ScenarioCheck(
            kind="demonstrability",
            evidence="weak",
            expected=HOLDS,
            citation="Accept-anything is demonstrable with a do-nothing"
            " exemplar; the examiner can read the store unaided.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="weak",
            expected=FAILS,
            citation="Shape-implementation evidence admits a store with a"
            " write method, and an accepted performance may overwrite the"
            " content before the examiner reads it.",
        ),
        ScenarioCheck(
            kind="counterexample",
            evidence="weak",
            expected=FAILS,
            citation="The defeating cell is the overwriting performance"
            " against the writable store.",
        ),
        ScenarioCheck(
            kind="entailment",
            evidence="strong",
            expected=HOLDS,
            citation="With the store's shape asserted exactly, reading after"
            " the performance always yields the original content.",
        ),
        ScenarioCheck(
            kind="monotonicity",
            evidence="weak-to-strong",
            expected=HOLDS,
            edge=("weak", "strong"),
            citation="Exact-shape evidence never breaks the demonstrated"
            " performance.",
        ),
    ]

    return Scenario(
        name="hybrid",
        title="partially specified store (read vs read/write)",
        evidences=evidences,
        verifier=accept_any_verifier(),
        exemplar=exemplar,
        target=Machine(id="produce-store-content", methods={"run": _target_run}),
        post_processor=read_location_post("read-store-after", STORE_LOCATION),
        action_family=family,
        checks=checks,
    )
