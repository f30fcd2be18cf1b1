"""Machine builders shared across scenarios.

Three rules hold for every machine a scenario builds, here and in the
scenario modules:

- Method functions live at module level, and every parameter a machine
  depends on sits in its state, never in a closure.
  ``kernel.machine_key``, which keys the refinement memo and evidence
  membership, compares method functions by identity, so two
  independently built copies of a machine must share them.
- There are no module-level machine constants: every build makes its
  own ``Machine`` objects, since a ``World`` refuses one ``Machine``
  object held twice.  A built machine cannot change, and every entry
  point and ``DirectInvoker`` keeps the states its calls write in an
  overlay of its own, so one build may hand the same verifier or action
  to several checks, though not the same object to two places of one
  run (``AliasedMachineError``).
- Machine ids are output bytes: probe witnesses and rendered
  transcripts name machines by id, so renaming a machine changes
  reports and demo output.
"""

from __future__ import annotations

from typing import Any

from ..kernel import Machine, _read_stored
from ..values import ABSENT


# --- generic method bodies -------------------------------------------------


def _disclose(ctx, _arg):
    """Return the state variable named like the invoked method."""
    return ctx.state[ctx.method]


def _halt(ctx, _arg):
    return ABSENT


def _accept(ctx, _arg):
    return True


def _send_stored_message(ctx, _arg):
    ctx.send(ctx.state["message"])
    return ABSENT


def _post_first_message(ctx, _arg):
    messages = ctx.messages
    return messages[0] if messages else None


def _post_read_location(ctx, _arg):
    return ctx.nature(ctx.state["location"]).call("read")


# --- builders ---------------------------------------------------------------


def mind(machine_id: str, **contents: Any) -> Machine:
    """A respondent: each named method discloses one stored value."""
    return Machine(
        id=machine_id,
        state=dict(contents),
        methods={name: _disclose for name in contents},
    )


def silent_mind(machine_id: str, *method_names: str) -> Machine:
    """A respondent whose methods exist but halt without output."""
    return Machine(
        id=machine_id,
        state={},
        methods={name: _halt for name in method_names},
    )


def accept_any_verifier() -> Machine:
    """The trivial verifier: accepts every performance."""
    return Machine(id="accept-any-performance", methods={"run": _accept})


def do_nothing_action() -> Machine:
    return Machine(id="do-nothing", methods={"run": _halt})


def send_fixed_action(machine_id: str, message: Any) -> Machine:
    """Sends one hardcoded message to the verifier."""
    return Machine(
        id=machine_id, state={"message": message}, methods={"run": _send_stored_message}
    )


def fixed_output_post(machine_id: str, value: Any) -> Machine:
    """Post-processor that ignores everything and returns a constant."""
    return Machine(id=machine_id, state={"value": value}, methods={"run": _read_stored})


def first_message_post(machine_id: str = "echo-first-message") -> Machine:
    """Post-processor returning the first value the action sent (⊥ if none)."""
    return Machine(id=machine_id, methods={"run": _post_first_message})


def read_location_post(machine_id: str, location: int) -> Machine:
    """Post-processor that reads one nature location after the interaction."""
    return Machine(
        id=machine_id, state={"location": location}, methods={"run": _post_read_location}
    )


def guesses(value: Any) -> tuple[tuple[str, Machine], ...]:
    """The candidate recoveries every probe tries: echo the first
    message, guess ``value``, and guess zero."""
    return (
        ("echo-first-message", first_message_post()),
        ("fixed-guess", fixed_output_post("fixed-guess", value)),
        ("always-zero", fixed_output_post("always-zero", b"\x00")),
    )
