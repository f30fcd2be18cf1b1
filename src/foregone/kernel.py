"""Deterministic execution engine for interacting stateful machines.

The moving parts:

  * ``Machine``  -- a named bundle of state and methods.  A method is a
    plain function ``fn(ctx, argument) -> value | ABSENT`` that reads and
    writes ``ctx.state``, draws coins from ``ctx.tape``, and reaches other
    machines through the capability handles on ``ctx``.
  * ``Nature``   -- the outside world: a location-indexed collection of
    machines, some of which are read-only stores.
  * ``World``    -- pure content: nature and a respondent machine.  The
    tape seed is not part of a world but a coordinate of every cell
    (world x action x seed), passed to each entry point.
  * ``execute`` -- the two-phase run of a verifier against an action.
    Phase one runs the action to completion with oracle access to nature
    and the respondent, buffering everything it sends toward the
    verifier.  Phase two runs the verifier, which consumes the buffered
    messages in order and queries nature.  The verifier's final output
    fixes the verdict.

``execute`` and ``run_target`` start from fresh tapes for the seed;
``run_post`` continues the world and tapes from where an execution left
them.  None of the three mutates its input: each runs on its own fork.

Access rules are enforced by construction.  Every method runs in a
role, and ``_CAPS`` lists what each role may use.  The role comes with
the handle the call goes through: each entry point runs its machine as
the action, verifier, target or post-processor; ``ctx.nature(i)`` hands
out a nature handle, read-only when ``i`` is a read-only location; and
``ctx.respondent`` hands out a respondent handle, for the world's
respondent and for a machine's emulated one alike.  So the respondent
is reachable only from the action phase and from targets.  A verifier
that tries to reach it sees a no-such-method outcome, and the attempt
is recorded in the transcript; any other role that asks for a
capability it lacks raises ``AccessViolationError``.

Everything is deterministic given (world, machines, seed, budget): two
runs of the same cell produce bitwise identical transcripts and
post-worlds.  Method code keeps everything it remembers in ``ctx.state``
(never in captured closures), and every state value is an immutable
value of the algebra or a ``str``: ``Machine`` construction and every
method return enforce this with ``MalformedValueError``.  That rule is
what lets a fork copy each machine's state dict and share the values.

Any exception that method code raises and that is not a
``KernelError`` leaves ``invoke`` as a ``MethodFaultError`` naming the
machine and the method, chained from the original, so every failure of
machine code is a kernel error.

The step budget charges method invocations, messages, and tape reads.
A method body that loops forever while touching none of those is
outside the model; scenario machines always interleave their work with
charged operations.

A note on outputs: ``None`` is the null value ⊥ and counts as output.
A method that produces nothing must ``return ABSENT`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .tapes import RandomnessAssignment, ZeroTape
from .values import ABSENT, NO_SUCH_METHOD, Location, is_value, render_value, same_value

DEFAULT_BUDGET = 100_000

MethodFn = Callable[["MethodContext", Any], Any]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class KernelError(Exception):
    """Base class for execution-engine failures."""


class NoSuchMethodError(KernelError):
    """A call named a method the target machine does not define (or a
    non-read call reached a read-only location)."""

    def __init__(self, machine_id: str, method: str):
        super().__init__(f"machine {machine_id!r} has no method {method!r}")
        self.machine_id = machine_id
        self.method = method


class BudgetExceededError(KernelError):
    """The per-execution step counter ran out."""


class AbsentOutputError(KernelError):
    """A target action halted without producing a value."""


class AccessViolationError(KernelError):
    """Machine code asked for a capability its role does not have.

    This signals a bug in scenario wiring, not a doctrine event, so it
    is kept distinct from ``NoSuchMethodError``.
    """


class MalformedValueError(KernelError):
    """A method returned, sent or stored something outside the value
    algebra (state may also hold a ``str``)."""


class AliasedMachineError(KernelError):
    """A world holds the same machine object in two places."""


class MethodFaultError(KernelError):
    """Method code raised an exception that is not a ``KernelError`` (a
    ``TypeError``, a toy-crypto ``LengthMismatchError``, ...).  The
    message names the machine and the method; the original exception is
    the ``__cause__``."""


# ---------------------------------------------------------------------------
# Machines, nature, worlds
# ---------------------------------------------------------------------------


@dataclass
class Machine:
    """A stateful machine: identifier, variable store, and method table.

    Two machines are structurally identical when they share an id, equal
    state, and the same method functions per name.  Scenario builders
    keep method functions at module level so that independently built
    copies of a machine compare equal.

    ``force_zero_tape`` pins the machine's coins to all zeros.
    ``emulated_respondent`` replaces the machine's view of the
    respondent with a private emulated copy (used by the impossibility
    probes).
    """

    id: str
    state: dict[str, Any] = field(default_factory=dict)
    methods: dict[str, MethodFn] = field(default_factory=dict)
    force_zero_tape: bool = False
    emulated_respondent: Optional["Machine"] = None

    def __post_init__(self):
        _check_state(self)

    def method_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.methods))


def _check_state(machine: Machine) -> None:
    """Reject a state value that is neither a value nor a ``str``: forks
    share state values, so each one must be immutable."""
    for key, value in machine.state.items():
        if not (isinstance(value, str) or is_value(value)):
            raise MalformedValueError(
                f"machine {machine.id!r} stores non-value {value!r} "
                f"under state key {key!r}"
            )


@dataclass
class Nature:
    """Location-indexed machines plus the set of read-only locations.

    A read-only location answers only ``read()`` and its state is never
    mutated; any other call yields a no-such-method outcome.
    """

    slots: dict[int, Machine] = field(default_factory=dict)
    read_only: frozenset[int] = frozenset()


@dataclass
class World:
    """Nature and a respondent; the tape seed is not part of a world."""

    nature: Nature
    respondent: Machine

    def __post_init__(self):
        seen: set[int] = set()
        for machine in (*self.nature.slots.values(), self.respondent):
            while machine is not None:
                if id(machine) in seen:
                    raise AliasedMachineError(
                        f"world holds machine {machine.id!r} more than once"
                    )
                seen.add(id(machine))
                machine = machine.emulated_respondent


def fork_machine(machine: Machine) -> Machine:
    """A machine with the same id, methods and flags and its own copy of
    the state dict (and of its emulated respondent's).

    State values are immutable (``_check_state``), so copying the dict is
    enough; the method table is shared.  The copy skips
    ``__post_init__``: the state it copies has already passed the check.
    """
    twin = object.__new__(Machine)
    twin.id = machine.id
    twin.state = dict(machine.state)
    twin.methods = machine.methods
    twin.force_zero_tape = machine.force_zero_tape
    emulated = machine.emulated_respondent
    twin.emulated_respondent = None if emulated is None else fork_machine(emulated)
    return twin


def _fork(world: World) -> World:
    """A private copy of ``world`` for one run: every machine is forked
    with ``fork_machine`` and nature gets a new slot dict under the same
    read-only set.  Running on the copy leaves ``world`` unchanged.

    The copy skips ``World.__post_init__``: one fork per machine keeps
    the no-aliasing property the source already passed.
    """
    nature = Nature(
        {index: fork_machine(m) for index, m in world.nature.slots.items()},
        world.nature.read_only,
    )
    twin = object.__new__(World)
    twin.nature = nature
    twin.respondent = fork_machine(world.respondent)
    return twin


def _same_machine(a: Optional[Machine], b: Optional[Machine]) -> bool:
    if a is None or b is None:
        return a is b
    return (
        (a.id, a.methods, a.force_zero_tape, a.state.keys())
        == (b.id, b.methods, b.force_zero_tape, b.state.keys())
        and all(same_value(v, b.state[k]) for k, v in a.state.items())
        and _same_machine(a.emulated_respondent, b.emulated_respondent)
    )


def same_world_content(a: World, b: World) -> bool:
    """Structural identity of (nature, respondent), with every state
    value compared by ``same_value``.

    This is the membership notion for evidence families: what the
    government asserts is the shape of nature and of the respondent's
    mind, not a coin sequence.
    """
    return (
        a.nature.read_only == b.nature.read_only
        and a.nature.slots.keys() == b.nature.slots.keys()
        and all(_same_machine(m, b.nature.slots[i]) for i, m in a.nature.slots.items())
        and _same_machine(a.respondent, b.respondent)
    )


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------


class Verdict(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    BUDGET = "Budget"


@dataclass(frozen=True)
class CallEvent:
    caller: str
    callee: str
    method: str
    argument: Any
    output: Any  # value, ABSENT, or NO_SUCH_METHOD

    def render(self) -> str:
        return (
            f"{self.caller} -> {self.callee}.{self.method}"
            f"({render_value(self.argument)}) = {render_value(self.output)}"
        )


@dataclass
class Transcript:
    """Ordered record of one execution: calls, messages, verdict."""

    events: list[CallEvent] = field(default_factory=list)
    messages_to_verifier: list[Any] = field(default_factory=list)
    verdict: Optional[Verdict] = None

    def set_verdict(self, verdict: Verdict) -> None:
        if self.verdict is not None:
            raise KernelError("verdict already set")
        self.verdict = verdict

    def calls_to(self, machine_id: str) -> list[CallEvent]:
        return [e for e in self.events if e.callee == machine_id]


@dataclass
class ExecutionResult:
    """A transcript plus the world and tapes as the execution left them."""

    transcript: Transcript
    post_world: World
    post_assignment: RandomnessAssignment
    steps_used: int


# ---------------------------------------------------------------------------
# Method contexts and capability proxies
# ---------------------------------------------------------------------------

_ROLE_ACTION = "action"
_ROLE_VERIFIER = "verifier"
_ROLE_TARGET = "target"
_ROLE_POST = "post"
_ROLE_NATURE = "nature"
_ROLE_RESPONDENT = "respondent"

# capabilities: (nature, respondent, send, receive, messages)
_CAPS = {
    _ROLE_ACTION: ("nature", "respondent", "send"),
    _ROLE_VERIFIER: ("nature", "receive"),
    _ROLE_TARGET: ("nature", "respondent"),
    _ROLE_POST: ("nature", "messages"),
    _ROLE_NATURE: ("nature",),
    _ROLE_RESPONDENT: (),
}


class MachineProxy:
    """Callable handle on another machine, routed through the engine so
    that every call is recorded and charged against the budget.  The
    handle carries the role the callee runs in and whether it sits at a
    read-only location."""

    def __init__(
        self,
        engine: "_Engine",
        caller_id: str,
        machine: Machine,
        role: str,
        read_only: bool,
    ):
        self._engine = engine
        self._caller_id = caller_id
        self._machine = machine
        self._role = role
        self._read_only = read_only

    def call(self, method: str, argument: Any = None) -> Any:
        return self._engine.invoke(
            self._caller_id, self._machine, self._role, self._read_only, method, argument
        )


class _RefusingRespondentProxy:
    """Stands in for the respondent in verifier context: every call is
    recorded as a no-such-method event and refused."""

    def __init__(self, engine: "_Engine", caller_id: str, respondent_id: str):
        self._engine = engine
        self._caller_id = caller_id
        self._respondent_id = respondent_id

    def call(self, method: str, argument: Any = None) -> Any:
        self._engine.record_refusal(
            self._caller_id, self._respondent_id, method, argument
        )
        raise NoSuchMethodError(self._respondent_id, method)


class _ChargingTape:
    """Tape view that charges the execution budget per read, so a machine
    cannot draw unbounded randomness for free."""

    def __init__(self, engine: "_Engine", inner):
        self._engine = engine
        self._inner = inner

    def read_bytes(self, n: int) -> bytes:
        self._engine.charge()
        return self._inner.read_bytes(n)

    def read_bit(self) -> int:
        self._engine.charge()
        return self._inner.read_bit()

    def read_below(self, bound: int) -> int:
        self._engine.charge()
        return self._inner.read_below(bound)


class MethodContext:
    """What a running method sees: its state, its tape, the name it was
    invoked under, and whatever capability handles its role grants."""

    def __init__(self, engine: "_Engine", machine: Machine, role: str, method: str):
        self._engine = engine
        self._machine = machine
        self._role = role
        self.method = method
        self.state = machine.state

    @property
    def tape(self) -> _ChargingTape:
        if self._machine.force_zero_tape:
            return _ChargingTape(self._engine, ZeroTape())
        return _ChargingTape(
            self._engine, self._engine.assignment.tape_for(self._machine.id)
        )

    def _require(self, capability: str) -> None:
        if capability not in _CAPS[self._role]:
            raise AccessViolationError(
                f"{self._role} machine {self._machine.id!r} has no "
                f"{capability!r} capability"
            )

    def nature(self, location: int | Location) -> MachineProxy:
        self._require("nature")
        nature = self._engine.world.nature
        index = location.index if isinstance(location, Location) else location
        machine = nature.slots.get(index)
        if machine is None:
            raise NoSuchMethodError(f"nature[{index}]", "<missing>")
        read_only = index in nature.read_only
        return MachineProxy(self._engine, self._machine.id, machine, _ROLE_NATURE, read_only)

    @property
    def respondent(self):
        engine, caller = self._engine, self._machine.id
        respondent = self._machine.emulated_respondent
        if respondent is None:
            if self._role == _ROLE_VERIFIER:
                return _RefusingRespondentProxy(engine, caller, engine.world.respondent.id)
            self._require("respondent")
            respondent = engine.world.respondent
        return MachineProxy(engine, caller, respondent, _ROLE_RESPONDENT, False)

    def send(self, value: Any) -> None:
        self._require("send")
        if not is_value(value):
            raise MalformedValueError(f"cannot send non-value {value!r}")
        self._engine.charge()
        self._engine.transcript.messages_to_verifier.append(value)

    def receive(self) -> Any:
        """Next buffered message, or ABSENT when none remain."""
        self._require("receive")
        return self._engine.next_message()

    @property
    def messages(self) -> tuple[Any, ...]:
        self._require("messages")
        return tuple(self._engine.transcript.messages_to_verifier)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, world: World, assignment: RandomnessAssignment, budget: int):
        self.world = world
        self.assignment = assignment
        self.budget = budget
        self.steps = 0
        self.transcript = Transcript()
        self._cursor = 0  # verifier's position in the message buffer

    def charge(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError(f"step budget of {self.budget} exhausted")

    def next_message(self) -> Any:
        buffer = self.transcript.messages_to_verifier
        if self._cursor >= len(buffer):
            return ABSENT
        value = buffer[self._cursor]
        self._cursor += 1
        return value

    def record_refusal(self, caller: str, callee: str, method: str, argument) -> None:
        self.transcript.events.append(
            CallEvent(caller, callee, method, argument, NO_SUCH_METHOD)
        )

    def invoke(
        self,
        caller_id: str,
        machine: Machine,
        role: str,
        read_only: bool,
        method: str,
        argument: Any,
    ) -> Any:
        """Run ``machine.method(argument)`` in ``role``; a machine at a
        read-only location answers only ``read``."""
        self.charge()
        fn = machine.methods.get(method)
        if fn is None or (read_only and method != "read"):
            self.record_refusal(caller_id, machine.id, method, argument)
            raise NoSuchMethodError(machine.id, method)
        ctx = MethodContext(self, machine, role, method)
        try:
            output = fn(ctx, argument)
        except KernelError:
            raise
        except Exception as exc:
            raise MethodFaultError(
                f"machine {machine.id!r} method {method!r} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            _check_state(machine)
        if output is not ABSENT and not is_value(output):
            raise MalformedValueError(
                f"{machine.id}.{method} returned non-value {output!r}"
            )
        self.transcript.events.append(
            CallEvent(caller_id, machine.id, method, argument, output)
        )
        return output


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def execute(
    verifier: Machine,
    action: Machine,
    world: World,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> ExecutionResult:
    """Two-phase run of ``verifier`` against ``action`` in ``world``
    under fresh tapes for ``seed``.

    The verifier, action and world are all driven as private copies, so
    calling code can reuse the same objects across cells.

    Verdicts: the verifier's output ``True`` means accept, anything else
    (including ⊥ or no output) rejects.  Exhausting the budget yields
    the non-accepting ``Budget`` verdict; a no-such-method outcome that
    the acting machine does not survive yields ``Reject`` with the
    attempt recorded.
    """
    engine = _Engine(_fork(world), RandomnessAssignment(seed), budget)
    try:
        acting, checking = fork_machine(action), fork_machine(verifier)
        engine.invoke("execution", acting, _ROLE_ACTION, False, "run", None)
        output = engine.invoke("execution", checking, _ROLE_VERIFIER, False, "run", None)
        verdict = Verdict.ACCEPT if output is True else Verdict.REJECT
    except NoSuchMethodError:
        verdict = Verdict.REJECT
    except BudgetExceededError:
        verdict = Verdict.BUDGET
    engine.transcript.set_verdict(verdict)
    return ExecutionResult(
        engine.transcript, engine.world, engine.assignment, engine.steps
    )


def run_target(
    target: Machine, world: World, seed: int, budget: int = DEFAULT_BUDGET
) -> Any:
    """Run a target action to completion and return its output value.

    The target has oracle access to nature and the respondent and draws
    from its own tape under fresh tapes for ``seed``, the same setting
    an execution of that seed starts from.  A target that produces no
    output is an error.
    """
    engine = _Engine(_fork(world), RandomnessAssignment(seed), budget)
    acting = fork_machine(target)
    output = engine.invoke("execution", acting, _ROLE_TARGET, False, "run", None)
    if output is ABSENT:
        raise AbsentOutputError(f"target {target.id!r} produced no output")
    return output


def run_post(
    post: Machine, result: ExecutionResult, budget: int = DEFAULT_BUDGET
) -> Any:
    """Run a post-processor after the execution that produced ``result``.

    The post-processor sees nature as the interaction left it plus the
    message log, and reads the tapes on from where the execution
    stopped; it has no respondent access.  ``result`` is left unchanged.
    """
    engine = _Engine(_fork(result.post_world), result.post_assignment.fork(), budget)
    engine.transcript.messages_to_verifier.extend(
        result.transcript.messages_to_verifier
    )
    return engine.invoke("execution", fork_machine(post), _ROLE_POST, False, "run", None)


class DirectInvoker:
    """Drives machines one call at a time, outside any execution.

    Used by probes and tests that need sequential stateful invocations
    ("call prompt, then call read") against a machine as such.  Calls
    mutate the machine object that is passed in.
    """

    def __init__(
        self,
        world: Optional[World] = None,
        budget: int = DEFAULT_BUDGET,
        seed: int = 0,
    ):
        if world is None:
            world = World(nature=Nature(), respondent=Machine(id="bench-respondent"))
        self._engine = _Engine(world, RandomnessAssignment(seed), budget)

    def invoke(self, machine: Machine, method: str, argument: Any = None) -> Any:
        """Call ``machine.method(argument)`` as a nature machine at a
        writable location."""
        return self._engine.invoke("bench", machine, _ROLE_NATURE, False, method, argument)

    def fork(self) -> "DirectInvoker":
        """An invoker that goes on from this one's step count and tape
        offsets over its own fork of the world; the two then advance
        independently.  The transcript of the fork starts empty."""
        engine = self._engine
        twin = object.__new__(DirectInvoker)
        twin._engine = _Engine(_fork(engine.world), engine.assignment.fork(), engine.budget)
        twin._engine.steps = engine.steps
        return twin


# ---------------------------------------------------------------------------
# Machine constructors used across scenarios and probes
# ---------------------------------------------------------------------------


def _read_stored(ctx, _arg):
    return ctx.state["value"]


def read_only_store(machine_id: str, value: Any) -> Machine:
    """A store machine whose single method ``read()`` returns a fixed value."""
    if not is_value(value):
        raise MalformedValueError(f"stored content must be a value, got {value!r}")
    return Machine(id=machine_id, state={"value": value}, methods={"read": _read_stored})


def emulate_with_respondent(action: Machine, respondent: Machine) -> Machine:
    """The action that runs ``action``'s code against a private emulated
    copy of ``respondent`` instead of the world's actual respondent.

    The real respondent receives no calls at all, so the execution (and
    anything computed from it) is independent of who the respondent is.
    """
    stand_in = fork_machine(respondent)
    stand_in.id = f"emulated:{respondent.id}"
    return Machine(
        id=f"{action.id}+emulating-{respondent.id}",
        state=dict(action.state),
        methods=dict(action.methods),
        force_zero_tape=action.force_zero_tape,
        emulated_respondent=stand_in,
    )


def with_zero_tape(action: Machine) -> Machine:
    """Copy of ``action`` with its randomness tape pinned to all zeros."""
    pinned = fork_machine(action)
    pinned.id = f"{action.id}+zero-coins"
    pinned.force_zero_tape = True
    return pinned
