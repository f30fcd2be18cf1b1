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

A built ``Machine``, ``Nature`` or ``World`` cannot change: its fields
are frozen, and its ``state``, ``methods`` or ``slots`` is a read-only
view of a copy of the dict it was built from.

Every entry point takes the cell's seed.  ``execute`` and
``run_target`` start from fresh tapes for it; ``run_post`` continues
the machine states, and the seed's tapes, from where an execution left
them.  A run keeps the states it writes in an overlay, a
dict from a built machine to that run's private state dict.  A machine
gets its entry, a copy of its built state, on its first invoke at a
writable place, so a run copies only the machines it calls; a
read-only slot never gets one.  An ``ExecutionResult`` carries its
overlay out as ``states``.  Each run also reports whether it read its
``RandomnessAssignment``: the engine sets ``read_tape`` when
``ctx.tape`` hands out a tape over the assignment, and
``ExecutionResult`` and ``RunOutput`` carry the flag out.  A
``force_zero_tape`` machine reads a ``ZeroTape`` and does not count.
The seed reaches a run only through the assignment, so a run that did
not read it is the run under every seed.

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
machine states.  Method code keeps everything it remembers in
``ctx.state`` (never in captured closures), and every state value is an
immutable value of the algebra or a ``str``: ``Machine`` construction
and the engine, after every call at a writable place whether the
method returned or raised, enforce this with ``MalformedValueError``.
That rule is what lets an overlay copy a machine's state dict and share
the values.  The overlay is keyed by machine object, so a run refuses
one object in two places with ``AliasedMachineError``, as a ``World``
does.  A method that writes the built state of a read-only slot faults.

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

from enum import Enum
from functools import wraps
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from .tapes import RandomnessAssignment, ZeroTape
from .values import (
    ABSENT,
    ATOM_TYPES,
    NO_SUCH_METHOD,
    Frozen,
    Location,
    is_value,
    read_only_copy,
    render_value,
    value_key,
)

DEFAULT_BUDGET = 100_000

MethodFn = Callable[["MethodContext", Any], Any]

# A state value may also be a ``str``; see ``values.ATOM_TYPES``.
_STATE_TYPES = ATOM_TYPES | {str}


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


class Machine(Frozen):
    """A stateful machine: identifier, variable store, and method table.

    Two machines are structurally identical when they share an id, equal
    state, and the same method functions per name.  Scenario builders
    keep method functions at module level so that independently built
    copies of a machine compare equal.

    ``force_zero_tape`` pins the machine's coins to all zeros.
    ``emulated_respondent`` replaces the machine's view of the
    respondent with a private emulated copy (used by the impossibility
    probes).

    ``state`` and ``methods`` are read-only views of copies of the
    dicts given, so a built machine cannot change.  ``_derived`` keeps
    the machines ``with_zero_tape`` and ``emulate_with_respondent``
    derive from this one (``_kept_on_the_build``): they depend on
    nothing but built machines, so each is built once per build.
    """

    __slots__ = (
        "id",
        "state",
        "methods",
        "force_zero_tape",
        "emulated_respondent",
        "_derived",
    )

    def __init__(
        self,
        id: str,
        state: Optional[dict[str, Any]] = None,
        methods: Optional[dict[str, MethodFn]] = None,
        force_zero_tape: bool = False,
        emulated_respondent: Optional[Machine] = None,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "state", read_only_copy(state))
        object.__setattr__(self, "methods", read_only_copy(methods))
        object.__setattr__(self, "force_zero_tape", force_zero_tape)
        object.__setattr__(self, "emulated_respondent", emulated_respondent)
        object.__setattr__(self, "_derived", None)
        _check_state(id, self.state)

    def method_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.methods))


def _check_state(machine_id: str, state) -> None:
    """Reject a state value that is neither a value nor a ``str``: an
    overlay shares state values, so each one must be immutable."""
    for key, value in state.items():
        if type(value) not in _STATE_TYPES and not (isinstance(value, str) or is_value(value)):
            raise MalformedValueError(
                f"machine {machine_id!r} stores non-value {value!r} "
                f"under state key {key!r}"
            )


# The states of no machine: every machine reads its built state.
_NO_STATES = MappingProxyType({})


def _refuse_aliases(*machines: Machine, held=frozenset(), base: Mapping = _NO_STATES) -> set:
    """The set of ``machines`` and their emulated respondents.  Raise
    ``AliasedMachineError`` when one machine object is there twice, or
    is in ``held`` (a world's machines) or ``base`` (states a run goes
    on from): states are kept by machine object, so the two places
    would share one state."""
    seen = set()
    for machine in machines:
        while machine is not None:
            if machine in seen or machine in held or machine in base:
                raise AliasedMachineError(f"machine {machine.id!r} is held more than once")
            seen.add(machine)
            machine = machine.emulated_respondent
    return seen


class Nature(Frozen):
    """Location-indexed machines plus the set of read-only locations;
    ``slots`` is a read-only view of a copy of the dict given.

    A read-only location answers only ``read()``, and any other call
    yields a no-such-method outcome.  A run never copies the state of
    the machine there, so a ``read`` that writes its state faults.
    """

    __slots__ = ("slots", "read_only")

    def __init__(
        self,
        slots: Optional[dict[int, Machine]] = None,
        read_only: frozenset[int] = frozenset(),
    ):
        object.__setattr__(self, "slots", read_only_copy(slots))
        object.__setattr__(self, "read_only", frozenset(read_only))


class World(Frozen):
    """Nature and a respondent; the tape seed is not part of a world.
    No machine object may appear in a world twice; ``_machines`` holds
    each one, emulated respondents included."""

    __slots__ = ("nature", "respondent", "_machines")

    def __init__(self, nature: Nature, respondent: Machine):
        object.__setattr__(self, "nature", nature)
        object.__setattr__(self, "respondent", respondent)
        held = _refuse_aliases(*nature.slots.values(), respondent)
        object.__setattr__(self, "_machines", frozenset(held))


def machine_key(machine: Optional[Machine], states: Mapping = _NO_STATES) -> Optional[tuple]:
    """A hashable, type-strict key of a machine's content: id, method
    functions, zero-tape flag, state values under ``value_key`` and the
    emulated respondent's key.  Machines with equal keys run alike.  A
    machine's state, and its emulated respondent's, is read from
    ``states`` (a run's ``states``) where it has one there."""
    if machine is None:
        return None
    return (
        machine.id,
        tuple(sorted(machine.methods.items())),
        machine.force_zero_tape,
        tuple(
            sorted((name, value_key(v)) for name, v in states.get(machine, machine.state).items())
        ),
        machine_key(machine.emulated_respondent, states),
    )


def world_key(world: World) -> tuple:
    """A hashable key of (nature, respondent): the read-only set and the
    ``machine_key`` of every slot and of the respondent.

    This is the membership notion for evidence families: what the
    government asserts is the shape of nature and of the respondent's
    mind, not a coin sequence.
    """
    return (
        world.nature.read_only,
        tuple(sorted((i, machine_key(m)) for i, m in world.nature.slots.items())),
        machine_key(world.respondent),
    )


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------


class Verdict(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    BUDGET = "Budget"


class CallEvent(Frozen):
    __slots__ = ("caller", "callee", "method", "argument", "output")

    def __init__(self, caller: str, callee: str, method: str, argument: Any, output: Any):
        # The kernel builds one event per call, so each slot is set
        # through its own descriptor, which ``Frozen.__setattr__`` does
        # not intercept, rather than through ``object.__setattr__``.
        _set_caller(self, caller)
        _set_callee(self, callee)
        _set_method(self, method)
        _set_argument(self, argument)
        _set_output(self, output)  # value, ABSENT, or NO_SUCH_METHOD

    def render(self) -> str:
        return (
            f"{self.caller} -> {self.callee}.{self.method}"
            f"({render_value(self.argument)}) = {render_value(self.output)}"
        )


_set_caller, _set_callee, _set_method, _set_argument, _set_output = (
    CallEvent.__dict__[name].__set__ for name in CallEvent.__slots__
)


class Transcript:
    """Ordered record of one execution: calls, messages, verdict."""

    __slots__ = ("events", "messages_to_verifier", "verdict")

    def __init__(self):
        self.events = []
        self.messages_to_verifier = []
        self.verdict = None

    def set_verdict(self, verdict: Verdict) -> None:
        if self.verdict is not None:
            raise KernelError("verdict already set")
        self.verdict = verdict


class ExecutionResult:
    """A transcript, the world the execution ran in, the machine states
    and tape offsets as it left them, and whether it read its tapes.
    ``states`` holds the state of each machine the execution called at a
    writable place, keyed by the machine object; any other machine is as
    built.  ``offsets`` maps each stream id the execution read to the
    number of bytes it read there.  No seed is kept, so a result that
    read no tape holds nothing of the seed it ran under and is every
    seed's execution."""

    __slots__ = ("transcript", "world", "states", "offsets", "steps_used", "read_tape")

    def __init__(
        self,
        transcript: Transcript,
        world: World,
        states: Mapping,
        offsets: Mapping[str, int],
        steps_used: int,
        read_tape: bool,
    ):
        self.transcript = transcript
        self.world = world
        self.states = states
        self.offsets = offsets
        self.steps_used = steps_used
        self.read_tape = read_tape


class RunOutput(Frozen):
    """The output of a target or post-processor run, and whether the run
    read its tapes."""

    __slots__ = ("output", "read_tape")

    def __init__(self, output: Any, read_tape: bool):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "read_tape", read_tape)


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

    __slots__ = ("_engine", "_caller_id", "_machine", "_role", "_read_only")

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


class MethodContext:
    """What a running method sees: its state, its tape, the name it was
    invoked under, and whatever capability handles its role grants."""

    __slots__ = ("_engine", "_machine", "_role", "method", "state")

    def __init__(self, engine: "_Engine", machine: Machine, role: str, method: str, state):
        self._engine = engine
        self._machine = machine
        self._role = role
        self.method = method
        self.state = state

    @property
    def tape(self) -> _ChargingTape:
        if self._machine.force_zero_tape:
            return _ChargingTape(self._engine, ZeroTape())
        self._engine.read_tape = True
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
        # True and 1.0 equal 1 as dict keys, but only an int names a slot
        machine = nature.slots.get(index) if type(index) is int else None
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
    """One run over ``world``: its tapes, budget, transcript and
    ``states``, the overlay of the states it writes.  A machine's entry
    there is made on its first invoke at a writable place, as a copy of
    its state in ``base``, the states the run goes on from, or else of
    its built state.  The run's own ``machines`` (the action and the
    verifier, a target or a post-processor) must be distinct from the
    world's and from those ``base`` holds states of
    (``AliasedMachineError``)."""

    def __init__(
        self,
        world: World,
        assignment: RandomnessAssignment,
        budget: int,
        *machines: Machine,
        base: Mapping = _NO_STATES,
    ):
        _refuse_aliases(*machines, held=world._machines, base=base)
        self.world = world
        self.assignment = assignment
        self.budget = budget
        self.base = base
        self.states = {}
        self.steps = 0
        self.read_tape = False  # set once a tape over ``assignment`` is handed out
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
        self.transcript.events.append(CallEvent(caller, callee, method, argument, NO_SUCH_METHOD))

    def invoke(
        self,
        caller_id: str,
        machine: Machine,
        role: str,
        read_only: bool,
        method: str,
        argument: Any,
    ) -> Any:
        """Run ``machine.method(argument)`` in ``role`` on the machine's
        state in this run; a machine at a read-only location answers only
        ``read``, on its built state."""
        self.charge()
        fn = machine.methods.get(method)
        if fn is None or (read_only and method != "read"):
            self.record_refusal(caller_id, machine.id, method, argument)
            raise NoSuchMethodError(machine.id, method)
        if read_only:
            state = machine.state
        else:
            state = self.states.get(machine)
            if state is None:
                state = self.states[machine] = self.base.get(machine, machine.state).copy()
        ctx = MethodContext(self, machine, role, method, state)
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
            # a read-only invoke ran on the built state, which a write faults
            if not read_only:
                _check_state(machine.id, state)
        if type(output) not in ATOM_TYPES and output is not ABSENT and not is_value(output):
            raise MalformedValueError(
                f"{machine.id}.{method} returned non-value {output!r}"
            )
        self.transcript.events.append(CallEvent(caller_id, machine.id, method, argument, output))
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

    The run keeps the states it writes in an overlay of its own, so
    calling code can reuse the same objects across cells.  One machine
    object in two places of the run (the action and the verifier, or a
    machine of the world) is refused with ``AliasedMachineError``.

    Verdicts: the verifier's output ``True`` means accept, anything else
    (including ⊥ or no output) rejects.  Exhausting the budget yields
    the non-accepting ``Budget`` verdict; a no-such-method outcome that
    the acting machine does not survive yields ``Reject`` with the
    attempt recorded.
    """
    engine = _Engine(world, RandomnessAssignment(seed), budget, action, verifier)
    try:
        engine.invoke("execution", action, _ROLE_ACTION, False, "run", None)
        output = engine.invoke("execution", verifier, _ROLE_VERIFIER, False, "run", None)
        verdict = Verdict.ACCEPT if output is True else Verdict.REJECT
    except NoSuchMethodError:
        verdict = Verdict.REJECT
    except BudgetExceededError:
        verdict = Verdict.BUDGET
    engine.transcript.set_verdict(verdict)
    return ExecutionResult(
        engine.transcript,
        world,
        engine.states,
        engine.assignment.offsets,
        engine.steps,
        engine.read_tape,
    )


def run_target(
    target: Machine, world: World, seed: int, budget: int = DEFAULT_BUDGET
) -> RunOutput:
    """Run a target action to completion and return its output value
    and whether it read a tape.

    The target has oracle access to nature and the respondent and draws
    from its own tape under fresh tapes for ``seed``, the same setting
    an execution of that seed starts from.  A target that produces no
    output is an error, and so is a target that is also a machine of
    ``world`` (``AliasedMachineError``).
    """
    engine = _Engine(world, RandomnessAssignment(seed), budget, target)
    output = engine.invoke("execution", target, _ROLE_TARGET, False, "run", None)
    if output is ABSENT:
        raise AbsentOutputError(f"target {target.id!r} produced no output")
    return RunOutput(output, engine.read_tape)


def run_post(
    post: Machine, result: ExecutionResult, seed: int, budget: int = DEFAULT_BUDGET
) -> RunOutput:
    """Run a post-processor after the execution that produced ``result``
    under ``seed``, and return its output and whether it read a tape.

    The post-processor sees nature as the interaction left it plus the
    message log, and reads the tapes for ``seed`` on from
    ``result.offsets``; it has no respondent access.  A result that read
    no tape left no offsets, so it serves a post-processor run under any
    seed.  A machine's first invoke copies its state from
    ``result.states``, so ``result`` is left unchanged.  A post-processor
    that is also a machine of the world, or one the execution called, is
    refused with ``AliasedMachineError``.
    """
    engine = _Engine(
        result.world,
        RandomnessAssignment(seed, dict(result.offsets)),
        budget,
        post,
        base=result.states,
    )
    engine.transcript.messages_to_verifier.extend(
        result.transcript.messages_to_verifier
    )
    output = engine.invoke("execution", post, _ROLE_POST, False, "run", None)
    return RunOutput(output, engine.read_tape)


# The world of a ``DirectInvoker`` given none: an empty nature and a
# respondent that a machine run as nature cannot reach.  A build cannot
# change, so one world serves every such invoker.
_NO_WORLD = World(Nature(), Machine("bench-respondent"))


class DirectInvoker:
    """Drives machines one call at a time, outside any execution.

    Used by probes and tests that need sequential stateful invocations
    ("call prompt, then call read") against a machine as such.  Like a
    run, the invoker keeps the states its calls write in an overlay of
    its own, so the machine passed in stays as it was built.

    Every call runs under seed 0, so the refinement probes do too.
    Besides the world and the budget, what the next call sees is the
    invoker's ``position``: the steps charged so far, the tape offsets
    consumed and the machine states.  ``move_to`` sets it, so one
    invoker can run calls from many positions over the same world.
    """

    def __init__(self, world: World = _NO_WORLD, budget: int = DEFAULT_BUDGET):
        self._engine = _Engine(world, RandomnessAssignment(0), budget)

    def invoke(self, machine: Machine, method: str, argument: Any = None) -> Any:
        """Call ``machine.method(argument)`` as a nature machine at a
        writable location."""
        return self._engine.invoke("bench", machine, _ROLE_NATURE, False, method, argument)

    @property
    def position(self) -> tuple:
        """The steps charged so far, the tape offsets consumed, as
        (stream id, offset) pairs sorted by stream id, and the state of
        each machine called so far, keyed by the machine object.
        Reading it seals those states: a later call copies a state before
        it writes it, so a position once read never changes."""
        engine = self._engine
        engine.base = {**engine.base, **engine.states}
        engine.states = {}
        return engine.steps, tuple(sorted(engine.assignment.offsets.items())), engine.base

    def move_to(self, position: tuple) -> None:
        """Go on from ``position``, as ``position`` returned it."""
        steps, offsets, states = position
        self._engine.steps = steps
        self._engine.assignment.offsets = dict(offsets)
        self._engine.base, self._engine.states = states, {}


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


def _kept_on_the_build(derive: Callable[..., Machine]) -> Callable[..., Machine]:
    """``derive``, returning the same object for the same built machines:
    the first result is kept on the first machine (``Machine._derived``)
    under ``derive`` and the other machines, and read on every later
    call."""

    @wraps(derive)
    def kept(machine: Machine, *others: Machine) -> Machine:
        derived = machine._derived
        if derived is None:
            derived = {}
            object.__setattr__(machine, "_derived", derived)
        key = (derive, *others)
        made = derived.get(key)
        if made is None:
            made = derived[key] = derive(machine, *others)
        return made

    return kept


@_kept_on_the_build
def emulate_with_respondent(action: Machine, respondent: Machine) -> Machine:
    """The action that runs ``action``'s code against a private emulated
    copy of ``respondent`` instead of the world's actual respondent.

    The real respondent receives no calls at all, so the execution (and
    anything computed from it) is independent of who the respondent is.
    For two built machines the result is the same object every time, so
    runs kept under its identity serve a probe run again.
    """
    stand_in = Machine(
        f"emulated:{respondent.id}",
        respondent.state,
        respondent.methods,
        respondent.force_zero_tape,
        respondent.emulated_respondent,
    )
    return Machine(
        f"{action.id}+emulating-{respondent.id}",
        action.state,
        action.methods,
        action.force_zero_tape,
        stand_in,
    )


@_kept_on_the_build
def with_zero_tape(action: Machine) -> Machine:
    """Copy of ``action`` with its randomness tape pinned to all zeros;
    the same object every time for a built machine."""
    return Machine(
        f"{action.id}+zero-coins", action.state, action.methods, True, action.emulated_respondent
    )
