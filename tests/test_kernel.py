from __future__ import annotations

from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import changed_world, event_key, run_key, transcript_key
from foregone.kernel import (
    DEFAULT_BUDGET,
    AbsentOutputError,
    AccessViolationError,
    AliasedMachineError,
    BudgetExceededError,
    CallEvent,
    DirectInvoker,
    Machine,
    MalformedValueError,
    MethodFaultError,
    Nature,
    NoSuchMethodError,
    Verdict,
    World,
    _Engine,
    emulate_with_respondent,
    execute,
    read_only_store,
    run_post,
    machine_key,
    run_target,
    with_zero_tape,
    world_key,
)
from foregone.tapes import RandomnessAssignment
from foregone.values import ABSENT, NO_SUCH_METHOD, Location, is_value, same_value
from foregone.scenarios.common import accept_any_verifier, do_nothing_action, mind
from foregone.scenarios.password import (
    DEVICE_LOCATION,
    decrypt_target,
    exemplar_action,
    password_device,
    unlocked_verifier,
)
from foregone.scenarios.hybrid import plain_store, writable_store


def password_world(pwd=b"hunter2", message=b"tax-records") -> World:
    return World(
        nature=Nature(slots={DEVICE_LOCATION: password_device(pwd, message)}),
        respondent=mind("knows-password", pwd=pwd),
    )


# --- direct invocation --------------------------------------------------------


def test_prompt_then_read_discloses_the_message():
    device = password_device(b"hunter2", b"tax-records")
    invoker = DirectInvoker()
    assert invoker.invoke(device, "read") is None  # locked: the null value
    invoker.invoke(device, "prompt", b"hunter2")
    assert invoker.invoke(device, "read") == b"tax-records"


def test_wrong_password_keeps_the_device_locked():
    device = password_device(b"hunter2", b"tax-records")
    invoker = DirectInvoker()
    invoker.invoke(device, "prompt", b"guess")
    assert invoker.invoke(device, "read") is None


def test_undefined_method_raises_without_mutating_state():
    device = plain_store(b"alpha")
    invoker = DirectInvoker()
    with pytest.raises(NoSuchMethodError):
        invoker.invoke(device, "write", b"cats")
    # a refused call does not even copy the state
    assert invoker.position[2] == {}


def test_write_method_present_on_the_writable_variant():
    device = writable_store(b"alpha")
    invoker = DirectInvoker()
    invoker.invoke(device, "write", b"cats")
    assert invoker.invoke(device, "read") == b"cats"


def test_a_position_once_read_never_changes():
    first, second = writable_store(b"alpha"), writable_store(b"beta")
    invoker = DirectInvoker()
    start = invoker.position
    invoker.invoke(first, "write", b"one")
    wrote_one = invoker.position
    invoker.invoke(first, "write", b"two")
    assert wrote_one[2][first]["content"] == b"one"
    # a position taken after a move keeps the states it moved to
    invoker.move_to(wrote_one)
    invoker.invoke(second, "write", b"three")
    wrote_three = invoker.position
    for position, reads in (
        (start, (b"alpha", b"beta")),
        (wrote_one, (b"one", b"beta")),
        (wrote_three, (b"one", b"three")),
    ):
        invoker.move_to(position)
        assert (invoker.invoke(first, "read"), invoker.invoke(second, "read")) == reads
    assert (first.state["content"], second.state["content"]) == (b"alpha", b"beta")


# --- execute -------------------------------------------------------------------


def test_exemplar_unlock_is_accepted():
    result = execute(unlocked_verifier(), exemplar_action(), password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT


def test_accept_any_verifier_accepts_doing_nothing():
    result = execute(accept_any_verifier(), do_nothing_action(), password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT


def test_doing_nothing_fails_the_display_check():
    result = execute(unlocked_verifier(), do_nothing_action(), password_world(), 0)
    assert result.transcript.verdict is Verdict.REJECT


def test_execute_runs_action_before_verifier():
    result = execute(unlocked_verifier(), exemplar_action(), password_world(), 0)
    callers = [event.caller for event in result.transcript.events]
    first_verifier_event = callers.index("device-displays-message")
    assert all(c != "device-displays-message" for c in callers[:first_verifier_event])
    assert any(c == "enter-password" for c in callers[:first_verifier_event])


def test_missing_method_inside_action_rejects_and_records_the_event():
    def grab(ctx, _arg):
        ctx.nature(DEVICE_LOCATION).call("eject")
        return ABSENT

    action = Machine(id="try-eject", methods={"run": grab})
    result = execute(unlocked_verifier(), action, password_world(), 0)
    assert result.transcript.verdict is Verdict.REJECT
    attempt = result.transcript.events[0]
    assert attempt.method == "eject"
    assert attempt.output is NO_SUCH_METHOD


def test_verifier_reaching_for_the_respondent_is_refused_and_recorded():
    def nosy(ctx, _arg):
        ctx.respondent.call("pwd")
        return True

    verifier = Machine(id="nosy-check", methods={"run": nosy})
    world = password_world()
    result = execute(verifier, do_nothing_action(), world, 0)
    assert result.transcript.verdict is Verdict.REJECT
    refusals = [
        e
        for e in result.transcript.events
        if e.callee == world.respondent.id and e.output is NO_SUCH_METHOD
    ]
    assert refusals and refusals[0].caller == "nosy-check"


# --- capabilities per role ---------------------------------------------------------

# one use per capability: nature, respondent, send, receive, messages
_CAPABILITY_USES = (
    lambda ctx: ctx.nature(0),
    lambda ctx: ctx.respondent.call("name"),
    lambda ctx: ctx.send(b"m"),
    lambda ctx: ctx.receive(),
    lambda ctx: ctx.messages,
)


def _try_each_capability(ctx, _arg):
    outcomes = []
    for use in _CAPABILITY_USES:
        try:
            use(ctx)
            outcomes.append(b"ok")
        except AccessViolationError:
            outcomes.append(b"denied")
        except NoSuchMethodError:
            outcomes.append(b"refused")
    return b" ".join(outcomes)


def _call_nature_by_int(ctx, _arg):
    return ctx.nature(0).call("run")


def _call_nature_by_location(ctx, _arg):
    return ctx.nature(Location(0)).call("run")


def _call_respondent(ctx, _arg):
    return ctx.respondent.call("run")


def _probe():
    return Machine(id="cap-probe", methods={"run": _try_each_capability})


def _capability_world(slot=None, respondent=None):
    return World(
        nature=Nature(slots={0: slot or read_only_store("shelf", b"s")}),
        respondent=respondent or mind("bystander", name=b"r"),
    )


def _outcome_of(callee, result):
    (event,) = [e for e in result.transcript.events if e.callee == callee]
    return event.output


def _reached_from_an_action(driver, world):
    action = Machine(id="driver", methods={"run": driver})
    return _outcome_of("cap-probe", execute(accept_any_verifier(), action, world, 0))


_ROLE_CASES = {
    "action": lambda: _outcome_of(
        "cap-probe", execute(accept_any_verifier(), _probe(), _capability_world(), 0)
    ),
    "verifier": lambda: _outcome_of(
        "cap-probe", execute(_probe(), do_nothing_action(), _capability_world(), 0)
    ),
    "target": lambda: run_target(_probe(), _capability_world(), 0).output,
    "post": lambda: run_post(
        _probe(),
        execute(accept_any_verifier(), do_nothing_action(), _capability_world(), 0),
        0,
    ).output,
    "nature via int": lambda: _reached_from_an_action(
        _call_nature_by_int, _capability_world(slot=_probe())
    ),
    "nature via Location": lambda: _reached_from_an_action(
        _call_nature_by_location, _capability_world(slot=_probe())
    ),
    "respondent": lambda: _reached_from_an_action(
        _call_respondent, _capability_world(respondent=_probe())
    ),
    "an action's emulated respondent": lambda: _outcome_of(
        "emulated:cap-probe",
        execute(
            accept_any_verifier(),
            emulate_with_respondent(
                Machine(id="driver", methods={"run": _call_respondent}), _probe()
            ),
            _capability_world(),
            0,
        ),
    ),
    # A machine reached through any emulated-respondent handle runs as the
    # respondent, also when the handle's owner sits in nature.
    "a nature machine's emulated respondent": lambda: _reached_from_an_action(
        _call_nature_by_int,
        _capability_world(
            slot=Machine(
                id="relay", methods={"run": _call_respondent}, emulated_respondent=_probe()
            )
        ),
    ),
}

_EXPECTED_CAPABILITIES = {
    "action": "ok ok ok denied denied",
    "verifier": "ok refused denied ok denied",
    "target": "ok ok denied denied denied",
    "post": "ok denied denied denied ok",
    "nature via int": "ok denied denied denied denied",
    "nature via Location": "ok denied denied denied denied",
    "respondent": "denied denied denied denied denied",
    "an action's emulated respondent": "denied denied denied denied denied",
    "a nature machine's emulated respondent": "denied denied denied denied denied",
}


@pytest.mark.parametrize("case", list(_ROLE_CASES))
def test_each_role_uses_exactly_its_capabilities(case):
    assert _ROLE_CASES[case]().decode() == _EXPECTED_CAPABILITIES[case]


def _write_through(ctx, _arg):
    return ctx.nature(ctx.state["where"]).call("write", b"defaced")


@pytest.mark.parametrize("where", [1, Location(1)])
def test_a_writable_store_at_a_read_only_slot_answers_only_read(where):
    # the store defines ``write``; only the location's flag refuses it
    world = World(
        nature=Nature(slots={1: writable_store(b"sealed")}, read_only=frozenset({1})),
        respondent=mind("bystander", name=b"r"),
    )
    action = Machine(id="vandal", state={"where": where}, methods={"run": _write_through})
    store = world.nature.slots[1]
    result = execute(accept_any_verifier(), action, world, 0)
    assert result.transcript.verdict is Verdict.REJECT
    assert result.transcript.events[0].output is NO_SUCH_METHOD
    assert machine_key(store, result.states) == machine_key(store)

    result = execute(accept_any_verifier(), action, changed_world(world, read_only=frozenset()), 0)
    assert result.transcript.verdict is Verdict.ACCEPT
    assert result.states[store]["content"] == b"defaced"
    assert store.state["content"] == b"sealed"


def test_extra_messages_are_recorded_and_ignored_by_the_verifier():
    def chatter(ctx, _arg):
        pwd = ctx.respondent.call("pwd")
        ctx.nature(DEVICE_LOCATION).call("prompt", pwd)
        ctx.send(b"one")
        ctx.send(b"two")
        return ABSENT

    action = Machine(id="chatter", methods={"run": chatter})
    result = execute(unlocked_verifier(), action, password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT
    assert result.transcript.messages_to_verifier == [b"one", b"two"]


def test_receive_on_an_empty_buffer_yields_absent():
    def wants_mail(ctx, _arg):
        return ctx.receive() is ABSENT

    verifier = Machine(id="mail-check", methods={"run": wants_mail})
    result = execute(verifier, do_nothing_action(), password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT


# --- isolation and determinism --------------------------------------------------


def test_entry_points_leave_their_input_world_and_result_unchanged():
    # The input world is a built one, which cannot change; the result's
    # states are the execution's, which ``run_post`` must not write.
    world = password_world()
    device = world.nature.slots[DEVICE_LOCATION]
    pristine = world_key(world)
    result = execute(unlocked_verifier(), exemplar_action(), world, 3)
    assert result.states[device]["unlocked"]
    assert run_target(decrypt_target(), world, 3).output == b"tax-records"
    assert world_key(world) == pristine
    assert not device.state["unlocked"]

    states = {machine: dict(state) for machine, state in result.states.items()}
    offsets = dict(result.offsets)

    def relock_and_draw(ctx, _arg):
        ctx.nature(DEVICE_LOCATION).call("prompt", b"wrong")
        return ctx.tape.read_bytes(4)

    post = Machine(id="relocker", methods={"run": relock_and_draw})
    assert run_key(run_post(post, result, 3)) == run_key(run_post(post, result, 3))
    assert result.states == states
    assert result.offsets == offsets
    assert result.world is world


def test_post_processor_reads_the_tape_continuing_where_the_execution_stopped():
    from foregone.tapes import RandomnessAssignment

    def draw_and_send(ctx, _arg):
        ctx.send(ctx.tape.read_bytes(3))
        return ABSENT

    def draw(ctx, _arg):
        return ctx.tape.read_bytes(16)

    action = Machine(id="drawer", methods={"run": draw_and_send})
    post = Machine(id="drawer", methods={"run": draw})
    result = execute(accept_any_verifier(), action, password_world(), 9)
    assert result.offsets == {"drawer": 3}

    stream = RandomnessAssignment(9).tape_for("drawer").read_bytes(19)
    assert result.transcript.messages_to_verifier == [stream[:3]]
    assert run_post(post, result, 9).output == stream[3:]


def _draw_four(ctx, _arg):
    return ctx.tape.read_bytes(4)


def test_a_tape_free_execution_continues_under_any_seed_as_a_fresh_one_would():
    from foregone.scenarios.password import device_reading_post

    world, verifier, action = password_world(), unlocked_verifier(), exemplar_action()
    kept = execute(verifier, action, world, 3)
    assert not kept.read_tape and kept.offsets == {}
    drawer = Machine(id="drawer", methods={"run": _draw_four})
    for post in (device_reading_post(), drawer):
        for seed in (3, 4, 2**64 + 3):
            fresh = execute(verifier, action, world, seed)
            assert run_key(run_post(post, kept, seed)) == run_key(run_post(post, fresh, seed))
    # the drawer reads the tapes of the seed it is given, not of the seed
    # the execution ran under
    stream = RandomnessAssignment(4).tape_for("drawer").read_bytes(4)
    assert run_post(drawer, kept, 4).output == stream
    assert run_post(drawer, kept, 4).output != run_post(drawer, kept, 3).output


def _draw_one(ctx, _arg):
    return ctx.tape.read_bytes(1)


def _send_drawn(ctx, _arg):
    ctx.send(ctx.nature(0).call("draw"))
    return ABSENT


def test_each_entry_point_reports_whether_its_run_read_a_tape():
    drawer = Machine(id="drawer", methods={"run": _draw_one})
    accept = accept_any_verifier()
    quiet = execute(accept, do_nothing_action(), password_world(), 0)
    assert not quiet.read_tape
    assert execute(accept, drawer, password_world(), 0).read_tape
    # a pinned machine reads a zero tape, which is not the assignment
    assert not execute(accept, with_zero_tape(drawer), password_world(), 0).read_tape
    # a nature machine's draw counts for the run that called it
    world = World(
        nature=Nature(slots={0: Machine(id="coin", methods={"draw": _draw_one})}),
        respondent=mind("bystander", name=b"r"),
    )
    drawn = execute(accept, Machine(id="a", methods={"run": _send_drawn}), world, 0)
    assert drawn.read_tape
    assert run_target(drawer, password_world(), 0).read_tape
    assert not run_target(decrypt_target(), password_world(), 0).read_tape
    # a post-processor reports its own draws, not the execution's
    assert run_post(drawer, quiet, 0).read_tape
    assert not run_post(with_zero_tape(drawer), quiet, 0).read_tape
    assert not run_post(do_nothing_action(), drawn, 0).read_tape


def test_replay_determinism_of_execute():
    # Oracle: run the same (verifier, action, world, seed) cell twice
    # and compare entire event lists and messages.
    world = password_world()
    first = execute(unlocked_verifier(), exemplar_action(), world, 5)
    second = execute(unlocked_verifier(), exemplar_action(), world, 5)
    assert transcript_key(first.transcript) == transcript_key(second.transcript)
    assert first.steps_used == second.steps_used


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_replay_determinism_holds_for_arbitrary_seeds(seed):
    from foregone.scenarios.unknown_goal import flip_and_send_action

    world = password_world()
    # the coin announcer draws from its tape, so the tape path is exercised
    first = execute(accept_any_verifier(), flip_and_send_action(), world, seed)
    second = execute(accept_any_verifier(), flip_and_send_action(), world, seed)
    assert transcript_key(first.transcript) == transcript_key(second.transcript)


def test_the_result_states_reflect_committed_updates():
    world = password_world()
    result = execute(unlocked_verifier(), exemplar_action(), world, 0)
    device = world.nature.slots[DEVICE_LOCATION]
    assert result.states[device]["unlocked"]
    assert machine_key(device, result.states) != machine_key(device)


# --- targets and post-processors -------------------------------------------------


def test_target_outputs_the_stored_message():
    assert run_target(decrypt_target(), password_world(), 0).output == b"tax-records"


def test_target_with_a_silenced_mind_outputs_null():
    from foregone.scenarios.common import silent_mind

    world = changed_world(password_world(), respondent=silent_mind("empty-handed", "pwd"))
    assert run_target(decrypt_target(), world, 0).output is None


def test_target_must_output_something():
    quiet = Machine(id="quiet", methods={"run": lambda ctx, a: ABSENT})
    with pytest.raises(AbsentOutputError):
        run_target(quiet, password_world(), 0)


def test_coin_target_is_fixed_by_the_assignment():
    from foregone.scenarios.unknown_goal import coin_target

    outputs = {run_target(coin_target(), password_world(), s).output for s in range(12)}
    assert outputs <= {b"heads", b"tails"}
    assert len(outputs) == 2  # both faces appear over a dozen tapes
    for seed in range(4):
        a = run_target(coin_target(), password_world(), seed)
        b = run_target(coin_target(), password_world(), seed)
        assert run_key(a) == run_key(b)


def test_post_processor_sees_the_states_and_messages_the_execution_left():
    from foregone.scenarios.password import device_reading_post

    world = password_world()
    result = execute(unlocked_verifier(), exemplar_action(), world, 0)
    assert run_post(device_reading_post(), result, 0).output == b"tax-records"


# --- budget ----------------------------------------------------------------------


def _spinner(ctx, _arg):
    while True:
        ctx.nature(DEVICE_LOCATION).call("read")


def test_budget_exhaustion_is_a_non_accepting_verdict():
    action = Machine(id="spinner", methods={"run": _spinner})
    result = execute(unlocked_verifier(), action, password_world(), 0, budget=50)
    assert result.transcript.verdict is Verdict.BUDGET


def test_budget_exceeded_propagates_from_run_target():
    target = Machine(id="spinner", methods={"run": _spinner})
    with pytest.raises(BudgetExceededError):
        run_target(target, password_world(), 0, budget=50)


def test_acceptance_is_budget_monotone_with_identical_transcripts():
    world = password_world()
    small = execute(unlocked_verifier(), exemplar_action(), world, 0, budget=64)
    assert small.transcript.verdict is Verdict.ACCEPT
    for budget in (65, 128, 100_000):
        larger = execute(unlocked_verifier(), exemplar_action(), world, 0, budget=budget)
        assert larger.transcript.verdict is Verdict.ACCEPT
        assert transcript_key(larger.transcript) == transcript_key(small.transcript)


def test_the_comparison_keys_tell_true_from_one():
    # Python's == (and so field-by-field record equality) says True == 1
    one = World(Nature(), mind("holder", flag=1))
    true = World(Nature(), mind("holder", flag=True))
    assert world_key(one) != world_key(true)
    assert event_key(CallEvent("a", "b", "m", 1, True)) != event_key(
        CallEvent("a", "b", "m", True, 1)
    )


# --- read-only locations ----------------------------------------------------------


def test_verdict_is_set_exactly_once():
    from foregone.kernel import KernelError, Transcript

    transcript = Transcript()
    transcript.set_verdict(Verdict.ACCEPT)
    with pytest.raises(KernelError):
        transcript.set_verdict(Verdict.REJECT)


def test_read_only_location_refuses_other_methods_and_never_mutates():
    store = read_only_store("exhibit", b"sealed")
    world = World(
        nature=Nature(slots={1: store}, read_only=frozenset({1})),
        respondent=mind("bystander", name=b"r"),
    )

    def vandal(ctx, _arg):
        ctx.nature(1).call("read")
        ctx.nature(1).call("write", b"defaced")
        return ABSENT

    before = dict(store.state)
    result = execute(
        accept_any_verifier(), Machine(id="vandal", methods={"run": vandal}), world, 0
    )
    assert result.transcript.verdict is Verdict.REJECT
    # a read-only slot is never copied, so its built state is all there is
    assert store not in result.states
    assert dict(store.state) == before


class _Slot(IntEnum):
    ONE = 1


def _exhibit_world() -> World:
    return World(
        nature=Nature(slots={1: read_only_store("exhibit", b"secret")}, read_only=frozenset({1})),
        respondent=mind("bystander", name=b"r"),
    )


def _slot_reader(where) -> Machine:
    # 1.0 is not a value, so no state can hold it: the method names it
    return Machine(id="reader", methods={"run": lambda ctx, _arg: ctx.nature(where).call("read")})


def test_a_bool_names_no_nature_slot():
    # True, 1.0 and an int subclass's 1 equal 1 as dict keys and in a
    # set, so a lookup by equality would let each reach slot 1 and pass
    # its read-only test; only an int names a slot (a ``Location`` holds
    # nothing else, see ``test_values.py``)
    world = _exhibit_world()
    for where in (True, 1.0, _Slot.ONE):
        with pytest.raises(NoSuchMethodError) as raised:
            run_target(_slot_reader(where), world, 0)
        assert (raised.value.machine_id, raised.value.method) == (f"nature[{where}]", "<missing>")
    for where in (1, Location(1)):
        assert run_target(_slot_reader(where), world, 0).output == b"secret"


@pytest.mark.parametrize("where", [True, 1.0, _Slot.ONE], ids=["True", "1.0", "IntEnum"])
def test_an_action_that_reads_a_store_through_an_index_equal_to_its_slot_is_not_accepted(where):
    def leak(ctx, _arg):
        ctx.send(ctx.nature(where).call("read"))
        return ABSENT

    leaker = Machine(id="leaker", methods={"run": leak})
    result = execute(accept_any_verifier(), leaker, _exhibit_world(), 0)
    assert result.transcript.verdict is Verdict.REJECT
    assert result.transcript.messages_to_verifier == []


# --- immutable state and the overlay ---------------------------------------------


def test_a_machine_cannot_be_built_with_mutable_state():
    with pytest.raises(MalformedValueError, match="'x'"):
        Machine(id="hoarder", state={"x": []})
    Machine(id="fine", state={"scheme": "xor-pad", "pair": (b"a", Location(1))})


def test_a_method_that_stores_mutable_state_is_rejected():
    def stash(ctx, _arg):
        ctx.state["scratch"] = bytearray(b"mutable")
        return ABSENT

    machine = Machine(id="stasher", methods={"run": stash})
    with pytest.raises(MalformedValueError) as excinfo:
        DirectInvoker().invoke(machine, "run")
    assert "'stasher'" in str(excinfo.value)
    assert "'scratch'" in str(excinfo.value)


def _remember(ctx, argument):
    ctx.state["seen"] = argument
    return ctx.state["value"]


def test_a_method_that_writes_a_built_machines_state_faults():
    # A run writes the state it copied into its overlay; a machine at a
    # read-only slot runs on its built state, and faults on a write.
    store = Machine(id="noter", state={"value": b"sealed"}, methods={"read": _remember})
    invoker = DirectInvoker()
    assert invoker.invoke(store, "read", b"x") == b"sealed"
    assert invoker.position[2][store] == {"value": b"sealed", "seen": b"x"}
    assert dict(store.state) == {"value": b"sealed"}

    def read_it(ctx, _arg):
        return ctx.nature(1).call("read", b"x")

    reader = Machine(id="reader", methods={"run": read_it})
    sealed = World(Nature({1: store}, frozenset({1})), mind("bystander", name=b"r"))
    with pytest.raises(MethodFaultError, match="'noter' method 'read'"):
        run_target(reader, sealed, 0)
    # at a writable slot the run writes a state of its own
    assert run_target(reader, changed_world(sealed, read_only=frozenset()), 0).output == b"sealed"
    assert dict(store.state) == {"value": b"sealed"}


class _Int(int):
    pass


class _Bytes(bytes):
    pass


class _Str(str):
    pass


class _Place(Location):
    __slots__ = ()


# The kernel tests a value's exact type first and falls back to
# ``is_value`` for anything else: draw every atom, the subclasses and
# non-values that only the fallback judges, and pairs, triples and
# lists nested around them.
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.binary(max_size=3),
    st.builds(Location, st.integers(0, 9)),
    st.text(max_size=3),
    st.builds(_Int, st.integers()),
    st.builds(_Bytes, st.binary(max_size=3)),
    st.builds(_Str, st.text(max_size=3)),
    st.builds(_Place, st.integers(0, 9)),
    st.builds(bytearray, st.binary(max_size=3)),
    st.floats(allow_nan=False),
)
_NESTED = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.lists(inner, max_size=2),
    ),
    max_leaves=6,
)
# a recursive strategy seldom draws a bare atom, so draw atoms half the time
_VALUES = st.one_of(_ATOMS, _NESTED)


def _keep(ctx, argument):
    ctx.state["kept"] = argument
    return ABSENT


def _give(ctx, argument):
    return argument


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_the_kernel_refuses_exactly_what_the_value_checks_refuse(value):
    state_ok = isinstance(value, str) or is_value(value)
    keeper = Machine(id="keeper", methods={"run": _keep})
    if state_ok:
        invoker = DirectInvoker()
        invoker.invoke(keeper, "run", value)
        assert invoker.position[2][keeper]["kept"] is value
        assert Machine(id="built", state={"kept": value}).state["kept"] is value
    else:
        with pytest.raises(MalformedValueError, match="'keeper'"):
            DirectInvoker().invoke(keeper, "run", value)
        with pytest.raises(MalformedValueError, match="'kept'"):
            Machine(id="built", state={"kept": value})

    giver = Machine(id="giver", methods={"run": _give})
    invoker = DirectInvoker()
    if is_value(value):
        assert invoker.invoke(giver, "run", value) is value
        [event] = invoker._engine.transcript.events
        assert event.output is value and event.argument is value
    else:
        with pytest.raises(MalformedValueError, match="giver.run returned non-value"):
            invoker.invoke(giver, "run", value)
        assert invoker._engine.transcript.events == []


def test_call_events_hold_each_field_in_its_own_slot():
    event = CallEvent("a", "b", "m", 1, None)
    assert (event.caller, event.callee, event.method, event.argument) == ("a", "b", "m", 1)
    assert event.output is None and not hasattr(event, "__dict__")

    def grab(ctx, _arg):
        ctx.nature(DEVICE_LOCATION).call("eject", b"x")
        return ABSENT

    world = password_world()
    action = Machine(id="try-eject", methods={"run": grab})
    [attempt] = execute(accept_any_verifier(), action, world, 0).transcript.events
    device = world.nature.slots[DEVICE_LOCATION].id
    assert type(attempt) is CallEvent
    assert (attempt.caller, attempt.callee, attempt.method) == ("try-eject", device, "eject")
    assert attempt.argument == b"x" and attempt.output is NO_SUCH_METHOD
    with pytest.raises(AttributeError):
        attempt.output = None


def test_an_exception_from_method_code_becomes_a_method_fault():
    def divide(ctx, argument):
        return 1 // argument

    def relay(ctx, argument):
        return ctx.nature(0).call("divide", argument)

    machine = Machine(id="divider", methods={"divide": divide})
    with pytest.raises(MethodFaultError) as excinfo:
        DirectInvoker().invoke(machine, "divide", 0)
    assert str(excinfo.value).startswith(
        "machine 'divider' method 'divide' raised ZeroDivisionError: "
    )
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    # a fault deeper in the call chain keeps the name of the machine it hit
    world = World(nature=Nature(slots={0: machine}), respondent=Machine(id="r"))
    caller = Machine(id="relay", methods={"run": relay})
    with pytest.raises(MethodFaultError, match="'divider' method 'divide'"):
        DirectInvoker(world).invoke(caller, "run", 0)


def test_a_world_may_not_hold_one_machine_twice():
    device = password_device(b"hunter2", b"tax-records")
    with pytest.raises(AliasedMachineError):
        World(nature=Nature(slots={0: device, 1: device}), respondent=mind("r"))
    with pytest.raises(AliasedMachineError):
        World(nature=Nature(slots={0: device}), respondent=device)


def test_a_run_may_not_hold_one_machine_twice():
    # A run keeps states by machine object, so one object in two places
    # of a run would share one state: it is refused, as in a world.
    world = password_world()
    device = world.nature.slots[DEVICE_LOCATION]
    action, verifier = exemplar_action(), unlocked_verifier()
    impostor = Machine("impostor", methods=action.methods, emulated_respondent=world.respondent)
    for run in (
        lambda: execute(action, action, world, 0),
        lambda: execute(verifier, device, world, 0),
        lambda: execute(verifier, impostor, world, 0),
        lambda: run_target(world.respondent, world, 0),
    ):
        with pytest.raises(AliasedMachineError, match="is held more than once"):
            run()
    result = execute(verifier, action, world, 0)
    for post in (action, verifier, device):
        with pytest.raises(AliasedMachineError, match="is held more than once"):
            run_post(post, result, 0)


def test_an_emulated_respondent_keeps_its_state_in_the_run():
    def unlock_the_emulated_device(ctx, _arg):
        ctx.respondent.call("prompt", b"hunter2")
        return ABSENT

    stand_in = emulate_with_respondent(
        Machine(id="unlocker", methods={"run": unlock_the_emulated_device}),
        password_device(b"hunter2", b"tax-records"),
    )
    result = execute(accept_any_verifier(), stand_in, password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT
    assert result.states[stand_in.emulated_respondent]["unlocked"] is True
    assert stand_in.emulated_respondent.state["unlocked"] is False


def test_a_derived_machine_is_built_once_per_built_machine():
    # Runs are kept under machine identity, so a probe that derives its
    # stand-in again must get the same object.
    action = Machine(id="a", state={"x": 1}, methods={"run": _draw_one})
    respondent = password_device(b"hunter2", b"tax-records")
    assert with_zero_tape(action) is with_zero_tape(action)
    stand_in = emulate_with_respondent(action, respondent)
    assert emulate_with_respondent(action, respondent) is stand_in
    assert with_zero_tape(stand_in) is with_zero_tape(stand_in)
    twin = password_device(b"hunter2", b"tax-records")
    assert emulate_with_respondent(action, twin) is not stand_in
    # whichever built machines it was derived from, it has the same content
    assert machine_key(emulate_with_respondent(action, twin)) == machine_key(stand_in)


def _scenario_bundles(registry):
    """(world, riders) per registered world: riders are the machines the
    scenario's checks run against that world, with the role each plays."""
    bundles = []
    seen = set()
    for scenario in registry.values():
        riders = {}
        checks = scenario.checks
        for role, machine in (
            ("verifier", scenario.verifier),
            ("target", scenario.target),
            ("post", scenario.post_processor),
            *(("verifier", c.verifier) for c in checks),
            *(("target", c.target) for c in checks),
            *(("post", c.post) for c in checks),
            *(("post", m) for c in checks for _, m in c.candidates),
            *(("action", m) for _, m in scenario.action_family.actions),
            *(("action", m) for c in checks if c.family for _, m in c.family.actions),
        ):
            if machine is not None:
                riders.setdefault(id(machine), (role, machine))
        for evidence in scenario.evidences.values():
            for _, world in evidence.worlds:
                if id(world) not in seen:
                    seen.add(id(world))
                    bundles.append((world, tuple(riders.values())))
    return bundles


def _alphabet(world):
    harvested = [
        value
        for machine in (*world.nature.slots.values(), world.respondent)
        for value in machine.state.values()
        if is_value(value)
    ]
    atoms = [None, True, 0, b"", b"\x00", Location(0), *harvested]
    return atoms + [(a, b) for a in harvested for b in harvested]


def _machines(world, riders):
    return [world.respondent, *world.nature.slots.values(), *(m for _, m in riders)]


def _drive(world, riders, tapes, base, states, calls):
    """Outcome stream of ``calls`` against a bundle, writing ``states``
    over ``base``.  Each machine runs in the role, and with the
    read-only flag, that a handle on it carries."""
    engine = _Engine(world, tapes, DEFAULT_BUDGET, base=base)
    engine.states = states
    machines = _machines(world, riders)
    roles = [
        ("respondent", False),
        *(("nature", index in world.nature.read_only) for index in world.nature.slots),
        *((role, False) for role, _ in riders),
    ]
    outcomes = []
    for which, method, argument in calls:
        try:
            outcomes.append(
                engine.invoke("sequence", machines[which], *roles[which], method, argument)
            )
        except Exception as exc:  # machine code may reject odd arguments
            outcomes.append(type(exc).__name__)
    return outcomes


def _calls(data, world, riders, max_size):
    machines = _machines(world, riders)
    alphabet = _alphabet(world)
    which = st.integers(0, len(machines) - 1)
    return data.draw(
        st.lists(
            which.flatmap(
                lambda i: st.tuples(
                    st.just(i),
                    st.sampled_from(sorted(machines[i].methods) + ["no-such"]),
                    st.sampled_from(alphabet),
                )
            ),
            max_size=max_size,
        )
    )


def _bundle_key(bundle):
    world, riders, tapes, base, states = bundle
    states = {**base, **states}
    return (
        tuple(machine_key(machine, states) for machine in _machines(world, riders)),
        tuple(sorted(tapes.offsets.items())),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_a_layered_overlay_behaves_like_its_source(registry, data, seed):
    # A random prefix of calls moves the states of a registered world and
    # of the machines its checks run, kept in a source overlay, and the
    # tapes away from where they started; a random suffix then runs first
    # in an overlay layered on the source and then on in the source.
    bundles = _scenario_bundles(registry)
    world, riders = data.draw(st.sampled_from(bundles))
    built = _bundle_key((world, riders, RandomnessAssignment(seed), {}, {}))
    source = (world, riders, RandomnessAssignment(seed), {}, {})
    _drive(*source, _calls(data, world, riders, 6))
    pristine = _bundle_key(source)

    tapes = RandomnessAssignment(seed, dict(source[2].offsets))
    layered = (world, riders, tapes, source[4], {})
    assert _bundle_key(layered) == pristine

    suffix = _calls(data, world, riders, 8)
    via_layer = _drive(*layered, suffix)
    assert _bundle_key(source) == pristine
    after_layer = _bundle_key(layered)
    via_source = _drive(*source, suffix)
    assert len(via_layer) == len(via_source)
    assert all(same_value(a, b) for a, b in zip(via_layer, via_source))
    assert after_layer == _bundle_key(source)
    assert _bundle_key((world, riders, RandomnessAssignment(seed), {}, {})) == built
