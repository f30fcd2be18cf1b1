from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foregone.kernel import (
    DEFAULT_BUDGET,
    AbsentOutputError,
    AccessViolationError,
    AliasedMachineError,
    BudgetExceededError,
    DirectInvoker,
    Machine,
    MalformedValueError,
    MethodFaultError,
    Nature,
    NoSuchMethodError,
    Verdict,
    World,
    _Engine,
    _fork,
    _same_machine,
    emulate_with_respondent,
    execute,
    fork_machine,
    read_only_store,
    run_post,
    run_target,
    same_world_content,
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
    before = copy.deepcopy(device.state)
    with pytest.raises(NoSuchMethodError):
        DirectInvoker().invoke(device, "write", b"cats")
    assert device.state == before


def test_write_method_present_on_the_writable_variant():
    device = writable_store(b"alpha")
    invoker = DirectInvoker()
    invoker.invoke(device, "write", b"cats")
    assert invoker.invoke(device, "read") == b"cats"


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
    "target": lambda: run_target(_probe(), _capability_world(), 0),
    "post": lambda: run_post(
        _probe(),
        execute(accept_any_verifier(), do_nothing_action(), _capability_world(), 0),
    ),
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
    result = execute(accept_any_verifier(), action, world, 0)
    assert result.transcript.verdict is Verdict.REJECT
    assert result.transcript.events[0].output is NO_SUCH_METHOD
    assert result.post_world.nature.slots[1].state["content"] == b"sealed"

    world.nature.read_only = frozenset()
    result = execute(accept_any_verifier(), action, world, 0)
    assert result.transcript.verdict is Verdict.ACCEPT
    assert result.post_world.nature.slots[1].state["content"] == b"defaced"


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
    world = password_world()
    pristine = copy.deepcopy(world)
    result = execute(unlocked_verifier(), exemplar_action(), world, 3)
    assert result.post_world.nature.slots[DEVICE_LOCATION].state["unlocked"]
    assert run_target(decrypt_target(), world, 3) == b"tax-records"
    assert world == pristine
    assert not world.nature.slots[DEVICE_LOCATION].state["unlocked"]

    after_execute = copy.deepcopy(result)

    def relock_and_draw(ctx, _arg):
        ctx.nature(DEVICE_LOCATION).call("prompt", b"wrong")
        return ctx.tape.read_bytes(4)

    post = Machine(id="relocker", methods={"run": relock_and_draw})
    assert run_post(post, result) == run_post(post, result)
    assert result.post_world == after_execute.post_world
    assert result.post_assignment == after_execute.post_assignment
    assert result.post_world.nature.slots[DEVICE_LOCATION].state["unlocked"]


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
    assert result.post_assignment.offsets == {"drawer": 3}

    stream = RandomnessAssignment(9).tape_for("drawer").read_bytes(19)
    assert result.transcript.messages_to_verifier == [stream[:3]]
    assert run_post(post, result) == stream[3:]


def test_replay_determinism_of_execute():
    # Oracle: run the same (verifier, action, world, seed) cell twice
    # and compare entire event lists and messages.
    world = password_world()
    first = execute(unlocked_verifier(), exemplar_action(), world, 5)
    second = execute(unlocked_verifier(), exemplar_action(), world, 5)
    assert first.transcript.events == second.transcript.events
    assert first.transcript.messages_to_verifier == second.transcript.messages_to_verifier
    assert first.transcript.verdict == second.transcript.verdict
    assert first.steps_used == second.steps_used


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_replay_determinism_holds_for_arbitrary_seeds(seed):
    from foregone.scenarios.unknown_goal import flip_and_send_action

    world = password_world()
    # the coin announcer draws from its tape, so the tape path is exercised
    first = execute(accept_any_verifier(), flip_and_send_action(), world, seed)
    second = execute(accept_any_verifier(), flip_and_send_action(), world, seed)
    assert first.transcript.events == second.transcript.events
    assert first.transcript.messages_to_verifier == second.transcript.messages_to_verifier


def test_post_world_reflects_committed_updates():
    world = password_world()
    result = execute(unlocked_verifier(), exemplar_action(), world, 0)
    assert result.post_world.nature.slots[DEVICE_LOCATION].state["unlocked"]


# --- targets and post-processors -------------------------------------------------


def test_target_outputs_the_stored_message():
    assert run_target(decrypt_target(), password_world(), 0) == b"tax-records"


def test_target_with_a_silenced_mind_outputs_null():
    from foregone.scenarios.common import silent_mind

    world = password_world()
    world.respondent = silent_mind("empty-handed", "pwd")
    assert run_target(decrypt_target(), world, 0) is None


def test_target_must_output_something():
    quiet = Machine(id="quiet", methods={"run": lambda ctx, a: ABSENT})
    with pytest.raises(AbsentOutputError):
        run_target(quiet, password_world(), 0)


def test_coin_target_is_fixed_by_the_assignment():
    from foregone.scenarios.unknown_goal import coin_target

    outputs = {run_target(coin_target(), password_world(), s) for s in range(12)}
    assert outputs <= {b"heads", b"tails"}
    assert len(outputs) == 2  # both faces appear over a dozen tapes
    for seed in range(4):
        a = run_target(coin_target(), password_world(), seed)
        b = run_target(coin_target(), password_world(), seed)
        assert a == b


def test_post_processor_sees_post_world_and_messages():
    from foregone.scenarios.password import device_reading_post

    world = password_world()
    result = execute(unlocked_verifier(), exemplar_action(), world, 0)
    assert run_post(device_reading_post(), result) == b"tax-records"


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
        assert larger.transcript.events == small.transcript.events


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

    before = copy.deepcopy(store.state)
    result = execute(
        accept_any_verifier(), Machine(id="vandal", methods={"run": vandal}), world, 0
    )
    assert result.transcript.verdict is Verdict.REJECT
    assert result.post_world.nature.slots[1].state == before


# --- immutable state and the structural fork -------------------------------------


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


def test_an_emulated_respondent_is_forked_with_its_action():
    def unlock_the_emulated_device(ctx, _arg):
        ctx.respondent.call("prompt", b"hunter2")
        return ABSENT

    stand_in = emulate_with_respondent(
        Machine(id="unlocker", methods={"run": unlock_the_emulated_device}),
        password_device(b"hunter2", b"tax-records"),
    )
    result = execute(accept_any_verifier(), stand_in, password_world(), 0)
    assert result.transcript.verdict is Verdict.ACCEPT
    assert stand_in.emulated_respondent.state["unlocked"] is False


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


def _drive(world, riders, tapes, calls):
    """Outcome stream of ``calls`` against one copy of a bundle.  Each
    machine runs in the role, and with the read-only flag, that a handle
    on it carries."""
    engine = _Engine(world, tapes, DEFAULT_BUDGET)
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


def _same_bundle(a, b):
    (world_a, riders_a, tapes_a), (world_b, riders_b, tapes_b) = a, b
    return (
        same_world_content(world_a, world_b)
        and all(_same_machine(x, y) for (_, x), (_, y) in zip(riders_a, riders_b))
        and tapes_a.offsets == tapes_b.offsets
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_structural_fork_behaves_like_a_deep_copy(registry, data, seed):
    # A random prefix of calls moves a registered world, the machines its
    # checks run and the tapes away from their built state; the result is
    # then forked both ways and a random suffix runs on each copy.
    bundles = _scenario_bundles(registry)
    world, riders = data.draw(st.sampled_from(bundles))
    source = copy.deepcopy((world, riders, RandomnessAssignment(seed)))
    _drive(*source, _calls(data, world, riders, 6))
    pristine = copy.deepcopy(source)

    base_world, base_riders, base_tapes = source
    forked = (
        _fork(base_world),
        tuple((role, fork_machine(machine)) for role, machine in base_riders),
        base_tapes.fork(),
    )
    deep = copy.deepcopy(source)
    assert _same_bundle(forked, deep)

    suffix = _calls(data, world, riders, 8)
    via_fork = _drive(*forked, suffix)
    via_deep = _drive(*deep, suffix)
    assert len(via_fork) == len(via_deep)
    assert all(same_value(a, b) for a, b in zip(via_fork, via_deep))
    assert _same_bundle(forked, deep)
    assert _same_bundle(source, pristine)
