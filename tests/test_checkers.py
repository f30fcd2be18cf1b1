from __future__ import annotations

import pytest

from conftest import FEW_SEEDS
from helpers import calls_to, changed_device, changed_methods, count_calls, restrict_to
from reference_checks import conforms
from foregone.checkers import (
    SEED_FREE_NOTE,
    ActionFamily,
    CellFaultError,
    CheckReport,
    CheckVerdict,
    HypothesisViolatedError,
    Languages,
    PreconditionViolatedError,
    _Cells,
    check_demonstrability,
    check_entailment,
    check_monotonicity,
    drop_kept_cells,
    entailment_cell_outputs,
    probe_random_target,
    probe_unknown_goal,
)
from foregone.evidence import Evidence
from foregone.kernel import (
    DEFAULT_BUDGET,
    Machine,
    Nature,
    World,
    execute,
    run_post,
    run_target,
    with_zero_tape,
)
from foregone.refinement import ProbeSpec
from foregone.values import is_value, render_value, same_value, value_key
from foregone.scenarios import build_registry, run_check
from foregone.scenarios.common import (
    accept_any_verifier,
    do_nothing_action,
    first_message_post,
    fixed_output_post,
)
from foregone.scenarios.password import (
    DEVICE_LOCATION,
    build_evidences,
    decrypt_target,
    device_reading_post,
    duress_action,
    exemplar_action,
    retry_action,
    unlocked_verifier,
)
from foregone.scenarios.unknown_goal import (
    build_evidences as build_goal_evidences,
    coin_target,
    flip_and_send_action,
    location_target,
    state_location_action,
)

SEEDS = (0, 1, 2, 3)

PARAMS = {
    "pwd": b"hunter2",
    "message": b"tax-records",
    "alt_pwd": b"cats123",
    "alt_message": b"ledger-2019",
    "duress_pwd": b"d00rbell",
    "replacement": b"cat-pictures",
}

GOAL_PARAMS = {
    "place_a": b"Boston",
    "place_b": b"Paris",
    "secret_a": b"\x11",
    "secret_b": b"\x22",
    "pinned_coin": b"\x42",
}

# the languages the unknown-goal scenario declares on its whereabouts check
WHEREABOUTS = {
    "was-in-boston": frozenset({b"Boston"}),
    "was-in-paris": frozenset({b"Paris"}),
}


@pytest.fixture(scope="module")
def pwd_evidence():
    return build_evidences(PARAMS)


@pytest.fixture(scope="module")
def goal_evidence():
    return build_goal_evidences(GOAL_PARAMS)


# --- conformity -----------------------------------------------------------------


def test_exemplar_conforms_in_the_basic_world(pwd_evidence):
    world = pwd_evidence["weak"].world("locked-basic")
    assert conforms(unlocked_verifier(), exemplar_action(), world, SEEDS)


def test_doing_nothing_does_not_conform(pwd_evidence):
    world = pwd_evidence["weak"].world("locked-basic")
    assert not conforms(unlocked_verifier(), do_nothing_action(), world, SEEDS)


def test_duress_conforms_exactly_where_the_device_is_deniable(pwd_evidence):
    weak = pwd_evidence["weak"]
    duress = duress_action(b"cat-pictures")
    assert conforms(unlocked_verifier(), duress, weak.world("deniable"), SEEDS)
    assert not conforms(
        unlocked_verifier(), duress, weak.world("locked-basic"), SEEDS
    )


# --- demonstrability --------------------------------------------------------------


def test_demonstrability_holds_on_the_weak_evidence(pwd_evidence):
    report = check_demonstrability(
        unlocked_verifier(), exemplar_action(), pwd_evidence["weak"], SEEDS
    )
    assert report.verdict is CheckVerdict.HOLDS
    assert report.counterexample is None
    assert report.cells_checked == len(pwd_evidence["weak"].worlds) * len(SEEDS)


def test_demonstrability_fails_on_star_with_a_silence_witness(pwd_evidence):
    report = check_demonstrability(
        unlocked_verifier(), exemplar_action(), pwd_evidence["star"], SEEDS
    )
    assert report.verdict is CheckVerdict.FAILS
    cell = report.counterexample
    assert cell.world == "silent-respondent"
    assert "absent" in cell.got
    # replay: the exemplar's respondent call really does yield nothing
    world = pwd_evidence["star"].world(cell.world)
    result = execute(unlocked_verifier(), exemplar_action(), world, cell.seed)
    respondent_calls = calls_to(result.transcript, world.respondent.id)
    assert respondent_calls and render_value(respondent_calls[0].output) == "absent"


# --- entailment -------------------------------------------------------------------


def family_with_duress():
    return ActionFamily(
        actions=(
            ("enter-password", exemplar_action()),
            ("retry-after-typo", retry_action()),
            ("use-duress-password", duress_action(b"cat-pictures")),
        ),
    )


def test_entailment_holds_under_the_exact_shape_evidence(pwd_evidence):
    report = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["strong"],
        family_with_duress(),
        SEEDS,
    )
    assert report.verdict is CheckVerdict.HOLDS
    # the duress action is outside the quantifier in every strong world
    assert set(report.skipped) == {
        ("locked-basic", "use-duress-password"),
        ("locked-alt", "use-duress-password"),
    }
    conforming_actions = 2
    assert report.cells_checked == len(pwd_evidence["strong"].worlds) * (
        conforming_actions * len(SEEDS)
    )


def test_entailment_fails_on_weak_with_the_duress_cell(pwd_evidence):
    report = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["weak"],
        family_with_duress(),
        SEEDS,
    )
    assert report.verdict is CheckVerdict.FAILS
    cell = report.counterexample
    assert (cell.world, cell.action, cell.seed) == ("deniable", "use-duress-password", 0)
    assert cell.got == render_value(b"cat-pictures")
    assert cell.expected == render_value(b"tax-records")


def test_entailment_in_which_no_action_conforms_is_refused(pwd_evidence):
    # one step runs out before the exemplar reaches the device, so no
    # action conforms in any world and there is no cell to compare
    args = (
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["weak"],
        family_with_duress(),
        SEEDS,
    )
    with pytest.raises(PreconditionViolatedError, match="^no action conforms in any world$"):
        check_entailment(*args, budget=1)
    # one conforming pair is enough to walk
    assert check_entailment(*args[:-1], (0,)).cells_checked > 0


def test_counterexamples_are_replayable(pwd_evidence):
    report = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["weak"],
        family_with_duress(),
        SEEDS,
    )
    cell = report.counterexample
    world = pwd_evidence["weak"].world(cell.world)
    action = dict(family_with_duress().actions)[cell.action]
    expected, got, _steps = entailment_cell_outputs(
        unlocked_verifier(), decrypt_target(), device_reading_post(), world, action, cell.seed
    )
    assert render_value(expected) == cell.expected
    assert render_value(got) == cell.got
    assert not same_value(expected, got)


def test_counterexample_selection_is_deterministic(pwd_evidence):
    first = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["weak"],
        family_with_duress(),
        SEEDS,
    ).counterexample
    second = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        device_reading_post(),
        pwd_evidence["weak"],
        family_with_duress(),
        SEEDS,
    ).counterexample
    assert first == second


def test_no_counterexample_under_the_exact_shape_evidence(pwd_evidence):
    assert (
        check_entailment(
            unlocked_verifier(),
            decrypt_target(),
            device_reading_post(),
            pwd_evidence["strong"],
            family_with_duress(),
            SEEDS,
        ).counterexample
        is None
    )


def _spinning_post() -> Machine:
    def spin(ctx, _arg):
        total = 0
        while True:
            total += ctx.tape.read_bit()

    return Machine(id="brute-force-everything", methods={"run": spin})


def test_post_processor_budget_exhaustion_fails_the_cell(pwd_evidence):
    report = check_entailment(
        unlocked_verifier(),
        decrypt_target(),
        _spinning_post(),
        pwd_evidence["strong"],
        ActionFamily(actions=(("enter-password", exemplar_action()),)),
        SEEDS,
        budget=500,
    )
    assert report.verdict is CheckVerdict.FAILS
    assert report.counterexample.got == "budget-exceeded"


# --- monotonicity -----------------------------------------------------------------


def test_monotonicity_holds_along_the_declared_edge(pwd_evidence):
    report = check_monotonicity(
        unlocked_verifier(),
        exemplar_action(),
        pwd_evidence["weak"],
        pwd_evidence["strong"],
        SEEDS,
    )
    assert report.verdict is CheckVerdict.HOLDS


def test_monotonicity_executes_each_world_and_seed_once(pwd_evidence, monkeypatch):
    import foregone.checkers as checkers

    executed = []
    real_execute = checkers.execute

    def counting_execute(verifier, action, world, seed, budget):
        executed.append((id(world), seed))
        return real_execute(verifier, action, world, seed, budget)

    monkeypatch.setattr(checkers, "execute", counting_execute)
    weak, strong = pwd_evidence["weak"], pwd_evidence["strong"]
    report = check_monotonicity(
        unlocked_verifier(), exemplar_action(), weak, strong, SEEDS
    )
    assert report.verdict is CheckVerdict.HOLDS
    assert report.cells_checked == (len(weak.worlds) + len(strong.worlds)) * len(SEEDS)
    # The exemplar reads no tape, so the first seed's execution of each
    # world object serves every seed, and the stronger family's worlds
    # are the weaker family's own objects.
    assert executed == [(id(world), SEEDS[0]) for _, world in weak.worlds]


def _registry_pass_calls(registry, monkeypatch, drop_between: bool) -> dict[str, int]:
    """The kernel runs of one registry-order pass at seeds 7000..7031,
    dropping the kept runs before each check when ``drop_between``.
    Everything else the pass does is the same either way."""
    import foregone.checkers as checkers

    calls = count_calls(monkeypatch, checkers, ("execute", "run_target", "run_post"))
    reads = count_calls(monkeypatch, _Cells, ("run", "post", "target"))
    compared = {}
    kind = None

    def counting_same_value(a, b):
        compared[kind] = compared.get(kind, 0) + 1
        return same_value(a, b)

    monkeypatch.setattr(checkers, "same_value", counting_same_value)
    seeds = tuple(range(7000, 7032))
    cells = 0
    random_targets = {}
    for name, scenario in registry.items():
        for check in scenario.checks:
            if drop_between:
                drop_kept_cells()
            kind = check.kind
            before = calls["run_target"]
            cells += run_check(scenario, check, seeds)[1].cells_checked
            if kind == "probe-random":
                random_targets[f"{name}:{check.id}"] = calls["run_target"] - before
    assert cells == 6686
    # a tape-free cell is read and compared once, not once per seed
    assert reads == {"run": 703, "post": 213, "target": 206}
    assert compared == {
        "entailment": 117,
        "counterexample": 49,
        "probe-unknown-goal": 32,
        "probe-random": 20,
    }
    # the support gate stops at the first seed whose target output
    # differs from the first seed's, so each target reads its tape only
    # up to the gate's stop and the candidates' witnesses
    assert random_targets == {
        "otp-table:probe-random/secret-sampled-key": 2,
        "otp-table:probe-random/known-sampled-key": 2,
        "unknown-goal:probe-random/coin": 3,
        "unknown-goal:probe-random/commitment": 2,
    }
    return calls


def test_registered_checks_make_exactly_these_kernel_runs_and_table_reads(
    registry, monkeypatch
):
    # Consecutive checks under one verifier and seed list share kept
    # runs: a counterexample check reads its entailment twin's cells, and
    # otp-table's secret-fixed-key probe reads the 2 executions of the
    # secret-own-key probe before it, whose stand-in is the same object.
    calls = _registry_pass_calls(registry, monkeypatch, drop_between=False)
    assert calls == {"execute": 108, "run_target": 45, "run_post": 125}


def test_a_registry_pass_makes_exactly_these_state_copies(registry, monkeypatch):
    import foregone.kernel as kernel

    # A run copies a machine's state into its ``states`` on its first
    # call at a writable place that the machine defines: a machine never
    # called, called only at a read-only slot or only with methods it
    # lacks, or a respondent in a post-processor's run, is never copied.
    engines = []
    start = kernel._Engine.__init__

    def keeping(engine, *args, **kwargs):
        start(engine, *args, **kwargs)
        engines.append(engine)

    monkeypatch.setattr(kernel._Engine, "__init__", keeping)
    _registry_pass_calls(registry, monkeypatch, drop_between=False)
    assert len(engines) == 108 + 45 + 125
    assert sum(len(engine.states) for engine in engines) == 643


def test_each_registered_check_alone_makes_exactly_these_kernel_runs(registry, monkeypatch):
    calls = _registry_pass_calls(registry, monkeypatch, drop_between=True)
    assert calls == {"execute": 266, "run_target": 72, "run_post": 211}


def test_a_changed_copy_of_a_scenario_is_not_served_runs_kept_for_the_original(registry):
    # Kept runs are keyed by object identity, and a changed build is a
    # new object, so its check runs afresh, under the same verifier.
    scenario = registry["deniable"]
    twin, check = (scenario.find_check(kind, "weak") for kind in ("entailment", "counterexample"))
    assert run_check(scenario, twin, FEW_SEEDS)[0] == "Fails"
    tampered = changed_device(
        scenario, DEVICE_LOCATION, lambda device: changed_methods(device, duress=None)
    )
    assert tampered.verifier is scenario.verifier
    verdict, report = run_check(tampered, check, FEW_SEEDS)
    assert verdict == "Holds"
    assert report.skipped == (
        ("locked-basic", "use-duress-password"),
        ("deniable", "use-duress-password"),
    )
    assert run_check(scenario, check, FEW_SEEDS)[0] == "Fails"


def _noop(ctx, _arg):
    return None


def _world() -> World:
    return World(Nature({1: Machine("d")}), Machine("r"))


def _evidence(partial_specs, full_specs) -> Evidence:
    return Evidence("e", (), (("w", _world()),), ProbeSpec(1, (None,)), partial_specs, full_specs)


def _builds() -> dict:
    """For each immutable type: a builder from the dicts it is given, and
    fresh dicts to give it, one per field that is a mapping."""
    return {
        "Machine": (
            lambda state, methods: Machine("m", state, methods),
            {"state": {"x": 1}, "methods": {"run": _noop}},
        ),
        "Nature": (lambda slots: Nature(slots, frozenset({1})), {"slots": {1: Machine("d")}}),
        "World": (_world, {}),
        "Evidence": (
            _evidence,
            {"partial_specs": {1: Machine("p")}, "full_specs": {2: Machine("f")}},
        ),
        "ActionFamily": (lambda: ActionFamily((("a", Machine("a")),)), {}),
        "Languages": (
            lambda _by_world: Languages(_by_world),
            {"_by_world": {"w": frozenset({b"x"})}},
        ),
    }


def _in_place_changes() -> list:
    cases = []
    for name, (build, given) in _builds().items():
        cls = type(build(**given))
        cases += [(name, "assign", field) for field in cls.__slots__]
        cases += [(name, "delete", field) for field in cls.__slots__]
        for field in given:
            cases += [(name, way, field) for way in ("set item", "delete item", "given dict")]
    return cases


@pytest.mark.parametrize(
    "name, way, field", _in_place_changes(), ids=lambda part: part.replace(" ", "-")
)
def test_an_in_place_change_to_a_build_raises(name, way, field):
    # Kept runs are keyed by object identity, which is sound only because
    # no build can change: every way in is shut.
    build, given = _builds()[name]
    built = build(**given)
    before = getattr(built, field)
    if way == "assign":
        with pytest.raises(AttributeError):
            setattr(built, field, before)
    elif way == "delete":
        with pytest.raises(AttributeError):
            delattr(built, field)
    elif way == "set item":
        with pytest.raises(TypeError):
            getattr(built, field)[0] = None
    elif way == "delete item":
        with pytest.raises(TypeError):
            del getattr(built, field)[next(iter(given[field]))]
    else:  # the dict the build was given, changed afterwards
        kept = dict(before)
        given[field].clear()
        given[field][0] = None
        assert dict(getattr(built, field)) == kept
    assert getattr(built, field) is before


def test_rebinding_a_kernel_entry_point_starts_from_no_kept_runs(registry, monkeypatch):
    import foregone.checkers as checkers

    scenario = registry["deniable"]
    twin, check = (scenario.find_check(kind, "weak") for kind in ("entailment", "counterexample"))
    run_check(scenario, twin, SEEDS)
    calls = count_calls(monkeypatch, checkers, ("execute",))
    run_check(scenario, check, SEEDS)
    assert calls["execute"] > 0
    # under the same entry points the twin reads every kept execution
    calls["execute"] = 0
    run_check(scenario, twin, SEEDS)
    assert calls == {"execute": 0}


def test_a_kept_post_output_is_never_served_to_another_post(pwd_evidence):
    # Each pinned post is dropped before the next is built, so CPython
    # is free to give the next one the same address.
    world = pwd_evidence["weak"].world("locked-basic")
    action = do_nothing_action()
    table = _Cells(accept_any_verifier(), DEFAULT_BUDGET, (), (0,))
    for index in range(200):
        value = index.to_bytes(2, "big")
        post = with_zero_tape(fixed_output_post(f"guess-{index}", value))
        assert table.post(post, world, action, 0) == value
        del post


def _draw_a_byte(ctx, _arg):
    return ctx.tape.read_bytes(1)


def test_a_post_that_reads_a_tape_runs_once_per_execution_and_seed(pwd_evidence, monkeypatch):
    import foregone.checkers as checkers

    calls = count_calls(monkeypatch, checkers, ("execute", "run_post"))
    world = pwd_evidence["weak"].world("locked-basic")
    verifier, action = accept_any_verifier(), do_nothing_action()
    drawer = Machine(id="drawer", methods={"run": _draw_a_byte})
    table = _Cells(verifier, DEFAULT_BUDGET, (), SEEDS)
    first = table.post(drawer, world, action, 0)
    assert table.post(drawer, world, action, 0) == first
    assert calls == {"execute": 1, "run_post": 1}
    # the served run read a tape, so it counts as one the table made
    assert table.tape_runs == 2
    # the tape-free execution serves every seed; the post runs per seed
    assert table.post(drawer, world, action, 1) != first
    assert calls == {"execute": 1, "run_post": 2}
    fresh = execute(verifier, action, world, 1)
    assert table.post(drawer, world, action, 1) == run_post(drawer, fresh, 1).output
    # a second table is served both kept runs and still walks every seed
    calls.update(execute=0, run_post=0)
    again = _Cells(verifier, DEFAULT_BUDGET, (), SEEDS)
    walked = []
    for _, seed in again.walk():
        again.post(drawer, world, action, seed)
        walked.append(seed)
    assert tuple(walked) == SEEDS
    assert calls == {"execute": 0, "run_post": len(SEEDS) - 2}


def _broken(ctx, _arg):
    raise TypeError("broken")


def test_a_fault_in_any_run_of_a_cell_names_its_world_role_machine_and_seed(pwd_evidence):
    world = pwd_evidence["weak"].world("locked-basic")
    action, broken = do_nothing_action(), Machine(id="broken", methods={"run": _broken})
    table = _Cells(accept_any_verifier(), DEFAULT_BUDGET, (("locked-basic", world),), SEEDS)
    cause = "machine 'broken' method 'run' raised TypeError: broken"
    for run, cell in (
        (lambda: table.run(world, broken, 2), "action 'broken'"),
        # a post-processor's fault names the action whose cell it is
        (lambda: table.post(broken, world, action, 2), "action 'do-nothing'"),
        (lambda: table.target(broken, world, 2), "target 'broken'"),
    ):
        with pytest.raises(CellFaultError) as raised:
            run()
        assert str(raised.value) == f"world 'locked-basic', {cell}, seed 2: {cause}"
    # a run that raised counts as one that read a tape
    assert table.tape_runs == 3


def _byte_target() -> Machine:
    return Machine(id="draw-a-byte", methods={"run": _draw_a_byte})


@pytest.mark.parametrize(
    "target, walked", [(_byte_target, SEEDS), (location_target, SEEDS[:1])]
)
def test_the_walk_learns_from_the_runs_whether_a_cell_read_a_tape(
    goal_evidence, target, walked
):
    # The action reads no tape; the walk stops after the first seed only
    # when no run the caller makes there reads one, the target included.
    world = goal_evidence["whereabouts"].worlds[0][1]
    action, target = state_location_action(), target()
    table = _Cells(accept_any_verifier(), DEFAULT_BUDGET, (), SEEDS)
    seen = []
    for _, seed in table.walk():
        assert not table.run(world, action, seed).read_tape
        table.target(target, world, seed)
        seen.append(seed)
    assert tuple(seen) == walked


def test_a_kept_run_that_read_a_tape_walks_every_seed_of_the_table_it_serves(
    goal_evidence, monkeypatch
):
    import foregone.checkers as checkers

    # The second table is served every run the first made, and a served
    # run that read a tape counts as one its own walk made.
    calls = count_calls(monkeypatch, checkers, ("run_target",))
    world = goal_evidence["whereabouts"].worlds[0][1]
    verifier, target = accept_any_verifier(), _byte_target()
    first = _Cells(verifier, DEFAULT_BUDGET, (), SEEDS)
    outputs = [first.target(target, world, seed) for _, seed in first.walk()]
    table = _Cells(verifier, DEFAULT_BUDGET, (), SEEDS)
    assert [table.target(target, world, seed) for _, seed in table.walk()] == outputs
    assert calls == {"run_target": len(SEEDS)}


def test_seed_free_note_marks_exactly_the_checks_that_read_no_tape(
    registry, goal_evidence, monkeypatch
):
    import foregone.checkers as checkers

    password = registry["password"]
    _, report = run_check(
        password, password.find_check("demonstrability", "weak"), SEEDS
    )
    assert report.notes == (SEED_FREE_NOTE,)
    otp = registry["otp-table"]
    check = otp.find_check("probe-random", "secret-sampled-key")
    calls = count_calls(monkeypatch, checkers, ("run_target",))
    _, report = run_check(otp, check, SEEDS)
    assert report.holds and SEED_FREE_NOTE not in report.notes
    # run again, the check reads its own kept runs
    ran = calls["run_target"]
    assert run_check(otp, check, SEEDS)[1] == report
    assert calls["run_target"] == ran
    # so does the probe called directly: the kept targets read a tape,
    # so it still reads as one that did
    again = probe_random_target(
        check.verifier or otp.verifier,
        otp.evidences[check.evidence],
        check.target or otp.target,
        check.candidates,
        check.exemplar or otp.exemplar,
        SEEDS,
        DEFAULT_BUDGET,
    )
    assert calls["run_target"] == ran and again == report
    # an entailment whose target reads a tape and that fails past the
    # first seed read a tape at every seed it walked
    world = goal_evidence["whereabouts"].worlds[0][1]
    drawn = run_target(_byte_target(), world, SEEDS[0]).output
    report = check_entailment(
        accept_any_verifier(),
        _byte_target(),
        fixed_output_post("fixed-first-draw", drawn),
        goal_evidence["whereabouts"],
        ActionFamily(actions=(("state-a-location", state_location_action()),)),
        SEEDS,
    )
    assert report.counterexample.seed != SEEDS[0]
    assert SEED_FREE_NOTE not in report.notes


def test_a_check_over_no_seeds_is_refused(registry, goal_evidence):
    # With no seed there is no cell, so a verdict would rest on nothing.
    for scenario in registry.values():
        for check in scenario.checks:
            with pytest.raises(PreconditionViolatedError, match="^no seeds to check$"):
                run_check(scenario, check, ())
    # The seeds are refused before any other input is looked at.
    with pytest.raises(PreconditionViolatedError, match="^no seeds to check$"):
        probe_unknown_goal(
            accept_any_verifier(),
            goal_evidence["whereabouts"],
            None,
            location_target(),
            candidate_posts(),
            state_location_action(),
            (),
        )


REGISTERED_CHECKS = [
    (name, check.id) for name, scenario in build_registry().items() for check in scenario.checks
]


@pytest.mark.parametrize(
    "name, check_id", REGISTERED_CHECKS, ids=[f"{n}:{c}" for n, c in REGISTERED_CHECKS]
)
def test_every_registered_check_runs_each_cell_at_most_once(
    registry, monkeypatch, name, check_id
):
    import foregone.checkers as checkers

    executed = []
    targeted = []
    real_execute = checkers.execute
    real_run_target = checkers.run_target

    def counting_execute(verifier, action, world, seed, budget):
        executed.append((id(world), id(action), seed))
        return real_execute(verifier, action, world, seed, budget)

    def counting_run_target(target, world, seed, budget):
        targeted.append((id(target), id(world), seed))
        return real_run_target(target, world, seed, budget)

    monkeypatch.setattr(checkers, "execute", counting_execute)
    monkeypatch.setattr(checkers, "run_target", counting_run_target)
    scenario = registry[name]
    check = next(c for c in scenario.checks if c.id == check_id)
    run_check(scenario, check, SEEDS)
    assert len(executed) == len(set(executed))
    assert len(targeted) == len(set(targeted))


def test_monotonicity_requires_a_genuine_strengthening(pwd_evidence):
    with pytest.raises(PreconditionViolatedError):
        check_monotonicity(
            unlocked_verifier(),
            exemplar_action(),
            pwd_evidence["strong"],
            pwd_evidence["weak"],  # superset, not subset
            SEEDS,
        )


def test_monotonicity_over_sampled_subfamilies(pwd_evidence):
    weak = pwd_evidence["weak"]
    labels = weak.labels()
    for keep_outer in (labels, labels[:2], labels[1:]):
        outer = restrict_to(weak, keep_outer)
        for keep_inner in (keep_outer, keep_outer[:1]):
            inner = restrict_to(weak, keep_inner)
            report = check_monotonicity(
                unlocked_verifier(), exemplar_action(), outer, inner, SEEDS
            )
            assert report.verdict is CheckVerdict.HOLDS


# --- impossibility probes -----------------------------------------------------------


def candidate_posts():
    return (
        ("echo-first-message", first_message_post()),
        ("fixed-boston", fixed_output_post("fixed-boston", b"Boston")),
        ("fixed-tokyo", fixed_output_post("fixed-tokyo", b"Tokyo")),
    )


def test_unknown_goal_probe_defeats_every_candidate(goal_evidence):
    report = probe_unknown_goal(
        accept_any_verifier(),
        goal_evidence["whereabouts"],
        WHEREABOUTS,
        location_target(),
        candidate_posts(),
        state_location_action(),
        SEEDS,
    )
    assert report.verdict is CheckVerdict.HOLDS
    assert len(report.witnesses) == len(candidate_posts())
    # each witness replays: the stand-in run really does disagree with the target
    posts = dict(candidate_posts())
    evidence = goal_evidence["whereabouts"]
    from foregone.kernel import emulate_with_respondent

    stand_in = emulate_with_respondent(
        state_location_action(), evidence.worlds[0][1].respondent
    )
    for (label, post) in candidate_posts():
        witness = report.witnesses[[l for l, _ in candidate_posts()].index(label)]
        world = evidence.world(witness.world)
        run = execute(accept_any_verifier(), stand_in, world, witness.seed)
        got = run_post(post, run, witness.seed).output
        expected = run_target(location_target(), world, witness.seed).output
        assert render_value(got) == witness.got
        assert render_value(expected) == witness.expected
        assert not same_value(got, expected)
    # outputs are compared at the first seed only, which stands for
    # every seed because no run read a tape; the notes say so
    assert report.notes[-1] == SEED_FREE_NOTE
    assert not any(note.startswith("outputs compared") for note in report.notes)
    report = probe_unknown_goal(
        accept_any_verifier(),
        evidence,
        WHEREABOUTS,
        location_target(),
        candidate_posts(),
        state_location_action(),
        (7, 3),
    )
    assert {witness.seed for witness in report.witnesses} == {7}
    assert report.notes[-1] == SEED_FREE_NOTE


def _tossed_coin(ctx, _arg):
    return b"heads" if ctx.tape.read_bit() == 0 else b"tails"


def test_unknown_goal_probe_says_which_seed_it_compared_at_when_a_run_reads_a_tape(
    goal_evidence,
):
    report = probe_unknown_goal(
        accept_any_verifier(),
        goal_evidence["whereabouts"],
        WHEREABOUTS,
        location_target(),
        (("toss-a-coin", Machine(id="toss-a-coin", methods={"run": _tossed_coin})),),
        state_location_action(),
        (7, 3),
    )
    assert report.holds
    assert report.notes[-2] == (
        "outputs compared at seed 7 only; the stand-in's conformity was"
        " checked under all 2 seeds"
    )
    assert SEED_FREE_NOTE not in report.notes


def test_unknown_goal_probe_gates_on_a_common_element(goal_evidence):
    languages = {
        "was-in-boston": frozenset({b"Boston", b"Springfield"}),
        "was-in-paris": frozenset({b"Paris", b"Springfield"}),
    }
    with pytest.raises(HypothesisViolatedError):
        probe_unknown_goal(
            accept_any_verifier(),
            goal_evidence["whereabouts"],
            languages,
            location_target(),
            candidate_posts(),
            state_location_action(),
            SEEDS,
        )


def test_unknown_goal_probe_intersects_languages_type_strictly(goal_evidence):
    # True and 1 are different values, so these languages share nothing
    # and the probe gets past its hypothesis gate.
    languages = {
        "was-in-boston": frozenset({True}),
        "was-in-paris": frozenset({1}),
    }
    report = probe_unknown_goal(
        accept_any_verifier(),
        goal_evidence["whereabouts"],
        languages,
        location_target(),
        candidate_posts(),
        state_location_action(),
        SEEDS,
    )
    assert report.verdict is CheckVerdict.FAILS
    assert "escapes its own declared language" in report.notes[0]


def test_a_language_keeps_the_members_a_set_would_merge():
    # A language is a tuple of members distinct under value_key, so True
    # and 1 are two members, and membership is type-strict both ways.
    languages = Languages({"both": [True, 1, True], "one": (1,), "two": (2,)})
    assert [type(member) for member in languages["both"]] == [bool, int]
    keyed = languages.keyed(("both", "two"))
    assert value_key(1) in keyed["both"] and value_key(True) in keyed["both"]
    keyed = languages.keyed(("one", "two"))
    assert value_key(1) in keyed["one"]
    assert value_key(True) not in keyed["one"]


def test_unknown_goal_probe_gates_on_a_single_respondent(goal_evidence):
    narrowed = restrict_to(goal_evidence["whereabouts"], ("was-in-boston",))
    with pytest.raises(HypothesisViolatedError):
        probe_unknown_goal(
            accept_any_verifier(),
            narrowed,
            WHEREABOUTS,
            location_target(),
            candidate_posts(),
            state_location_action(),
            SEEDS,
        )


def test_unknown_goal_probe_requires_declared_languages(goal_evidence):
    with pytest.raises(PreconditionViolatedError):
        probe_unknown_goal(
            accept_any_verifier(),
            goal_evidence["coin"],
            WHEREABOUTS,  # no language for the coin world
            location_target(),
            candidate_posts(),
            state_location_action(),
            SEEDS,
        )


@pytest.mark.parametrize(
    "stray, rendered",
    [
        ((1, 2, 3), "(1, 2, 3)"),
        (1.5, "1.5"),
        ("Paris", "'Paris'"),
        # members that cannot be hashed, and so cannot be keyed
        ([1], "[1]"),
        (bytearray(b"x"), "bytearray(b'x')"),
        ({1}, "{1}"),
        ((b"a", [1]), '("a", [1])'),
    ],
    ids=["triple", "float", "str", "list", "bytearray", "set", "pair-holding-a-list"],
)
def test_unknown_goal_probe_refuses_a_language_member_that_is_not_a_value(
    goal_evidence, stray, rendered
):
    languages = {"was-in-boston": (b"Boston",), "was-in-paris": (b"Paris", stray)}
    with pytest.raises(PreconditionViolatedError) as raised:
        probe_unknown_goal(
            accept_any_verifier(),
            goal_evidence["whereabouts"],
            languages,
            location_target(),
            candidate_posts(),
            state_location_action(),
            SEEDS,
        )
    assert str(raised.value) == (
        f"world 'was-in-paris': language members {[rendered]} are not values"
    )


@pytest.mark.parametrize(
    "evidence, by_world, error, message",
    [
        (
            "whereabouts",
            {
                "was-in-boston": {b"Boston", b"Springfield"},
                "was-in-paris": {b"Paris", b"Springfield"},
            },
            HypothesisViolatedError,
            """languages share ['"Springfield"']; the unknown-goal hypothesis """
            "requires an empty intersection",
        ),
        (
            "whereabouts",
            {"was-in-boston": {b"Boston"}, "was-in-paris": {b"Paris", 1.5}},
            PreconditionViolatedError,
            "world 'was-in-paris': language members ['1.5'] are not values",
        ),
        (
            "coin",
            {"was-in-boston": {b"Boston"}},
            PreconditionViolatedError,
            "worlds without languages: ['coin-flipper']",
        ),
    ],
    ids=["shared", "stray", "missing"],
)
def test_a_kept_gate_error_is_raised_again_with_the_same_message(
    goal_evidence, monkeypatch, evidence, by_world, error, message
):
    import foregone.checkers as checkers

    languages = Languages(by_world)
    keys = count_calls(monkeypatch, checkers, ("value_key",))
    raised = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            probe_unknown_goal(
                accept_any_verifier(),
                goal_evidence[evidence],
                languages,
                location_target(),
                candidate_posts(),
                state_location_action(),
                SEEDS,
            )
        raised.append(str(caught.value))
    assert raised == [message, message]
    # the members were keyed when the value was built, so no run keys one
    assert keys == {"value_key": 0}


def test_a_probe_run_again_reads_every_run_it_kept(registry, monkeypatch):
    import foregone.checkers as checkers

    # The probes' stand-ins and pinned machines are built once per build,
    # so the runs kept under their identity serve a second run.
    seeds = tuple(range(7000, 7032))
    probes = [
        (scenario, check)
        for scenario in registry.values()
        for check in scenario.checks
        if check.kind.startswith("probe-")
    ]
    assert len(probes) == 10
    calls = count_calls(monkeypatch, checkers, ("execute", "run_target", "run_post"))
    for scenario, check in probes:
        first = run_check(scenario, check, seeds)
        calls.update(execute=0, run_target=0, run_post=0)
        assert run_check(scenario, check, seeds) == first
        assert calls == {"execute": 0, "run_target": 0, "run_post": 0}, check.id


def _registered_languages(registry):
    for name, scenario in registry.items():
        for check in scenario.checks:
            if check.kind == "probe-unknown-goal":
                yield f"{name}:{check.id}", scenario, check, check.languages


def test_every_registered_language_member_is_a_value(registry):
    languages = list(_registered_languages(registry))
    assert len(languages) == 6
    for _, _, check, by_world in languages:
        assert all(is_value(v) for language in by_world.values() for v in language)
        # a set would have merged True with 1 before Languages saw it
        assert {type(language) for language in check.language_source().values()} == {tuple}


def test_unknown_goal_checks_key_each_member_once_and_never_scan(monkeypatch):
    # A languages value keys each member once, when it is built on the
    # check's first read of its languages.  The hypothesis gate and the
    # membership tests are key-set lookups, so a probe run calls
    # value_key only per output looked up (a candidate's output, and the
    # target's in the world it fails), and same_value only where the
    # candidates' outputs across worlds are compared, once per world.
    # A fresh build has read no languages, and each languages value
    # keeps its gate, so a second run of each check counts the same.
    import foregone.checkers as checkers

    registry = build_registry()
    calls = count_calls(monkeypatch, checkers, ("same_value", "value_key"))
    counted = {}
    for check_name, scenario, check, by_world in _registered_languages(registry):
        members = sum(len(language) for language in by_world.values())
        assert calls["value_key"] == members, check_name
        runs = []
        for _ in range(2):
            calls.update(same_value=0, value_key=0)
            verdict, report = run_check(scenario, check, SEEDS)
            assert calls["value_key"] <= 2 * len(report.witnesses)
            runs.append((verdict, members, calls["same_value"], calls["value_key"]))
        assert runs[0] == runs[1], check_name
        counted[check_name] = runs[0]
        calls.update(same_value=0, value_key=0)
    assert counted == {
        "otp-table:probe-unknown-goal/secret-own-key": ("Holds", 2, 6, 6),
        "otp-table:probe-unknown-goal/secret-fixed-key": ("Holds", 2, 6, 6),
        "otp-table:probe-unknown-goal/known-own-key": ("Holds", 2, 6, 6),
        "unknown-goal:probe-unknown-goal/whereabouts": ("Holds", 2, 8, 8),
        "unknown-goal:probe-unknown-goal/commitment-pinned": ("Holds", 2, 6, 6),
        "unknown-goal:probe-unknown-goal/commitment-pinned-equivocable": (
            "HypothesisViolated",
            512,
            0,
            0,
        ),
    }


def test_random_target_probe_defeats_every_candidate(goal_evidence):
    candidates = (
        ("echo-first-message", first_message_post()),
        ("fixed-heads", fixed_output_post("fixed-heads", b"heads")),
        ("fixed-tails", fixed_output_post("fixed-tails", b"tails")),
    )
    report = probe_random_target(
        accept_any_verifier(),
        goal_evidence["coin"],
        coin_target(),
        candidates,
        flip_and_send_action(),
        tuple(range(12)),
    )
    assert report.verdict is CheckVerdict.HOLDS
    assert len(report.witnesses) == len(candidates)


def test_random_target_probe_refuses_one_seed_when_its_target_reads_a_tape(goal_evidence):
    args = (
        accept_any_verifier(),
        goal_evidence["coin"],
        coin_target(),
        (("echo-first-message", first_message_post()),),
        flip_and_send_action(),
    )
    with pytest.raises(PreconditionViolatedError, match="the target reads a tape"):
        probe_random_target(*args, (7,))
    assert probe_random_target(*args, (7, 8, 9)).holds


def _read_then_say_same(ctx, _arg):
    ctx.tape.read_bytes(1)
    return b"same"


def test_random_target_probe_at_two_agreeing_seeds_fails_its_hypothesis(goal_evidence):
    # Two seeds can show support >= 2, so a tape-reading target whose two
    # outputs agree fails the hypothesis; only one seed is refused.
    with pytest.raises(HypothesisViolatedError, match="support of size >= 2"):
        probe_random_target(
            accept_any_verifier(),
            goal_evidence["coin"],
            Machine(id="read-then-say-same", methods={"run": _read_then_say_same}),
            (("echo-first-message", first_message_post()),),
            flip_and_send_action(),
            (7, 8),
        )


def _reject(ctx, _arg):
    return False


def test_a_probe_whose_exemplar_does_not_conform_fails_over_no_cell(goal_evidence):
    reject_all = Machine(id="reject-all", methods={"run": _reject})
    report = probe_unknown_goal(
        reject_all,
        goal_evidence["whereabouts"],
        WHEREABOUTS,
        location_target(),
        candidate_posts(),
        state_location_action(),
        SEEDS,
    )
    assert report == CheckReport(
        CheckVerdict.FAILS,
        notes=(
            "stand-in action does not conform in world 'was-in-boston'; "
            "the probe's construction requires a demonstrable verifier",
            SEED_FREE_NOTE,
        ),
    )
    # the gate's target runs read a tape, so no seed-free note follows
    report = probe_random_target(
        reject_all,
        goal_evidence["coin"],
        coin_target(),
        (("echo-first-message", first_message_post()),),
        flip_and_send_action(),
        tuple(range(12)),
    )
    assert report == CheckReport(
        CheckVerdict.FAILS,
        notes=(
            "zero-coin exemplar does not conform in world 'coin-flipper'; "
            "the probe's construction requires a demonstrable verifier",
        ),
    )


def test_random_target_probe_gates_on_singleton_support(goal_evidence):
    constant = fixed_output_post("always-the-same", b"same")
    constant = Machine(
        id="announce-a-constant", state=dict(constant.state), methods=dict(constant.methods)
    )
    with pytest.raises(HypothesisViolatedError):
        probe_random_target(
            accept_any_verifier(),
            goal_evidence["coin"],
            constant,
            (("echo-first-message", first_message_post()),),
            flip_and_send_action(),
            SEEDS,
        )
    # a target that reads no tape has support 1 under every seed, so one
    # seed is no reason to refuse
    with pytest.raises(HypothesisViolatedError):
        probe_random_target(
            accept_any_verifier(),
            goal_evidence["coin"],
            constant,
            (("echo-first-message", first_message_post()),),
            flip_and_send_action(),
            (7,),
        )
