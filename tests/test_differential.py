"""Differential tests: every check kind against the plain reference.

``reference_checks`` computes each report with one fresh kernel run per
cell and nothing shared, so any shortcut the cell table takes (kept
executions, seed-free sharing, dropped entries) must leave every
``CheckReport`` field as the plain walk has it.  The registry supplies
50 checks; the generated worlds below add what it lacks: a machine that
reads its tape only in some worlds or only after a state change, a
post-processor that reads its tape after an execution that read none,
a target that alone reads its tape, runs that exhaust their budget, and
a method that faults.  Keyed targets place the first seed whose output
differs, and a fault, at chosen seeds for the probe-random support gate.
Consecutive checks share kept runs, so the registered checks are also
run in registry order, in a shuffled order and each alone, and every
report must come out the same.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as plain
from helpers import count_calls, restrict_to
import foregone.checkers as checkers
from foregone.checkers import (
    SEED_FREE_NOTE,
    ActionFamily,
    CellFaultError,
    CheckVerdict,
    Languages,
    PreconditionViolatedError,
    check_demonstrability,
    check_entailment,
    check_evidence_conformity,
    check_monotonicity,
    drop_kept_cells,
    probe_random_target,
    probe_unknown_goal,
)
from foregone.evidence import Evidence
from foregone.kernel import (
    DEFAULT_BUDGET,
    KernelError,
    Machine,
    Nature,
    World,
    read_only_store,
    run_target,
)
from foregone.refinement import ProbeSpec
from foregone.scenarios import build_registry, run_check
from foregone.scenarios.common import (
    accept_any_verifier,
    first_message_post,
    fixed_output_post,
    mind,
)
from foregone.values import ABSENT, Location, render_value

SEED_SETS = (
    tuple(range(16)),
    (5, 9, 2, 11, 40, 3),
    tuple(range(7000, 7032)),
    (2**64 - 1, 3, 2**70),
)

REGISTERED = [
    (name, check.id) for name, scenario in build_registry().items() for check in scenario.checks
]


@pytest.mark.parametrize("name, check_id", REGISTERED, ids=[f"{n}:{c}" for n, c in REGISTERED])
def test_registered_check_equals_the_plain_walk(registry, name, check_id):
    scenario = registry[name]
    check = next(c for c in scenario.checks if c.id == check_id)
    for seeds in SEED_SETS:
        assert run_check(scenario, check, seeds) == plain.registered(scenario, check, seeds)


# --- generated worlds ----------------------------------------------------------
#
# Nature slot 0 holds the world's mode, slot 1 a writable counter.  The
# action, the counter and the verifiers read their tapes only in some
# modes or counter states, so one family mixes runs that read a tape
# with runs that read none.

MODE, COUNTER = 0, 1


def _act_by_mode(ctx, _arg):
    mode = ctx.nature(MODE).call("read")
    if mode == b"coin":
        ctx.send(ctx.tape.read_bytes(1))
    elif mode == b"spin":
        while True:
            ctx.nature(MODE).call("read")
    elif mode == b"fault":
        raise TypeError("no such mode")
    elif mode == b"count":
        ctx.send(ctx.nature(COUNTER).call("bump"))
    else:
        ctx.send(ctx.respondent.call("secret"))
    return ABSENT


def _bump(ctx, _arg):
    """Counts calls, and draws from its own tape from the second on."""
    ctx.state["count"] += 1
    if ctx.state["count"] >= 2:
        return ctx.tape.read_bytes(1)
    return b"first"


def _draw(ctx, _arg):
    return ctx.tape.read_bytes(1)


def _spin(ctx, _arg):
    while True:
        ctx.nature(MODE).call("read")


def _secret(ctx, _arg):
    return ctx.respondent.call("secret")


def _send_secret(ctx, _arg):
    ctx.send(ctx.respondent.call("secret"))
    return ABSENT


def _accept_on_heads(ctx, _arg):
    return ctx.receive() is not ABSENT and ctx.tape.read_bit() == 0


def _world(mode: bytes, count: int = 0, secret: bytes = b"s") -> World:
    return World(
        nature=Nature(
            slots={
                MODE: read_only_store("mode", mode),
                COUNTER: Machine(id="counter", state={"count": count}, methods={"bump": _bump}),
            },
            read_only=frozenset({MODE}),
        ),
        respondent=mind("respondent", secret=secret),
    )


def _evidence(name: str, *worlds: tuple[str, World]) -> Evidence:
    return Evidence(name, (), worlds, ProbeSpec(1, (None,)))


def _machine(machine_id: str, fn) -> Machine:
    return Machine(id=machine_id, methods={"run": fn})


def _generated_checks():
    """(name, checker call, plain call) for every generated check."""
    family_worlds = _evidence(
        "generated",
        ("plain", _world(b"plain")),
        ("coin", _world(b"coin")),
        ("count-once", _world(b"count", 0)),
        ("count-twice", _world(b"count", 1)),
        ("spin", _world(b"spin")),
    )
    narrower = restrict_to(family_worlds, ("plain", "count-once"))
    narrowest = restrict_to(narrower, ("plain",))
    by_mode = _machine("act-by-mode", _act_by_mode)
    family = ActionFamily(
        (("act-by-mode", by_mode), ("send-secret", _machine("send-secret", _send_secret))),
    )
    accept = accept_any_verifier()
    heads = _machine("accept-on-heads", _accept_on_heads)
    draw_target, draw_post = _machine("draw", _draw), _machine("draw", _draw)
    secret_target = _machine("secret", _secret)
    echo = first_message_post()
    spinner = _machine("spinner", _spin)
    located = _evidence(
        "located",
        ("here", _world(b"plain", secret=b"here")),
        ("there", _world(b"plain", secret=b"there")),
    )
    places = Languages({"here": frozenset({b"here"}), "there": frozenset({b"there"})})
    fixed = ("fixed-s", fixed_output_post("fixed-s", b"s"))
    candidates = (("echo-first-message", echo), ("draw", draw_post), fixed)
    # Languages that Python's == would intersect but same_value does not
    # (True/1, b"1"/1, (1, b"x")/(True, b"x"), Location(1)/1), and a pair
    # that shares b"1", None and (1, b"x") outright.
    ints = frozenset({1, b"1", (1, b"x"), None})
    bools = frozenset({True, Location(1), (True, b"x"), b"one"})
    mixed_worlds = (("int", _world(b"plain", secret=1)), ("bool", _world(b"plain", secret=True)))
    mixed = _evidence("mixed", *mixed_worlds)
    disjoint = Languages({"int": ints, "bool": bools})
    overlapping = Languages(
        {"int": ints, "bool": frozenset({True, b"1", None, (1, b"x"), Location(1)})}
    )
    mixed_candidates = (
        ("echo-first-message", echo),
        *(
            (f"fixed-{render_value(v)}", fixed_output_post(f"fixed-{render_value(v)}", v))
            for v in (True, b"1", (1, b"x"), (True, b"x"), Location(1), None)
        ),
    )
    coin = _evidence("coin", ("plain", _world(b"plain")), ("coin", _world(b"coin")))
    faulty = _evidence("faulty", ("plain", _world(b"plain")), ("fault", _world(b"fault")))
    entail = (check_entailment, plain.entailment)
    demonstrate = (check_demonstrability, plain.demonstrability)
    monotone = (check_monotonicity, plain.monotonicity)
    unknown_goal = (probe_unknown_goal, plain.unknown_goal)
    return {
        # the post draws from the tapes of its own cell's seed, as the
        # target does, after executions that mostly read no tape
        "entail-draw": (*entail, (accept, draw_target, draw_post, family_worlds, family)),
        "entail-echo": (*entail, (accept, secret_target, echo, family_worlds, family)),
        "entail-heads": (*entail, (heads, secret_target, echo, family_worlds, family)),
        "entail-spinning-post": (*entail, (accept, secret_target, spinner, narrower, family)),
        "entail-spinning-target": (*entail, (accept, spinner, echo, narrower, family)),
        "demonstrate": (*demonstrate, (accept, by_mode, narrower)),
        "demonstrate-spin": (*demonstrate, (accept, by_mode, family_worlds)),
        "fault": (*demonstrate, (accept, by_mode, faulty)),
        "conform-heads": (check_evidence_conformity, plain.conformity, (heads, by_mode, narrower)),
        "monotone": (*monotone, (accept, by_mode, family_worlds, narrower)),
        "monotone-holds": (*monotone, (accept, by_mode, narrower, narrowest)),
        "unknown-goal": (
            *unknown_goal,
            (accept, located, places, secret_target, candidates, by_mode),
        ),
        "unknown-goal-seed-free": (
            *unknown_goal,
            (accept, located, places, secret_target, (candidates[0], fixed), by_mode),
        ),
        "unknown-goal-mixed-types": (
            *unknown_goal,
            (accept, mixed, disjoint, secret_target, mixed_candidates, by_mode),
        ),
        "unknown-goal-mixed-types-overlap": (
            *unknown_goal,
            (accept, mixed, overlapping, secret_target, mixed_candidates, by_mode),
        ),
        "random-target": (
            probe_random_target,
            plain.random_target,
            (accept, coin, draw_target, candidates, by_mode),
        ),
    }


GENERATED = _generated_checks()


def _outcome(call, args, seeds):
    try:
        return call(*args, seeds, budget=300)
    except (CellFaultError, PreconditionViolatedError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_check_equals_the_plain_walk(name):
    checker, reference, args = GENERATED[name]
    for seeds in SEED_SETS:
        expected = _outcome(reference, args, seeds)
        assert _outcome(checker, args, seeds) == expected
        # run again, the check reads the first run's kept runs
        assert _outcome(checker, args, seeds) == expected


def test_generated_checks_cover_every_outcome():
    outcomes = {name: _outcome(c, args, SEED_SETS[0]) for name, (c, _, args) in GENERATED.items()}
    assert outcomes["entail-draw"].holds
    assert not outcomes["entail-echo"].holds
    # the verifier accepts on heads only, so no action conforms under 16 seeds
    assert outcomes["entail-heads"] == (
        "PreconditionViolatedError", "no action conforms in any world"
    )
    assert outcomes["entail-spinning-post"].counterexample.got == "budget-exceeded"
    assert outcomes["entail-spinning-target"].counterexample.got == "budget-exceeded"
    assert outcomes["demonstrate-spin"].counterexample.got == "Budget"
    assert outcomes["random-target"].witnesses
    assert outcomes["unknown-goal"].holds
    assert SEED_FREE_NOTE not in outcomes["unknown-goal"].notes
    assert outcomes["unknown-goal-seed-free"].notes[-1] == SEED_FREE_NOTE
    assert outcomes["unknown-goal-mixed-types"].holds
    # each candidate lands in one language only, and falls in the other
    assert [w.world for w in outcomes["unknown-goal-mixed-types"].witnesses] == [
        "bool", "int", "bool", "bool", "int", "int", "bool"
    ]
    overlap = outcomes["unknown-goal-mixed-types-overlap"]
    assert overlap.verdict is CheckVerdict.HYPOTHESIS_VIOLATED and overlap.cells_checked == 0
    assert overlap.notes == (
        """languages share ['"1"', '(1, "x")', '⊥']; the unknown-goal """
        "hypothesis requires an empty intersection",
        SEED_FREE_NOTE,
    )
    assert outcomes["fault"] == (
        "CellFaultError",
        "world 'fault', action 'act-by-mode', seed 0: machine 'act-by-mode' "
        "method 'run' raised TypeError: no such mode",
    )


def test_a_cell_whose_target_alone_reads_a_tape_is_walked_seed_by_seed():
    # The execution and the post-processor read no tape and the target
    # draws from its own: the post-processor outputs the target's draw at
    # the first seed, so the first cell matches and a later one does not.
    evidence = _evidence("plain", ("plain", _world(b"plain")))
    family = ActionFamily((("send-secret", _machine("send-secret", _send_secret)),))
    draw = _machine("draw", _draw)
    for seeds in SEED_SETS:
        first = run_target(draw, evidence.worlds[0][1], seeds[0]).output
        post = fixed_output_post("first-draw", first)
        args = (accept_any_verifier(), draw, post, evidence, family)
        report = _outcome(check_entailment, args, seeds)
        assert report == _outcome(plain.entailment, args, seeds)
        assert not report.holds and report.counterexample.seed != seeds[0]
        assert SEED_FREE_NOTE not in report.notes


@settings(max_examples=10, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True))
def test_generated_checks_equal_the_plain_walk_on_drawn_seeds(seeds):
    for checker, reference, args in GENERATED.values():
        assert _outcome(checker, args, tuple(seeds)) == _outcome(reference, args, tuple(seeds))


# --- the probe-random support gate ---------------------------------------------
#
# A keyed target draws 8 bytes from its tape and looks them up among the
# draws of the listed seeds, so a test decides which seed's output is
# which.  The gate reads each world seed by seed and stops at the first
# output that differs from the world's first; the candidates then read
# the support world's targets up to their witnesses.

FAULT = "fault"
KEYED = "keyed"


def _keyed_target(seeds, by_seed, in_mode=None):
    """A target that outputs ``by_seed[s]`` at seed ``s`` of ``seeds``
    (``FAULT`` raises) and b"same" at every other listed seed; with
    ``in_mode``, it draws in every world but outputs b"same" outside
    worlds of that mode."""
    draw = _machine(KEYED, lambda ctx, _arg: ctx.tape.read_bytes(8))
    draws = [run_target(draw, _world(b"plain"), seed).output for seed in seeds]
    assert len(set(draws)) == len(seeds)
    outputs = {d: by_seed.get(seed, b"same") for d, seed in zip(draws, seeds)}

    def run(ctx, _arg):
        output = outputs[ctx.tape.read_bytes(8)]
        if in_mode is not None and ctx.nature(MODE).call("read") != in_mode:
            return b"same"
        if output is FAULT:
            raise TypeError("faulted")
        return output

    return _machine(KEYED, run)


GATE_SEEDS = (4, 8, 15, 16, 23, 42)
SAME = ("fixed-same", fixed_output_post("fixed-same", b"same"))
ONE_WORLD = _evidence("one", ("plain", _world(b"plain")))
FLAT_FIRST = _evidence("flat-first", ("flat", _world(b"plain")), ("support", _world(b"coin")))


def _gate_case(evidence, target, seeds=GATE_SEEDS):
    """(checker outcome, plain outcome, (world label, seed) of every
    target run the checker made, in order)."""
    ran = []
    real = checkers.run_target

    def recording(target, world, seed, budget):
        ran.append((next(l for l, w in evidence.worlds if w is world), seed))
        return real(target, world, seed, budget)

    exemplar = _machine("send-secret", _send_secret)
    args = (accept_any_verifier(), evidence, target, (SAME,), exemplar)
    checkers.run_target = recording
    try:
        got = _outcome(probe_random_target, args, seeds)
    finally:
        checkers.run_target = real
    return got, _outcome(plain.random_target, args, seeds), ran


def test_the_gate_reads_to_the_last_seed_when_support_first_shows_there():
    target = _keyed_target(GATE_SEEDS, {GATE_SEEDS[-1]: b"other"})
    report, reference, ran = _gate_case(ONE_WORLD, target)
    assert report == reference
    assert report.holds and report.notes[0] == "support world: 'plain'"
    assert [w.seed for w in report.witnesses] == [GATE_SEEDS[-1]]
    assert ran == [("plain", seed) for seed in GATE_SEEDS]


def test_a_world_with_support_one_is_read_in_full_before_the_support_world():
    target = _keyed_target(GATE_SEEDS, {GATE_SEEDS[1]: b"other"}, in_mode=b"coin")
    report, reference, ran = _gate_case(FLAT_FIRST, target)
    assert report == reference
    assert report.holds and report.notes[0] == "support world: 'support'"
    assert [w.seed for w in report.witnesses] == [GATE_SEEDS[1]]
    assert ran == [("flat", seed) for seed in GATE_SEEDS] + [
        ("support", seed) for seed in GATE_SEEDS[:2]
    ]


def test_a_target_fault_past_the_witness_is_not_reached():
    # a gate that read every seed of the support world would fault here
    target = _keyed_target(GATE_SEEDS, {GATE_SEEDS[1]: b"other", GATE_SEEDS[3]: FAULT})
    report, reference, ran = _gate_case(ONE_WORLD, target)
    assert report == reference
    assert report.holds and [w.seed for w in report.witnesses] == [GATE_SEEDS[1]]
    assert ran == [("plain", seed) for seed in GATE_SEEDS[:2]]


def test_a_target_fault_before_the_witness_names_the_cell():
    target = _keyed_target(GATE_SEEDS, {GATE_SEEDS[1]: FAULT, GATE_SEEDS[2]: b"other"})
    outcome, reference, _ = _gate_case(ONE_WORLD, target)
    assert outcome == reference == (
        "CellFaultError",
        f"world 'plain', target 'keyed', seed {GATE_SEEDS[1]}: machine 'keyed' "
        "method 'run' raised TypeError: faulted",
    )


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
    data=st.data(),
    flat_first=st.booleans(),
)
def test_the_gate_equals_the_plain_walk_wherever_support_first_shows(seeds, data, flat_first):
    # the first seed that differs, and a fault, each at a drawn position
    # or nowhere (index len(seeds))
    differs = data.draw(st.integers(1, len(seeds)), label="differs")
    faults = data.draw(st.integers(0, len(seeds)), label="faults")
    by_seed = dict.fromkeys(seeds[differs:differs + 1], b"other")
    by_seed.update(dict.fromkeys(seeds[faults:faults + 1], FAULT))
    evidence = FLAT_FIRST if flat_first else ONE_WORLD
    target = _keyed_target(tuple(seeds), by_seed, b"coin" if flat_first else None)
    outcome, reference, ran = _gate_case(evidence, target, seeds=tuple(seeds))
    assert outcome == reference
    support = evidence.worlds[-1][0]
    if faults < min(differs + 1, len(seeds)):
        assert outcome[0] == "CellFaultError"
    elif len(seeds) == 1:
        # the keyed target reads a tape, and one seed cannot show support
        assert outcome[0] == "PreconditionViolatedError"
    elif differs == len(seeds):
        assert outcome.verdict is CheckVerdict.HYPOTHESIS_VIOLATED
    else:
        assert outcome.holds and [w.seed for w in outcome.witnesses] == [seeds[differs]]
        assert ran[-1] == (support, seeds[differs])


# --- checks in any order -----------------------------------------------------
#
# Consecutive checks under one verifier, budget and seed list read each
# other's kept runs.  No report may depend on which checks ran before.

ORDER_SEEDS = (tuple(range(16)), tuple(range(7000, 7032)), (5, 3, 9))


def _registered_outcomes(registry, order, seeds, budget, alone=False):
    """Each check's (verdict, report), or the error it raised, running
    the registered checks in ``order``; ``alone`` drops the kept runs
    before every check."""
    checks = [(scenario, check) for scenario in registry.values() for check in scenario.checks]
    drop_kept_cells()
    outcomes = {}
    for index in order:
        if alone:
            drop_kept_cells()
        scenario, check = checks[index]
        try:
            outcomes[index] = run_check(scenario, check, seeds, budget)
        except (checkers.CheckerError, KernelError) as exc:
            outcomes[index] = (type(exc).__name__, str(exc))
    return outcomes


@pytest.mark.parametrize("budget", (DEFAULT_BUDGET, 40))
@pytest.mark.parametrize("seeds", ORDER_SEEDS, ids=("0-15", "7000-7031", "5-3-9"))
def test_every_registered_report_is_the_same_in_any_check_order(registry, seeds, budget):
    count = len(REGISTERED)
    in_order = _registered_outcomes(registry, range(count), seeds, budget)
    shuffled = list(range(count))
    random.Random(f"{budget}:{seeds}").shuffle(shuffled)
    assert _registered_outcomes(registry, shuffled, seeds, budget) == in_order
    assert _registered_outcomes(registry, range(count), seeds, budget, alone=True) == in_order


@pytest.mark.parametrize(
    "first, second",
    (
        # the lists overlap in 15 seeds
        ((tuple(range(16)), DEFAULT_BUDGET), (tuple(range(1, 17)), DEFAULT_BUDGET)),
        ((tuple(range(16)), DEFAULT_BUDGET), (tuple(range(16)), 40)),
    ),
    ids=("seed-list", "budget"),
)
def test_a_new_seed_list_or_budget_reuses_no_kept_run(registry, monkeypatch, first, second):
    # Any run kept across the two would show as a missing kernel call.
    calls = count_calls(monkeypatch, checkers, ("execute", "run_target", "run_post"))

    def second_calls(scenario, check, before):
        drop_kept_cells()
        if before is not None:
            run_check(scenario, check, *before)
        counted = dict(calls)
        run_check(scenario, check, *second)
        return {name: calls[name] - counted[name] for name in calls}

    made = 0
    for scenario in registry.values():
        for check in scenario.checks:
            fresh = second_calls(scenario, check, None)
            made += sum(fresh.values())
            assert second_calls(scenario, check, first) == fresh, check.id
    assert made > 0
