from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foregone.refinement as refinement
from foregone.evidence import audit
from foregone.kernel import AccessViolationError, DEFAULT_BUDGET, KernelError, Machine
from foregone.refinement import (
    ProbeSpec,
    bounded_equivalent,
    bounded_implements,
    distinguishing_probe,
    replay_probe,
)
from foregone.scenarios import build_registry, build_scenario
from foregone.scenarios.hybrid import plain_store, writable_store
from foregone.tapes import RandomnessAssignment
from foregone.values import ABSENT
from foregone.scenarios.password import deniable_device, password_device

ALPHABET = (b"cats", None)
PWD_ALPHABET = (b"hunter2", b"wrong-guess", None)


def test_plain_store_partially_specifies_the_writable_store():
    assert bounded_implements(plain_store(b"alpha"), writable_store(b"alpha"), 3, ALPHABET)


def test_writable_store_is_not_specified_by_the_plain_store():
    # method-superset violated: the plain store lacks write
    assert not bounded_implements(
        writable_store(b"alpha"), plain_store(b"alpha"), 3, ALPHABET
    )


def test_store_variants_are_not_equivalent():
    assert not bounded_equivalent(plain_store(b"alpha"), writable_store(b"alpha"), 3, ALPHABET)


def test_password_device_partially_specifies_the_deniable_device():
    plain = password_device(b"hunter2", b"tax-records")
    deniable = deniable_device(b"hunter2", b"d00rbell", b"tax-records")
    assert bounded_implements(plain, deniable, 3, PWD_ALPHABET)


def test_deniable_device_is_not_equivalent_to_the_plain_device():
    plain = password_device(b"hunter2", b"tax-records")
    deniable = deniable_device(b"hunter2", b"d00rbell", b"tax-records")
    duress_alphabet = PWD_ALPHABET + ((b"d00rbell", b"cats"),)
    assert not bounded_equivalent(plain, deniable, 3, duress_alphabet)


def test_equivalence_of_independent_copies():
    assert bounded_equivalent(
        password_device(b"hunter2", b"m"), password_device(b"hunter2", b"m"), 3, PWD_ALPHABET
    )


def test_implements_is_reflexive():
    for machine in (plain_store(b"x"), password_device(b"p", b"m")):
        assert bounded_implements(machine, machine, 2, ALPHABET)


def test_implements_is_transitive_at_fixed_bounds():
    a = plain_store(b"alpha")
    b = writable_store(b"alpha")

    def wipe(ctx, _arg):
        ctx.state["content"] = b""
        return None

    c = writable_store(b"alpha")
    c = type(c)(id="wipeable-store", state=dict(c.state), methods={**c.methods, "wipe": wipe})
    assert bounded_implements(a, b, 2, ALPHABET)
    assert bounded_implements(b, c, 2, ALPHABET)
    assert bounded_implements(a, c, 2, ALPHABET)


def test_behavioral_divergence_is_caught_not_just_method_sets():
    honest = plain_store(b"alpha")
    gaslight = plain_store(b"alpha")

    def moody_read(ctx, _arg):
        ctx.state["reads"] = ctx.state.get("reads", 0) + 1
        return ctx.state["content"] if ctx.state["reads"] < 2 else b"gone"

    gaslight = type(gaslight)(
        id="moody-store", state=dict(gaslight.state), methods={"read": moody_read}
    )
    # first read agrees; only a stateful two-call probe separates them
    assert bounded_implements(honest, gaslight, 1, ALPHABET)
    assert not bounded_implements(honest, gaslight, 2, ALPHABET)


def test_a_false_answer_carries_a_replayable_witness():
    honest = plain_store(b"alpha")
    writable = writable_store(b"alpha")
    probe = distinguishing_probe(writable, honest, 2, ALPHABET)
    assert probe is not None
    left = replay_probe(writable, probe)
    right = replay_probe(honest, probe)
    assert left != right


def test_falsehood_is_monotone_in_depth():
    honest = plain_store(b"alpha")

    def moody_read(ctx, _arg):
        ctx.state["reads"] = ctx.state.get("reads", 0) + 1
        return ctx.state["content"] if ctx.state["reads"] < 3 else b"gone"

    moody = type(honest)(
        id="moody-store", state=dict(honest.state), methods={"read": moody_read}
    )
    assert bounded_implements(honest, moody, 2, ALPHABET)
    for depth in (3, 4, 5):
        assert not bounded_implements(honest, moody, depth, ALPHABET)


def test_probe_spec_validates_bounds():
    with pytest.raises(ValueError):
        ProbeSpec(depth=0, alphabet=(None,))
    with pytest.raises(ValueError):
        ProbeSpec(depth=1, alphabet=())


# --- the level walk against the per-probe enumeration -------------------------------


def _enumerated_probe(spec, candidate, depth, alphabet, budget=DEFAULT_BUDGET):
    """The enumeration the level walk replaces: every probe in
    ``itertools.product`` order, each replayed from scratch on both sides."""
    for name in spec.method_names():
        if name not in candidate.methods:
            return ((name, alphabet[0]),)
    options = [(name, letter) for name in spec.method_names() for letter in alphabet]
    for length in range(1, depth + 1):
        for probe in itertools.product(options, repeat=length):
            left = replay_probe(spec, probe, budget)
            right = replay_probe(candidate, probe, budget)
            if any(not refinement._same_outcome(a, b) for a, b in zip(left, right)):
                return probe
    return None


@pytest.fixture(scope="module")
def build_comparisons():
    """Every (spec, device, depth, alphabet, budget) the registry build
    decides, recorded below the memo."""
    seen = []
    search = refinement._search

    def recording(*args):
        seen.append(args)
        return search(*args)

    patch = pytest.MonkeyPatch()
    patch.setattr(refinement, "_RESULTS", {})
    patch.setattr(refinement, "_search", recording)
    try:
        build_registry()
    finally:
        patch.undo()
    return seen


def test_the_walk_returns_the_enumerated_witness_on_every_build_comparison(
    build_comparisons,
):
    assert build_comparisons
    diverging = 0
    for args in build_comparisons:
        witness = refinement._search(*args)
        assert witness == _enumerated_probe(*args)
        diverging += witness is not None
    assert 0 < diverging < len(build_comparisons)


_STREAM = RandomnessAssignment(0).tape_for(refinement._PROBE_ID).read_bytes(4)
assert _STREAM[2] not in _STREAM[:2]  # the third byte marks the third draw


def _draw_quiet(ctx, _arg):
    ctx.tape.read_bytes(1)
    return None


def _draw_marked(ctx, _arg):
    byte = ctx.tape.read_bytes(1)
    return byte if byte[0] == _STREAM[2] else None


def _wait(ctx, _arg):
    return None


def _tick(ctx, _arg):
    return None


def _tick_twice(ctx, _arg):
    ctx.tape.read_bit()  # one more charged step per call
    return None


TAPE_PAIR = (
    Machine(id="quiet", methods={"draw": _draw_quiet, "wait": _wait}),
    Machine(id="marked", methods={"draw": _draw_marked, "wait": _wait}),
)
BUDGET_PAIR = (
    Machine(id="ticker", methods={"tick": _tick, "wait": _wait}),
    Machine(id="slow-ticker", methods={"tick": _tick_twice, "wait": _wait}),
)


@pytest.mark.parametrize(
    "pair, budget, expected",
    [
        # the third byte of the tape is read by the third draw, never sooner
        (TAPE_PAIR, DEFAULT_BUDGET, (("draw", None),) * 3),
        # the slow side spends 2 steps a tick: the budget of 5 runs out
        # in its third tick, while the other side spends 3
        (BUDGET_PAIR, 5, (("tick", None),) * 3),
        # with a budget of 3 it runs out in its second tick
        (BUDGET_PAIR, 3, (("tick", None),) * 2),
    ],
    ids=["tape-offsets", "budget-5", "budget-3"],
)
def test_the_walk_carries_tape_offsets_and_steps_along_each_branch(pair, budget, expected):
    spec, candidate = pair
    depth = len(expected)
    assert _enumerated_probe(spec, candidate, depth, (None,), budget) == expected
    assert refinement._search(spec, candidate, depth, (None,), budget) == expected
    assert refinement._search(spec, candidate, depth - 1, (None,), budget) is None


def test_a_budget_exhausted_mid_probe_is_the_outcome_of_the_rest_of_it():
    spec, candidate = BUDGET_PAIR
    probe = (("wait", None), ("tick", None), ("tick", None), ("tick", None))
    assert replay_probe(candidate, probe, budget=5)[-2:] == [("value", None), ("budget",)]
    for depth in (3, 4):
        args = (spec, candidate, depth, (None, b"x"), 5)
        assert refinement._search(*args) == _enumerated_probe(*args)


def _reach_nature(ctx, _arg):
    return ctx.nature(0).call("read")


def _reach_respondent(ctx, _arg):
    return ctx.respondent.call("say")


def test_a_subject_reaches_no_part_of_the_shared_probe_world():
    # Every call of a search runs over one probe world.  A subject runs in
    # the nature role: nature has no slot 0, and the role may not reach
    # the world's respondent, so no call can change that world.
    seeker = Machine(id="seeker", methods={"go": _reach_nature})
    idler = Machine(id="idler", methods={"go": _wait})
    assert replay_probe(seeker, (("go", None),) * 2) == [("no-such-method",)] * 2
    assert refinement._search(seeker, seeker, 3, (None,), DEFAULT_BUDGET) is None
    assert refinement._search(idler, seeker, 3, (None,), DEFAULT_BUDGET) == (("go", None),)
    asker = Machine(id="asker", methods={"go": _reach_respondent})
    with pytest.raises(KernelError) as raised:
        refinement._search(asker, asker, 1, (None,), DEFAULT_BUDGET)
    # the fault names the probe and leaves out the probe id
    assert str(raised.value) == (
        "probe go(⊥) raised AccessViolationError: nature machine has no 'respondent' capability"
    )
    assert type(raised.value.__cause__) is AccessViolationError


def _count(ctx, _arg):
    ctx.state["calls"] += 1
    return ctx.state["calls"]


def _count_then_trip(ctx, argument):
    if ctx.state["calls"] == 1 and argument == b"x":
        raise ValueError("tripped on the second call")
    return _count(ctx, argument)


def test_a_fault_in_the_walk_names_the_probe_calls_in_order():
    tripping = Machine(id="tripping", state={"calls": 0}, methods={"go": _count_then_trip})
    counting = Machine(id="counting", state={"calls": 0}, methods={"go": _count})
    with pytest.raises(KernelError) as raised:
        refinement._search(counting, tripping, 2, (None, b"x"), DEFAULT_BUDGET)
    assert str(raised.value) == (
        'probe go(⊥), go("x") raised ValueError: tripped on the second call'
    )
    assert type(raised.value.__cause__) is ValueError


# --- generated finite-state machines against the enumeration ------------------------


def _fsm(ctx, method: int, argument):
    """One transition of a finite-state machine whose table is a byte
    string: entry = next state | output << 2 | draw << 3.  A draw n > 0
    reads n - 1 tape bytes in one charged step, so steps and offsets
    move apart, and the last byte read sets the output's second bit."""
    table, state = ctx.state["table"], ctx.state["s"]
    entry = table[4 * state + 2 * method + (argument is not None)]
    ctx.state["s"] = entry & 3
    output, draw = entry >> 2 & 1, entry >> 3
    if draw:
        coins = ctx.tape.read_bytes(draw - 1)
        output += 2 * (coins[-1] & 1 if coins else 0)
    return output


def _fsm_a(ctx, argument):
    return _fsm(ctx, 0, argument)


def _fsm_b(ctx, argument):
    return _fsm(ctx, 1, argument)


def _fsm_machine(table, zero_coins: bool = False) -> Machine:
    return Machine(
        id="fsm",
        state={"s": 0, "table": bytes(table)},
        methods={"a": _fsm_a, "b": _fsm_b},
        force_zero_tape=zero_coins,
    )


@st.composite
def _fsm_pairs(draw):
    """Two machines over one state space: the candidate's table is the
    spec's with at most two entries redrawn, and either side may have
    its coins pinned to zero."""
    size = draw(st.integers(1, 3))
    entries = st.builds(
        lambda state, output, drawn: state | output << 2 | drawn << 3,
        st.integers(0, size - 1),
        st.integers(0, 1),
        st.integers(0, 3),
    )
    spec = draw(st.lists(entries, min_size=4 * size, max_size=4 * size))
    candidate = list(spec)
    for index in draw(st.lists(st.integers(0, 4 * size - 1), max_size=2)):
        candidate[index] = draw(entries)
    return tuple(_fsm_machine(table, draw(st.booleans())) for table in (spec, candidate))


@settings(max_examples=200, deadline=None)
@given(
    pair=_fsm_pairs(),
    depth=st.integers(1, 4),
    letters=st.integers(1, 2),
    budget=st.integers(3, 8),
)
def test_the_walk_equals_the_enumeration_on_generated_machines(pair, depth, letters, budget):
    args = (*pair, depth, (None, b"x")[:letters], budget)
    assert refinement._search(*args) == _enumerated_probe(*args)


def _one_state(a, b, zero_coins=False):
    """A one-state machine: methods ``a`` and ``b`` answer every letter
    with the (output, draw) pair given for them."""
    entries = [output << 2 | draw << 3 for output, draw in (a, a, b, b)]
    return _fsm_machine(entries, zero_coins)


assert [byte & 1 for byte in _STREAM[:3]] == [1, 0, 0]


@pytest.mark.parametrize(
    "spec, candidate, budget, expected",
    [
        # Zero coins: a draw costs a step and moves no offset.  After
        # ("a",) both sides have spent 2 steps, after ("b",) 2 and 1, so
        # the nodes differ only in steps; from ("a",) a following "b"
        # runs the spec out of its budget of 3 and not the candidate.
        (
            _one_state((0, 1), (0, 2), zero_coins=True),
            _one_state((0, 1), (0, 0), zero_coins=True),
            3,
            (("a", None), ("b", None)),
        ),
        # Every node has the same spec side; only the candidate side
        # tells ("b",) from ("a",), and from ("b",) it runs out first.
        (
            _one_state((0, 0), (1, 0)),
            _one_state((0, 0), (1, 1)),
            3,
            (("b", None), ("b", None)),
        ),
        # "b" costs both sides 2 steps but reads no byte on the spec side
        # and two on the candidate's, so after ("b",) the sides read on
        # from offsets 0 and 2, whose first bits differ; after ("a",)
        # they read on from offset 1 on both sides.
        (
            _one_state((0, 2), (1, 1)),
            _one_state((0, 2), (1, 3)),
            7,
            (("b", None), ("a", None)),
        ),
    ],
    ids=["steps", "both-sides", "tape-offsets"],
)
def test_the_node_key_holds_both_sides_with_their_steps_and_tape_offsets(
    spec, candidate, budget, expected
):
    args = (spec, candidate, 2, (None,), budget)
    assert _enumerated_probe(*args) == expected
    assert refinement._search(*args) == expected


# --- the memo -----------------------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """The walks the memo makes from here on, starting from an empty memo."""
    calls = []
    search = refinement._search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(refinement, "_RESULTS", {})
    monkeypatch.setattr(refinement, "_search", counted)
    return calls


def _kind(ctx, _arg):
    value = ctx.state["v"]
    return (isinstance(value, bool), isinstance(value, bytes))


@pytest.mark.parametrize(
    "left, right",
    [(True, 1), (False, 0), (b"1", "1")],
    ids=["true-one", "false-zero", "bytes-str"],
)
def test_states_equal_under_python_equality_do_not_share_an_answer(searches, left, right):
    def device(value):
        return Machine(id="device", state={"v": value}, methods={"kind": _kind})

    spec = device(left)
    assert distinguishing_probe(spec, device(left), 1, (None,)) is None
    assert distinguishing_probe(spec, device(right), 1, (None,)) == (("kind", None),)
    assert distinguishing_probe(device(right), device(right), 1, (None,)) is None
    # equal content is decided without a walk; states equal only under
    # ``==`` (``True`` and ``1``) are not equal content, so that pair is walked
    assert len(searches) == 1


def _is_null(ctx, argument):
    return argument is None


def _is_bool(ctx, argument):
    return isinstance(argument, bool)


def _true(ctx, _arg):
    return True


@pytest.mark.parametrize(
    "letter, other, accepts",
    [(None, ABSENT, _is_null), (True, 1, _is_bool)],
    ids=["null-absent", "true-one"],
)
def test_alphabets_equal_under_python_equality_do_not_share_an_answer(
    monkeypatch, letter, other, accepts
):
    monkeypatch.setattr(refinement, "_RESULTS", {})
    spec = Machine(id="m", methods={"q": accepts})
    candidate = Machine(id="m", methods={"q": _true})
    assert distinguishing_probe(spec, candidate, 1, (letter,)) is None
    witness = distinguishing_probe(spec, candidate, 1, (other,))
    assert witness is not None and witness[0][1] is other


def _draw(ctx, _arg):
    return ctx.tape.read_bytes(1)


def _ask(ctx, _arg):
    return ctx.respondent.call("say")


def _say(ctx, _arg):
    return ctx.state["v"]


def _ask_draw(ctx, _arg):
    return ctx.respondent.call("draw")


def test_zero_coins_and_the_emulated_respondent_are_part_of_the_key(searches):
    drawer = Machine(id="d", methods={"draw": _draw})
    pinned = Machine(id="d", methods={"draw": _draw}, force_zero_tape=True)
    assert distinguishing_probe(drawer, drawer, 1, (None,)) is None
    assert distinguishing_probe(drawer, pinned, 1, (None,)) == (("draw", None),)

    def asker(value):
        mind = Machine(id="mind", state={"v": value}, methods={"say": _say})
        return Machine(id="a", methods={"ask": _ask}, emulated_respondent=mind)

    assert distinguishing_probe(asker(b"x"), asker(b"x"), 1, (None,)) is None
    assert distinguishing_probe(asker(b"x"), asker(b"y"), 1, (None,)) == (("ask", None),)
    assert len(searches) == 2

    # a respondent's id names the tape stream it reads, so minds of equal
    # content under two ids are still walked, and may answer differently
    def drawing_asker(mind_id):
        mind = Machine(id=mind_id, methods={"draw": _draw})
        return Machine(id="a", methods={"ask": _ask_draw}, emulated_respondent=mind)

    first, second = drawing_asker("mind"), drawing_asker("other-mind")
    assert distinguishing_probe(first, second, 1, (None,)) == (("ask", None),)
    assert len(searches) == 3


def test_the_build_searches_each_distinct_comparison_once(searches):
    registry = build_registry()
    # a device against the spec rebound to its own values is decided
    # without a walk: 6 of the build's 18 distinct comparisons are walked
    assert len(searches) == 6
    # the build audited every evidence; auditing again reads the memo
    evidences = [e for scenario in registry.values() for e in scenario.evidences.values()]
    assert [problem for evidence in evidences for problem in audit(evidence)] == []
    assert len(searches) == 6


@pytest.mark.parametrize(
    "name, steps",
    [(None, 122), ("password", 60), ("deniable", 60), ("twofactor", 54)],
    ids=["registry", "password", "deniable", "twofactor"],
)
def test_the_build_expands_each_distinct_probe_node_once(monkeypatch, name, steps):
    # one call on one side is one ``_step``; a node whose (left, right)
    # key the search has seen is compared but not expanded again
    calls = []
    step = refinement._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(refinement, "_RESULTS", {})
    monkeypatch.setattr(refinement, "_step", counted)
    if name is None:
        build_registry()
    else:
        build_scenario(name)
    assert len(calls) == steps


# --- comparisons decided without a walk -------------------------------------------


def _renamed(machine: Machine, id: str) -> Machine:
    return Machine(
        id,
        machine.state,
        machine.methods,
        machine.force_zero_tape,
        machine.emulated_respondent,
    )


@settings(max_examples=100, deadline=None)
@given(
    machine=_fsm_pairs().map(lambda pair: pair[0]),
    depth=st.integers(1, 4),
    letters=st.integers(1, 2),
    budget=st.integers(3, 8),
)
def test_the_walk_finds_no_probe_between_a_machine_and_its_renamed_copy(
    machine, depth, letters, budget
):
    # the ground the memo's shortcut stands on: the uncached walk runs
    # both sides under one probe id, so the machine's own id is not read
    alphabet = (None, b"x")[:letters]
    assert refinement._search(machine, _renamed(machine, "copy"), depth, alphabet, budget) is None


def test_a_machine_and_its_renamed_copy_are_decided_without_a_walk(searches):
    for machine in (
        Machine(id="device", state={"v": True}, methods={"kind": _kind}),
        Machine(id="drawer", methods={"draw": _draw}, force_zero_tape=True),
    ):
        assert distinguishing_probe(machine, _renamed(machine, "other"), 1, (None,)) is None
    assert searches == []
