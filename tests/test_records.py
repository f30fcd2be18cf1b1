"""The record types: what their constructors refuse, which of them are
frozen, and how each one compares.

Constructor checks pinned elsewhere: machine state that is not a value
(``test_kernel``), an aliased world (``test_kernel``), probe depth and
alphabet (``test_refinement``) and the 64-bit seed mask (``test_tapes``).
"""

from __future__ import annotations

import copy
import pickle

import pytest

from foregone.checkers import (
    ActionFamily,
    CheckerError,
    CheckReport,
    CheckVerdict,
    Counterexample,
    Languages,
)
from foregone.evidence import Assertion, EmptyFamilyError, Evidence, EvidenceError
from foregone.kernel import (
    CallEvent,
    Machine,
    Nature,
    Transcript,
    World,
    execute,
)
from foregone.refinement import ProbeSpec
from foregone.scenarios import Scenario, ScenarioError
from foregone.scenarios.base import ScenarioCheck
from foregone.tapes import RandomnessAssignment
from foregone.toy_crypto import SCHEMES, CommitmentScheme, HashSpec, make_injective_hash
from foregone.values import Location

PROBE = ProbeSpec(1, (None,))


def _world() -> World:
    return World(Nature(), Machine("respondent"))


def _duplicate_check(scenario: Scenario) -> Scenario:
    return Scenario(
        scenario.name,
        scenario.title,
        scenario.evidences,
        scenario.verifier,
        scenario.exemplar,
        scenario.target,
        scenario.post_processor,
        scenario.action_family,
        scenario.checks + [scenario.checks[0]],
    )


def test_constructors_refuse_what_their_records_may_not_hold(registry):
    with pytest.raises(ValueError, match="non-negative"):
        Location(-1)
    with pytest.raises(CheckerError, match="duplicate labels"):
        ActionFamily((("a", Machine("a")), ("a", Machine("b"))))
    with pytest.raises(EmptyFamilyError, match="'empty'"):
        Evidence("empty", (), (), PROBE)
    with pytest.raises(EvidenceError, match="duplicate world labels"):
        Evidence("twice", (), (("w", _world()), ("w", _world())), PROBE)
    with pytest.raises(ScenarioError, match="duplicate checks"):
        _duplicate_check(registry["hybrid"])


def _frozen_records() -> list:
    return [
        Location(3),
        CallEvent("a", "b", "m", 1, None),
        Assertion("id", "text"),
        Counterexample("w", "a", 0, "1", "2"),
        PROBE,
        make_injective_hash(),
        SCHEMES["xor-pad"],
        Machine("m"),
        Nature(),
        _world(),
        Evidence("e", (), (("w", _world()),), PROBE),
        ActionFamily(()),
        Languages({"w": frozenset({b"x"})}),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment_and_survive_a_copy(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before
    twin = copy.copy(record)
    assert type(twin) is type(record)
    assert all(getattr(twin, n) is getattr(record, n) for n in record.__slots__)
    # no field can change, so a deep copy is the record itself
    assert copy.deepcopy(record) is record


def test_values_and_counterexamples_pickle_to_equal_records():
    for record in (Location(3), Counterexample("w", "a", 0, "1", "2")):
        assert pickle.loads(pickle.dumps(record)) == record


def test_records_keep_no_instance_dict_but_a_scenario_check():
    # ScenarioCheck keeps one for its cached ``languages``
    records = _frozen_records() + [
        Transcript(),
        execute(Machine("verifier"), Machine("action"), _world(), 0),
        RandomnessAssignment(0),
        CheckReport(CheckVerdict.HOLDS),
    ]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    assert hasattr(ScenarioCheck("entailment", "weak", "Holds", "c"), "__dict__")
    assert {HashSpec, CommitmentScheme} <= {type(r) for r in records}


def test_mutable_defaults_are_fresh_per_instance():
    first, second = Machine("a"), Machine("a")
    assert first.state is not second.state
    assert first.methods is not second.methods
    assert Nature().slots is not Nature().slots
    assert Transcript().events is not Transcript().events
    assert RandomnessAssignment(0).offsets is not RandomnessAssignment(0).offsets


def test_a_location_equals_only_a_location_with_its_index():
    assert Location(1) == Location(1)
    assert hash(Location(1)) == hash(Location(1))
    assert Location(1) != Location(2)
    assert Location(1) != 1
    assert 1 != Location(1)
    assert len({Location(1), Location(1), 1}) == 2


def test_reports_and_counterexamples_compare_by_fields_and_type():
    cell = Counterexample("w", "a", 0, "1", "2")
    assert cell == Counterexample("w", "a", 0, "1", "2")
    assert hash(cell) == hash(Counterexample("w", "a", 0, "1", "2"))
    assert cell != Counterexample("w", "a", 1, "1", "2")
    assert cell != ("w", "a", 0, "1", "2")

    report = CheckReport(CheckVerdict.FAILS, cell, 4, witnesses=(cell,))
    assert report == CheckReport(
        CheckVerdict.FAILS, Counterexample("w", "a", 0, "1", "2"), 4, witnesses=(cell,)
    )
    assert report != CheckReport(CheckVerdict.FAILS, cell, 5, witnesses=(cell,))
    with pytest.raises(TypeError):
        hash(report)


def test_every_other_record_compares_by_identity():
    for make in (
        lambda: Machine("a"),
        Nature,
        _world,
        lambda: ProbeSpec(1, (None,)),
        lambda: execute(Machine("verifier"), Machine("action"), _world(), 0),
        lambda: CallEvent("a", "b", "m", 1, None),
        lambda: Assertion("id", "text"),
        lambda: RandomnessAssignment(0),
    ):
        first, second = make(), make()
        assert first == first
        assert first != second
        assert len({first, second}) == 2
