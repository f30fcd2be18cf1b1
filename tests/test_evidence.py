from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FEW_SEEDS
from helpers import count_calls, restrict_to
from foregone.evidence import (
    EmptyFamilyError,
    Evidence,
    UnknownAssertionError,
    at_least_as_strong,
    audit,
    drop_assertion,
    strengthen_to_full_spec,
)
from foregone.kernel import world_key
from foregone.scenarios import run_check
from foregone.scenarios.password import (
    DEVICE_LOCATION,
    _world,
    build_evidences,
    deniable_device,
    password_device,
)
from foregone.scenarios.common import mind

PARAMS = {
    "pwd": b"hunter2",
    "message": b"tax-records",
    "alt_pwd": b"cats123",
    "alt_message": b"ledger-2019",
    "duress_pwd": b"d00rbell",
    "replacement": b"cat-pictures",
}


@pytest.fixture(scope="module")
def evidences():
    return build_evidences(PARAMS)


def in_family(evidence, world):
    return world_key(world) in {world_key(member) for _, member in evidence.worlds}


def test_families_are_non_empty(evidences):
    for evidence in evidences.values():
        assert evidence.worlds


def test_membership_is_structural(evidences):
    # an independently built copy of a member world is consistent
    rebuilt = _world(
        password_device(b"hunter2", b"tax-records"), mind("knows-password", pwd=b"hunter2")
    )
    assert in_family(evidences["weak"], rebuilt)
    # a world with different contents is not
    other = _world(
        password_device(b"hunter2", b"other-files"), mind("knows-password", pwd=b"hunter2")
    )
    assert not in_family(evidences["weak"], other)


def test_membership_compares_state_values_type_strictly():
    device = password_device(b"hunter2", b"tax-records")
    with_true = _world(device, mind("knows", v=True))
    with_one = _world(device, mind("knows", v=1))
    assert world_key(with_true) == world_key(_world(device, mind("knows", v=True)))
    assert world_key(with_true) != world_key(with_one)


def test_deniable_world_is_consistent_with_weak_but_not_strong(evidences):
    deniable = _world(
        deniable_device(b"hunter2", b"d00rbell", b"tax-records"),
        mind("knows-both-passwords", pwd=b"hunter2", duress_pwd=b"d00rbell"),
    )
    assert in_family(evidences["weak"], deniable)
    assert not in_family(evidences["strong"], deniable)


def test_ordering_is_reflexive_and_follows_the_chain(evidences):
    weak, strong, star = evidences["weak"], evidences["strong"], evidences["star"]
    for e in (weak, strong, star):
        assert at_least_as_strong(e, e)
    assert at_least_as_strong(strong, weak)
    assert at_least_as_strong(weak, star)
    assert at_least_as_strong(strong, star)
    assert not at_least_as_strong(star, weak)
    assert not at_least_as_strong(weak, strong)


# Worlds for the ordering: the weak family's own objects, deep copies
# of them, and two worlds that differ only by True against 1 in state.
_DEVICE = password_device(b"hunter2", b"tax-records")
_BASE = build_evidences(PARAMS)
_OWN = [world for _, world in _BASE["weak"].worlds] + [
    _world(_DEVICE, mind("knows", v=True)),
    _world(_DEVICE, mind("knows", v=1)),
]
_POOL = _OWN + copy.deepcopy(_OWN)


def _family(name, indices):
    worlds = tuple((f"w{i}", _POOL[i]) for i in indices)
    return Evidence(name, (), worlds, _BASE["weak"].probe)


_indices = st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=8, unique=True)


@settings(max_examples=200, deadline=None)
@given(stronger=_indices, weaker=_indices)
def test_ordering_equals_family_inclusion_by_world_key(stronger, weaker):
    stronger, weaker = _family("stronger", stronger), _family("weaker", weaker)
    by_key = {world_key(w) for _, w in stronger.worlds} <= {
        world_key(w) for _, w in weaker.worlds
    }
    assert at_least_as_strong(stronger, weaker) == by_key


def test_the_registered_edges_are_ordered_without_keying_a_world(registry, monkeypatch):
    # every world of each stronger family is one of the weaker family's
    # own objects, so identity settles the order
    import foregone.evidence as evidence

    calls = count_calls(monkeypatch, evidence, ("world_key",))
    edges = [
        (scenario, check)
        for scenario in registry.values()
        for check in scenario.checks
        if check.kind == "monotonicity"
    ]
    assert len(edges) == 6
    for scenario, check in edges:
        weaker, stronger = (scenario.evidences[key] for key in check.edge)
        assert at_least_as_strong(stronger, weaker)
        assert run_check(scenario, check, FEW_SEEDS)[0] == check.expected
    assert calls["world_key"] == 0


def test_strengthen_drops_exactly_the_deniable_world(evidences):
    weak, strong = evidences["weak"], evidences["strong"]
    assert set(weak.labels()) - set(strong.labels()) == {"deniable"}
    assert at_least_as_strong(strong, weak)


def test_strengthen_is_idempotent(evidences):
    strong = evidences["strong"]
    again = strengthen_to_full_spec(strong, DEVICE_LOCATION, password_device(b"?", b"?"))
    assert again.labels() == strong.labels()
    assert [world_key(w) for _, w in again.worlds] == [world_key(w) for _, w in strong.worlds]


def test_strengthen_to_an_alien_shape_empties_the_family(evidences):
    from foregone.scenarios.hybrid import plain_store

    with pytest.raises(EmptyFamilyError):
        strengthen_to_full_spec(evidences["weak"], DEVICE_LOCATION, plain_store(b"?"))


def test_drop_adds_the_declared_extension_world(evidences):
    weak, star = evidences["weak"], evidences["star"]
    assert set(star.labels()) == set(weak.labels()) | {"silent-respondent"}
    assert at_least_as_strong(weak, star)
    assert all(a.id != "respondent-knows-password" for a in star.assertions)


def test_drop_requires_a_droppable_assertion(evidences):
    with pytest.raises(UnknownAssertionError):
        drop_assertion(evidences["weak"], "message-present")
    with pytest.raises(UnknownAssertionError):
        drop_assertion(evidences["weak"], "never-heard-of-it")


def test_drop_then_strengthen_intersects_the_families(evidences):
    # strengthening the weakened evidence keeps exactly the strengthened
    # members of the original family plus the strengthened extensions
    star = evidences["star"]
    strengthened = strengthen_to_full_spec(
        star, DEVICE_LOCATION, password_device(b"?", b"?")
    )
    assert set(strengthened.labels()) == (
        set(evidences["strong"].labels()) | {"silent-respondent"}
    )


def test_self_audit_is_clean(evidences):
    for evidence in evidences.values():
        assert audit(evidence) == []


def test_audit_flags_a_violated_assertion(evidences):
    broken = _world(
        password_device(b"hunter2", b"tax-records"),
        mind("knows-password", pwd=b"not-actually"),
    )
    weak = evidences["weak"]
    tampered = Evidence(
        weak.name,
        weak.assertions,
        weak.worlds + (("imposter", broken),),
        weak.probe,
        weak.partial_specs,
        weak.full_specs,
    )
    problems = audit(tampered)
    assert any("respondent-knows-password" in p for p in problems)


def test_restrict_to_yields_a_stronger_subfamily(evidences):
    weak = evidences["weak"]
    sub = restrict_to(weak, ("locked-basic",))
    assert sub.labels() == ("locked-basic",)
    assert at_least_as_strong(sub, weak)
    with pytest.raises(EmptyFamilyError):
        restrict_to(weak, ("no-such-label",))
