from __future__ import annotations

import copy
import pickle

from hypothesis import given
from hypothesis import strategies as st

from foregone.values import (
    ABSENT,
    NO_SUCH_METHOD,
    Location,
    is_value,
    render_value,
    same_value,
)

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**32), max_value=2**32),
    st.binary(max_size=8),
    st.builds(Location, st.integers(min_value=0, max_value=20)),
)
values = st.recursive(atoms, lambda inner: st.tuples(inner, inner), max_leaves=6)


def test_null_is_a_value_and_absent_is_not():
    assert is_value(None)
    assert not is_value(ABSENT)
    assert not is_value(NO_SUCH_METHOD)


def test_absent_distinct_from_every_value():
    for v in (None, False, 0, b"", Location(0), (None, None)):
        assert not same_value(ABSENT, v)
    assert same_value(ABSENT, ABSENT)


def test_bool_and_int_are_distinguished():
    assert True == 1  # Python's own equality conflates them
    assert not same_value(True, 1)
    assert not same_value(False, 0)


def test_pairs_compare_structurally():
    assert same_value((b"a", (1, None)), (b"a", (1, None)))
    assert not same_value((b"a", 1), (b"a", 2))


def test_absent_survives_deepcopy_as_the_same_object():
    for marker in (ABSENT, NO_SUCH_METHOD):
        assert copy.deepcopy(marker) is marker
        assert copy.copy(marker) is marker
        assert pickle.loads(pickle.dumps(marker)) is marker
    assert not same_value(ABSENT, NO_SUCH_METHOD)


@given(values)
def test_same_value_is_reflexive(v):
    assert same_value(v, v)


@given(values, values)
def test_same_value_is_symmetric(a, b):
    assert same_value(a, b) == same_value(b, a)


@given(values)
def test_generated_values_are_values(v):
    assert is_value(v)


def test_render_value_is_stable_and_readable():
    assert render_value(None) == "⊥"
    assert render_value(ABSENT) == "absent"
    assert render_value(b"cats") == '"cats"'
    assert render_value(b"\x00\xff") == "0x00ff"
    assert render_value(Location(7)) == "@7"
    assert render_value((True, 3)) == "(true, 3)"
