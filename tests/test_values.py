from __future__ import annotations

import copy
import pickle
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foregone.values import (
    ABSENT,
    ATOM_TYPES,
    NO_SUCH_METHOD,
    Location,
    is_value,
    render_value,
    same_value,
    value_key,
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


def test_the_atoms_are_exactly_the_five_algebra_types():
    assert ATOM_TYPES == {type(None), bool, int, bytes, Location}
    for non_value in ("s", 1.0, bytearray(b"x"), [1], (1, 2, 3), (1, 1.0), {1: 2}):
        assert not is_value(non_value)


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


# few atoms that Python's == conflates, so drawn pairs often collide
close = st.recursive(
    st.sampled_from([None, False, True, 0, 1, b"", b"1", Location(0), Location(1)]),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)
keyed = st.one_of(values, close, st.just(ABSENT))


@given(keyed, keyed)
def test_value_key_is_equal_exactly_when_same_value_holds(a, b):
    assert (value_key(a) == value_key(b)) == same_value(a, b)
    assert {value_key(a): a}[value_key(a)] is a


def test_value_key_tells_apart_what_python_equality_conflates():
    for a, b in (
        (True, 1),
        (False, 0),
        (b"1", 1),
        (None, ABSENT),
        (Location(1), 1),
        ((1, b"x"), (True, b"x")),
        ((None, None), None),
    ):
        assert not same_value(a, b)
        assert value_key(a) != value_key(b)
    distinct = (True, 1, b"1", Location(1), (1, None), (True, None), None, ABSENT)
    assert len({value_key(v) for v in distinct}) == len(distinct)


class _Slot(IntEnum):
    ONE = 1


def test_a_location_index_is_an_int_and_nothing_equal_to_one():
    # True, 1.0 and an IntEnum member equal 1 under ``==``, so a location
    # holding one would be the value ``Location(1)`` while the kernel's
    # ``nature`` names no slot by it
    for index in (True, 1.0, _Slot.ONE, b"1", None):
        with pytest.raises(TypeError, match="a location index is an int"):
            Location(index)


def test_render_value_is_stable_and_readable():
    assert render_value(None) == "⊥"
    assert render_value(ABSENT) == "absent"
    assert render_value(b"cats") == '"cats"'
    assert render_value(b"\x00\xff") == "0x00ff"
    assert render_value(Location(7)) == "@7"
    assert render_value((True, 3)) == "(true, 3)"


def test_render_value_quotes_exactly_the_nonempty_printable_ascii_bytes():
    # printable ASCII is the bytes 32..126; DEL (127) and controls are not
    quoted = {b for b in range(256) if render_value(bytes([b])).startswith('"')}
    assert quoted == set(range(32, 127))
    assert render_value(b" ~") == '" ~"'
    for text in (b"", b"ab\x7f", b"\x1fab", b"a\xe9"):
        assert render_value(text) == "0x" + text.hex()
