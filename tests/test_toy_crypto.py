from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foregone.toy_crypto import (
    SCHEMES,
    BindingClass,
    CommitmentScheme,
    DomainExceededError,
    LengthMismatchError,
    byte_domain,
    complement,
    hiding_profile,
    make_colliding_hash,
    make_injective_hash,
    otp,
    small_byte_domain,
)


# --- one-time pad ---------------------------------------------------------------


@given(st.binary(min_size=0, max_size=8))
def test_otp_is_an_involution(message):
    key = bytes((i * 37 + 11) % 256 for i in range(len(message)))
    assert otp(key, otp(key, message)) == message


def test_all_zero_pad_is_the_identity():
    assert otp(b"\x00\x00\x00", b"abc") == b"abc"


def test_all_ones_pad_is_the_complement():
    assert otp(b"\xff\xff\xff", b"abc") == complement(b"abc")


def test_otp_rejects_mismatched_lengths():
    with pytest.raises(LengthMismatchError):
        otp(b"\x00", b"ab")


@pytest.mark.parametrize("length", range(9))
@given(data=st.data())
def test_otp_is_the_bytewise_xor_at_every_length(length, data):
    key = data.draw(st.binary(min_size=length, max_size=length))
    message = data.draw(st.binary(min_size=length, max_size=length))
    assert otp(key, message) == bytes(k ^ m for k, m in zip(key, message))
    longer = data.draw(st.binary(min_size=1, max_size=8))
    with pytest.raises(LengthMismatchError):
        otp(key, message + longer)
    with pytest.raises(LengthMismatchError):
        otp(key + longer, message)


# --- hashes ---------------------------------------------------------------------


def test_injective_hash_survives_the_exhaustive_sweep():
    spec = make_injective_hash(extra_domain=(b"q3-report", b"shadow-q3"))
    assert spec.declared_injective
    assert spec.injectivity_witness() is None


def test_colliding_hash_exposes_exactly_its_documented_pair():
    spec = make_colliding_hash(b"q3-report", b"shadow-q3")
    assert spec.evaluate(b"q3-report") == spec.evaluate(b"shadow-q3")
    witness = spec.injectivity_witness()
    assert witness is not None
    assert set(witness) == {b"q3-report", b"shadow-q3"}


def test_hash_preserves_length_and_permutes_bytes():
    spec = make_injective_hash()
    assert len(spec.evaluate(b"abcdef")) == 6
    images = {spec.evaluate(bytes([i])) for i in range(256)}
    assert len(images) == 256


# --- commitments ----------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", ["transparent", "xor-pad"])
def test_correctness_clause_exhaustively(scheme_name):
    scheme = SCHEMES[scheme_name]
    for x in small_byte_domain():
        for r in small_byte_domain():
            c, d = scheme.commit(x, r)
            assert scheme.check(c, d, x)


def test_transparent_scheme_passes_the_double_opening_sweep():
    witness = SCHEMES["transparent"].double_opening_witness(
        byte_domain(), small_byte_domain()
    )
    assert witness is None
    assert SCHEMES["transparent"].binding_class is BindingClass.PERFECTLY_BINDING


def test_xor_pad_scheme_fails_binding_with_a_verified_witness():
    scheme = SCHEMES["xor-pad"]
    witness = scheme.double_opening_witness(byte_domain(), small_byte_domain())
    assert witness == (b"\x00", b"\x01", b"\x00", b"\x01", b"\x00")
    x, xp, d, dp, c = witness
    assert x != xp
    assert scheme.check(c, d, x)
    assert scheme.check(c, dp, xp)
    assert scheme.binding_class is BindingClass.EQUIVOCABLE


def test_xor_pad_equivocates_to_every_message():
    scheme = SCHEMES["xor-pad"]
    c, _ = scheme.commit(b"\x5a", b"\x33")
    for target in byte_domain():
        opening = scheme.equivocate(c, target)
        assert scheme.check(c, opening, target)


def test_transparent_openings_reject_other_messages():
    scheme = SCHEMES["transparent"]
    c, d = scheme.commit(b"\x10", b"\x01")
    for other in byte_domain():
        if other != b"\x10":
            assert not scheme.check(c, d, other)


def test_xor_pad_hiding_profile_is_message_independent():
    profile = hiding_profile(SCHEMES["xor-pad"], (b"\x00", b"\x7f", b"\xff"), byte_domain())
    histograms = {tuple(sorted(counts.values())) for counts in profile.values()}
    assert histograms == {tuple([1] * 256)}  # uniform for every message


def test_transparent_commitments_are_not_hiding():
    profile = hiding_profile(SCHEMES["transparent"], (b"\x00", b"\x01"), small_byte_domain())
    assert profile[b"\x00"] != profile[b"\x01"]


def test_openable_commitments_drive_the_language_construction():
    secrets = (b"\x11", b"\x22")
    transparent = SCHEMES["transparent"]
    xor_pad = SCHEMES["xor-pad"]
    t_a = transparent.openable_commitments(b"\x11", secrets, byte_domain())
    t_b = transparent.openable_commitments(b"\x22", secrets, byte_domain())
    assert t_a and t_b and not (t_a & t_b)
    e_a = xor_pad.openable_commitments(b"\x11", secrets, byte_domain())
    e_b = xor_pad.openable_commitments(b"\x22", secrets, byte_domain())
    assert e_a == e_b and e_a  # every commitment opens to every secret


def test_transparent_commit_rejects_oversized_inputs():
    with pytest.raises(DomainExceededError):
        SCHEMES["transparent"].commit(b"123456789", b"r")


# --- the sweeps against a brute-force reference ---------------------------------

# b"" is falsy, so a sweep that tests an opening's truth in place of its
# presence would show
_TINY = (b"", b"\x00", b"\x01", b"\x02")
_COMMITMENTS = (b"c0", b"c1", b"c2")


def _double_opening_reference(accepts, commitments, messages, openings):
    """The witness and the ``check`` calls of the plain triple loop: per
    sorted commitment, each message in order tries the openings in order
    up to its first accepted one; the first message whose first opening
    is found after another message's is the witness."""
    calls = []
    for c in sorted(commitments):
        firsts = []
        for x in messages:
            for d in openings:
                calls.append((c, d, x))
                if (c, d, x) in accepts:
                    firsts.append((x, d))
                    break
            if firsts and firsts[-1][0] != firsts[0][0]:
                (x0, d0), (x1, d1) = firsts[0], firsts[-1]
                return (x0, x1, d0, d1, c), calls
    return None, calls


def _openings_tried(accepts, c, message, openings):
    """The ``check`` calls that look for an opening of ``c`` to
    ``message``: the openings in order, up to the first accepted one."""
    tried = []
    for d in openings:
        tried.append((c, d, message))
        if (c, d, message) in accepts:
            break
    return tried


@given(data=st.data())
def test_the_opening_sweeps_are_the_brute_force_searches_call_for_call(data):
    messages = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=5)))
    openings = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=4)))
    commits = {
        (x, r): data.draw(st.sampled_from(_COMMITMENTS)) for x in messages for r in openings
    }
    accepts = data.draw(
        st.frozensets(st.tuples(*map(st.sampled_from, (_COMMITMENTS, _TINY, _TINY))))
    )
    calls = []

    def check(c, d, x):
        calls.append((c, d, x))
        return (c, d, x) in accepts

    scheme = CommitmentScheme(
        "table", lambda x, r: (commits[x, r], r), check, BindingClass.EQUIVOCABLE
    )
    witness = scheme.double_opening_witness(messages, openings)
    assert (witness, calls) == _double_opening_reference(
        accepts, set(commits.values()), messages, openings
    )
    for message in _TINY:
        calls.clear()
        tried = {c: _openings_tried(accepts, c, message, openings) for c in commits.values()}
        assert scheme.openable_commitments(message, messages, openings) == {
            c for c, tries in tried.items() if tries and tries[-1] in accepts
        }
        assert sorted(calls) == sorted(call for tries in tried.values() for call in tries)
