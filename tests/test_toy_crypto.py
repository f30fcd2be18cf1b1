from __future__ import annotations

from collections import Counter
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foregone.toy_crypto import (
    SCHEMES,
    TRANSPARENT,
    XOR_PAD,
    BindingClass,
    CommitmentScheme,
    DomainExceededError,
    MAX_INPUT_BYTES,
    LengthMismatchError,
    ToyCryptoError,
    byte_domain,
    collision_witness,
    complement,
    hiding_profile,
    otp,
    small_byte_domain,
    toy_hash,
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


_PAIR = (b"q3-report", b"shadow-q3")


def test_injective_hash_survives_the_exhaustive_sweep():
    assert collision_witness(partial(toy_hash, None), byte_domain() + _PAIR) is None


def test_colliding_hash_exposes_exactly_its_documented_pair():
    evaluate = partial(toy_hash, _PAIR)
    assert evaluate(b"q3-report") == evaluate(b"shadow-q3")
    assert collision_witness(evaluate, byte_domain() + _PAIR) == _PAIR


def test_hash_preserves_length_and_permutes_bytes():
    assert len(toy_hash(None, b"abcdef")) == 6
    images = {toy_hash(None, x) for x in byte_domain()}
    assert len(images) == 256


def _first_collision_scan(evaluate, domain):
    """Each input in domain order against every earlier one: the first
    pair of distinct inputs with the same output."""
    for j, x in enumerate(domain):
        for earlier in domain[:j]:
            if earlier != x and evaluate(earlier) == evaluate(x):
                return (earlier, x)
    return None


@given(data=st.data())
def test_the_collision_sweep_finds_the_scan_s_first_collision(data):
    # three outputs over four inputs, so that collisions are common, and
    # domains that list an input more than once
    inputs = (b"", b"\x00", b"\x01", b"\x02")
    table = {x: data.draw(st.sampled_from((b"y0", b"y1", b"y2"))) for x in inputs}
    domain = tuple(data.draw(st.lists(st.sampled_from(inputs), max_size=8)))
    assert collision_witness(table.__getitem__, domain) == _first_collision_scan(
        table.__getitem__, domain
    )


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
    # b"\x00" gives 0x00..0x0f, then b"\x01" at b"\x00" gives 0x01 again
    assert witness == (b"\x00", b"\x01", b"\x01", b"\x00", b"\x01")
    x, xp, d, dp, c = witness
    assert x != xp
    assert scheme.check(c, d, x)
    assert scheme.check(c, dp, xp)
    assert scheme.binding_class is BindingClass.EQUIVOCABLE


@pytest.mark.parametrize("scheme", list(SCHEMES.values()), ids=list(SCHEMES))
def test_a_registered_scheme_s_binding_label_is_what_its_sweep_finds(scheme):
    # decommit's binding assertion reads the label, so the label is
    # cross-checked here rather than swept in every build
    witness = scheme.double_opening_witness(byte_domain(), small_byte_domain())
    assert (witness is None) == (scheme.binding_class is BindingClass.PERFECTLY_BINDING)


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


def _histograms(scheme, messages, openings):
    """Per message, once, how often each commitment comes out of its
    openings under ``scheme.commit``; a refused pair counts for none."""
    histograms = {}
    for x in messages:
        counts = Counter()
        for r in openings:
            try:
                counts[scheme.commit(x, r)[0]] += 1
            except ToyCryptoError:
                pass
        histograms[x] = dict(counts)
    return histograms


def _image(scheme, messages, openings):
    """The commitments ``commit`` gives over the domains; a pair on which
    it raises a ``ToyCryptoError`` gives none."""
    return set().union(*_histograms(scheme, messages, openings).values())


def _double_opening_scan(scheme, messages, openings):
    """The plain loop in pass order over ``scheme.check``: each pair,
    messages then openings, against every earlier pair of another
    message; the first pair whose opening opens an earlier pair's
    commitment to its message ends the scan, with the earliest such
    earlier pair."""
    pairs = [(x, d) for x in messages for d in openings]
    for later, (other, other_d) in enumerate(pairs):
        for x, d in pairs[:later]:
            if x == other:
                continue
            try:
                c = scheme.commit(x, d)[0]
            except ToyCryptoError:
                continue
            if scheme.check(c, other_d, other):
                return (x, other, d, other_d, c)
    return None


def _language_scan(scheme, message, messages, openings):
    """The commitments of the image that some opening opens to ``message``
    under ``scheme.check``."""
    image = _image(scheme, messages, openings)
    return {c for c in image if any(scheme.check(c, d, message) for d in openings)}


def _table_scheme(data, commitments):
    """A scheme whose ``commit`` is a drawn table over ``_TINY`` squared,
    raising a ``ToyCryptoError`` on the pairs the table maps to None."""
    outcomes = st.sampled_from((*commitments, None))
    table = {(x, r): data.draw(outcomes) for x in _TINY for r in _TINY}

    def commit(x, r):
        if table[x, r] is None:
            raise DomainExceededError(f"no commitment of {x!r} with {r!r}")
        return table[x, r], r

    return CommitmentScheme("table", commit, BindingClass.EQUIVOCABLE)


def _domains(data):
    messages = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=5)))
    openings = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=4)))
    return messages, openings


@given(data=st.data())
def test_the_grouped_sweeps_give_the_scan_s_witness_and_languages(data):
    # two commitments, so that double openings are common
    scheme = _table_scheme(data, _COMMITMENTS[:2])
    messages, openings = _domains(data)
    assert scheme.double_opening_witness(messages, openings) == _double_opening_scan(
        scheme, messages, openings
    )
    for message in _TINY:
        assert scheme.openable_commitments(message, messages, openings) == _language_scan(
            scheme, message, messages, openings
        )
    assert hiding_profile(scheme, messages, openings) == _histograms(
        scheme, messages, openings
    )


@given(data=st.data())
def test_the_opening_sweeps_are_the_brute_force_searches_call_for_call(data):
    # the binding sweep commits each pair once, messages then openings, up
    # to the second pair of its witness; a language commits its message's
    # openings, and the whole domain's pairs after them only for a message
    # outside the message domain
    scheme = _table_scheme(data, _COMMITMENTS)
    messages, openings = _domains(data)
    calls = []

    def commit(x, r):
        calls.append((x, r))
        return scheme.commit(x, r)

    counted = CommitmentScheme("counted", commit, scheme.binding_class)
    pairs = [(x, r) for x in messages for r in openings]
    witness = counted.double_opening_witness(messages, openings)
    if witness is None:
        assert calls == pairs
    else:
        assert calls == pairs[: pairs.index((witness[1], witness[3])) + 1]
    for message in _TINY:
        calls.clear()
        counted.openable_commitments(message, messages, openings)
        own = [(message, r) for r in openings]
        assert calls == (own if message in messages else own + pairs)


def test_an_xor_pad_language_of_a_message_of_another_length_is_empty():
    # commit refuses the lengths, so no opening opens anything to it
    for openings in (byte_domain(), small_byte_domain()):
        for message in (b"", b"\x11\x22"):
            assert XOR_PAD.openable_commitments(message, (b"\x11", b"\x22"), openings) == set()


# --- the sweeps of the registered schemes ---------------------------------------


def _xor_pad_refusing_ff(x, r):
    """The xor-pad commit, refusing the message ``b"\\xff"``."""
    if x == b"\xff":
        raise DomainExceededError(f"no commitment of {x!r} here")
    return XOR_PAD.commit(x, r)


def _transparent_late(x, r):
    """The transparent commit, plus a second opening of the last commitment
    of ``_SAMPLED``: ``b"\\xf0"`` at ``b"\\x01"`` gives ``b"\\xf8"``'s."""
    if (x, r) == (b"\xf0", b"\x01"):
        return TRANSPARENT.commit(b"\xf8", r)
    return TRANSPARENT.commit(x, r)


LATE = CommitmentScheme("late", _transparent_late, BindingClass.EQUIVOCABLE)
REFUSING = CommitmentScheme("refusing", _xor_pad_refusing_ff, BindingClass.EQUIVOCABLE)

# 32 messages, the last of them b"\xf8", and b"\xff" outside them
_SAMPLED = byte_domain()[::8]


@pytest.mark.parametrize(
    "scheme", [TRANSPARENT, XOR_PAD, LATE, REFUSING], ids=lambda s: s.name
)
def test_a_registered_scheme_s_sweeps_are_the_scan_s(scheme):
    messages, openings = _SAMPLED, small_byte_domain()
    witness = scheme.double_opening_witness(messages, openings)
    assert witness == _double_opening_scan(scheme, messages, openings)
    expected = {
        "transparent": None,
        "xor-pad": (b"\x00", b"\x08", b"\x08", b"\x00", b"\x08"),
        "late": (b"\xf0", b"\xf8", b"\x01", b"\x00", b"C|\xf8"),
        "refusing": (b"\x00", b"\x08", b"\x08", b"\x00", b"\x08"),
    }
    assert witness == expected[scheme.name]
    for message in (b"\x00", b"\xf0", b"\xf8", b"\xff"):
        assert scheme.openable_commitments(message, messages, openings) == _language_scan(
            scheme, message, messages, openings
        )
    # the audit's hiding sweep: the refusing scheme gives b"\xff" no
    # commitment, so its histogram is empty
    profile = hiding_profile(scheme, (b"\x00", b"\xff"), byte_domain())
    assert profile == _histograms(scheme, (b"\x00", b"\xff"), byte_domain())
    assert (profile[b"\xff"] == {}) == (scheme is REFUSING)


# one commitment per opening of b"\x01", so that a planted double opening
# can sit at any of its pairs
_SPREAD = tuple(b"c%d" % i for i in range(7))


@pytest.mark.parametrize("planted", ["witness", "raise"])
@pytest.mark.parametrize("position", range(len(_SPREAD)))
def test_a_witness_or_a_raise_at_any_commitment_gives_the_serial_result(position, planted):
    # b"\x01" gives each commitment of _SPREAD, one per opening; b"\x02"
    # gives fresh commitments before its opening ``position``, b"\x01"'s
    # commitment at opening ``6 - position`` there, and the smallest one,
    # _SPREAD[0], at every later opening.  The first double opening of the
    # pass is the witness, not the smallest; or commit refuses b"\x02"
    # from ``position`` on, and no commitment opens to two messages
    messages = (b"\x01", b"\x02")
    openings = tuple(bytes([i]) for i in range(len(_SPREAD)))
    table = {(b"\x01", r): c for r, c in zip(openings, _SPREAD)}
    for i, r in enumerate(openings):
        table[b"\x02", r] = b"f%d" % i if i < position else _SPREAD[0]
    table[b"\x02", openings[position]] = _SPREAD[-1 - position]
    calls = []

    def commit(x, r):
        calls.append((x, r))
        if x == b"\x02" and planted == "raise" and r >= openings[position]:
            raise DomainExceededError(f"no commitment of {x!r} with {r!r}")
        return table[x, r], r

    scheme = CommitmentScheme("planted", commit, BindingClass.EQUIVOCABLE)
    witness = scheme.double_opening_witness(messages, openings)
    swept = len(calls)
    assert witness == _double_opening_scan(scheme, messages, openings)
    language = scheme.openable_commitments(b"\x02", messages, openings)
    assert language == _language_scan(scheme, b"\x02", messages, openings)
    fresh = {b"f%d" % i for i in range(position)}
    if planted == "witness":
        c = _SPREAD[-1 - position]
        assert witness == (b"\x01", b"\x02", openings[-1 - position], openings[position], c)
        assert swept == len(openings) + position + 1
        assert language == fresh | {c, _SPREAD[0]}
    else:
        assert witness is None
        assert swept == 2 * len(openings)
        assert language == fresh


def _declared_opening(scheme_name, c, d, x):
    """The opening relation each registered scheme declared before it was
    its commit: the transparent commitment is the tagged message whatever
    the opening, and an xor-pad opening XORs the commitment back to the
    message."""
    if scheme_name == "transparent":
        return c == b"C|" + x
    return len(c) == len(d) == len(x) and otp(c, d) == x


@pytest.mark.parametrize("scheme_name", ["transparent", "xor-pad"])
@given(data=st.data())
def test_a_registered_scheme_opens_what_its_declared_relation_opens(scheme_name, data):
    # within the toy input cap, opening by recomputation is the relation
    scheme = SCHEMES[scheme_name]
    x = data.draw(st.binary(max_size=MAX_INPUT_BYTES))
    d = data.draw(st.binary(max_size=MAX_INPUT_BYTES))
    try:
        honest = [st.just(scheme.commit(x, d)[0])]
    except ToyCryptoError:
        honest = []
    c = data.draw(st.one_of(*honest, st.binary(max_size=MAX_INPUT_BYTES + 2)))
    assert scheme.check(c, d, x) == _declared_opening(scheme_name, c, d, x)


@pytest.mark.parametrize("scheme_name", ["transparent", "xor-pad"])
def test_a_pair_that_commit_refuses_opens_nothing(scheme_name):
    # the transparent commit refuses inputs over the cap, and xor-pad
    # refuses an opening of another length than the message; check says
    # no where commit raises
    scheme = SCHEMES[scheme_name]
    long = b"\x00" * (MAX_INPUT_BYTES + 1)
    if scheme is TRANSPARENT:
        refused = [(b"C|" + long, b"\x00", long), (b"C|\x00", long, b"\x00")]
    else:
        refused = [(b"\x00", b"\x00\x00", b"\x00"), (b"\x00\x00", b"\x00", b"\x00\x00")]
    for c, d, x in refused:
        with pytest.raises(ToyCryptoError):
            scheme.commit(x, d)
        assert not scheme.check(c, d, x)


@pytest.mark.parametrize("scheme_name", ["transparent", "xor-pad"])
def test_a_language_of_a_message_outside_the_message_domain_is_cut_to_the_image(
    scheme_name,
):
    # b"\x33" is not a secret: its commitments count only where a secret's
    # opening gives them too
    scheme = SCHEMES[scheme_name]
    secrets = (b"\x11", b"\x22")
    small = scheme.openable_commitments(b"\x33", secrets, small_byte_domain())
    full = scheme.openable_commitments(b"\x33", secrets, byte_domain())
    if scheme is TRANSPARENT:
        assert small == full == set()
    else:
        # the secrets' 16 pads give 0x10..0x2f, b"\x33"'s give 0x30..0x3f;
        # over every pad each message gives every byte
        assert small == set()
        assert full == set(byte_domain())
