from __future__ import annotations

import mmap
import os
import threading
import time
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foregone.toy_crypto as toy_crypto
from foregone.toy_crypto import (
    SCHEMES,
    TRANSPARENT,
    XOR_PAD,
    BindingClass,
    CommitmentScheme,
    DomainExceededError,
    LengthMismatchError,
    ToyCryptoError,
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


def _workers(count):
    """Search with ``count`` workers, whatever the CPUs."""
    return mock.patch.object(toy_crypto, "_worker_count", lambda commitments: count)


@given(data=st.data())
@_workers(1)  # ``calls`` is a list of this process
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


# --- the searches on more than one worker ---------------------------------------

# enough commitments that three workers search chunks of two or three
_SPREAD = tuple(b"c%d" % i for i in range(7))


def test_a_search_gets_a_worker_per_cpu_and_per_minimum_chunk_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    counts = [toy_crypto._worker_count(n) for n in (0, 2, 31, 32, 64, 255, 256, 4096)]
    assert counts == [1, 1, 1, 1, 2, 7, 8, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [toy_crypto._worker_count(n) for n in (2, 64, 256)] == [1, 2, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert toy_crypto._worker_count(256) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert toy_crypto._worker_count(256) == 1


def test_a_process_with_other_threads_forks_no_worker():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert toy_crypto._worker_count(256) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def _outcome(search):
    """What ``search()`` returns, or the type and message of what it raises."""
    try:
        return ("returned", search())
    except ToyCryptoError as exc:
        return ("raised", type(exc), str(exc))


def _outcomes(scheme, messages, openings):
    """The outcomes of both searches of ``scheme``, for every message of
    ``_TINY``, under 1, 2 and 3 workers."""
    searches = [partial(scheme.double_opening_witness, messages, openings)] + [
        partial(scheme.openable_commitments, message, messages, openings) for message in _TINY
    ]
    outcomes = []
    for workers in (1, 2, 3):
        with _workers(workers):
            outcomes.append([_outcome(search) for search in searches])
    return outcomes


def _table_check(accepts, raises):
    """A ``check`` that raises on the triples of ``raises`` (one type in the
    first commitments, another in the rest) and accepts those of ``accepts``."""

    def check(c, d, x):
        if (c, d, x) in raises:
            error = LengthMismatchError if c < b"c4" else DomainExceededError
            raise error(f"refused {c!r} {d!r} {x!r}")
        return (c, d, x) in accepts

    return check


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_worker_count_gives_the_serial_result(data):
    messages = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=5)))
    openings = tuple(data.draw(st.lists(st.sampled_from(_TINY), max_size=4)))
    commits = {
        (x, r): data.draw(st.sampled_from(_SPREAD)) for x in messages for r in openings
    }
    triples = st.tuples(*map(st.sampled_from, (_SPREAD, _TINY, _TINY)))
    accepts = data.draw(st.frozensets(triples))
    raises = data.draw(st.frozensets(triples, max_size=2))
    scheme = CommitmentScheme(
        "table",
        lambda x, r: (commits[x, r], r),
        _table_check(accepts, raises),
        BindingClass.EQUIVOCABLE,
    )
    one, two, three = _outcomes(scheme, messages, openings)
    assert one == two == three


@pytest.mark.parametrize("planted", ["witness", "raise"])
@pytest.mark.parametrize("position", range(len(_SPREAD)))
def test_a_witness_or_a_raise_at_any_commitment_gives_the_serial_result(position, planted):
    # every commitment opens to b"\x01" at b"\x00"; the one at ``position``
    # and the last one also open to b"\x02" at b"\x01", or raise there,
    # so the first of the two decides
    messages = (b"\x01", b"\x02")
    pairs = [(x, r) for x in messages for r in _TINY]
    commits = {pair: _SPREAD[i % len(_SPREAD)] for i, pair in enumerate(pairs)}
    accepts = {(c, b"\x00", b"\x01") for c in _SPREAD}
    c = _SPREAD[position]
    odd = {(c, b"\x01", b"\x02"), (_SPREAD[-1], b"\x01", b"\x02")}
    raises = odd if planted == "raise" else set()
    scheme = CommitmentScheme(
        "planted",
        lambda x, r: (commits[x, r], r),
        _table_check(accepts | odd - raises, raises),
        BindingClass.EQUIVOCABLE,
    )
    one, two, three = _outcomes(scheme, messages, _TINY)
    assert one == two == three
    if planted == "witness":
        assert one[0] == ("returned", (b"\x01", b"\x02", b"\x00", b"\x01", c))
    else:
        error = LengthMismatchError if c < b"c4" else DomainExceededError
        assert one[0] == ("raised", error, f"refused {c!r} b'\\x01' b'\\x02'")


def test_two_workers_split_the_transparent_sweep_calls_between_them(monkeypatch):
    # the counter is shared memory, one slot for this process and one for
    # the worker, so the calls of both are counted
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda commitments: 2)
    parent = os.getpid()
    counts = memoryview(mmap.mmap(-1, 16)).cast("Q")

    def check(c, d, x):
        counts[os.getpid() != parent] += 1
        return TRANSPARENT.check(c, d, x)

    counted = CommitmentScheme(
        TRANSPARENT.name, TRANSPARENT.commit, check, TRANSPARENT.binding_class
    )
    assert counted.double_opening_witness(byte_domain(), small_byte_domain()) is None
    assert counts.tolist() == [522_368, 522_368]
    assert sum(counts) == 1_044_736


def _searches(scheme, messages, openings):
    return (
        scheme.double_opening_witness(messages, openings),
        scheme.openable_commitments(messages[0], messages, openings),
        scheme.openable_commitments(messages[-1], messages, openings),
    )


def _serial(scheme, messages, openings):
    with _workers(1):
        return _searches(scheme, messages, openings)


def _dying_in_a_worker(scheme, parent):
    """``scheme``, but a worker that calls its ``check`` exits at once
    without an outcome."""

    def check(c, d, x):
        if os.getpid() != parent:
            os._exit(1)
        return scheme.check(c, d, x)

    return CommitmentScheme(scheme.name, scheme.commit, check, scheme.binding_class)


def _late_double_opening(c, d, x):
    """The transparent check, plus a second opening of the last commitment
    of ``_SAMPLED``."""
    return TRANSPARENT.check(c, d, x) or (c, d, x) == (b"C|\xf8", b"\x01", b"\xf0")


LATE = CommitmentScheme(
    "late", TRANSPARENT.commit, _late_double_opening, BindingClass.EQUIVOCABLE
)

# 32 messages, so three workers search chunks of 10 or 11 commitments
_SAMPLED = byte_domain()[::8]


@pytest.mark.parametrize("scheme", [TRANSPARENT, XOR_PAD, LATE], ids=lambda s: s.name)
def test_a_chunk_whose_worker_cannot_be_forked_is_searched_here(scheme, monkeypatch):
    messages, openings = _SAMPLED, small_byte_domain()
    serial = _serial(scheme, messages, openings)
    forks = []

    def fork():
        forks.append(True)
        raise BlockingIOError("no process for the worker")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda commitments: 3)
    assert _searches(scheme, messages, openings) == serial
    assert forks


@pytest.mark.parametrize("scheme", [TRANSPARENT, XOR_PAD, LATE], ids=lambda s: s.name)
def test_a_chunk_whose_worker_dies_is_searched_here(scheme, monkeypatch):
    messages, openings = _SAMPLED, small_byte_domain()
    serial = _serial(scheme, messages, openings)
    if scheme is LATE:
        assert serial[0] == (b"\xf0", b"\xf8", b"\x01", b"\x00", b"C|\xf8")
    dying = _dying_in_a_worker(scheme, os.getpid())
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda commitments: 3)
    assert _searches(dying, messages, openings) == serial


def _sleeping_in_a_worker(check, parent):
    """``check``, but a worker that calls it sleeps for a minute and exits,
    so it is still running when this process has its answer."""

    def sleepy(c, d, x):
        if os.getpid() != parent:
            time.sleep(60)
            os._exit(1)
        return check(c, d, x)

    return sleepy


def _raising(c, d, x):
    raise DomainExceededError("refused")


def test_no_worker_outlives_its_search(monkeypatch):
    monkeypatch.setattr(toy_crypto, "_worker_count", lambda commitments: 2)
    parent = os.getpid()

    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    assert TRANSPARENT.double_opening_witness(byte_domain(), small_byte_domain()) is None
    no_child_left()
    early = (b"\x00", b"\x01", b"\x00", b"\x01", b"\x00")
    assert XOR_PAD.double_opening_witness(byte_domain(), small_byte_domain()) == early
    no_child_left()
    start = time.monotonic()
    sleepy = CommitmentScheme(
        XOR_PAD.name,
        XOR_PAD.commit,
        _sleeping_in_a_worker(XOR_PAD.check, parent),
        XOR_PAD.binding_class,
    )
    assert sleepy.double_opening_witness(byte_domain(), small_byte_domain()) == early
    no_child_left()
    raising = CommitmentScheme(
        "raising",
        TRANSPARENT.commit,
        _sleeping_in_a_worker(_raising, parent),
        BindingClass.PERFECTLY_BINDING,
    )
    for search in (
        partial(raising.double_opening_witness, byte_domain(), small_byte_domain()),
        partial(raising.openable_commitments, b"\x00", byte_domain(), small_byte_domain()),
    ):
        with pytest.raises(DomainExceededError, match="refused"):
            search()
        no_child_left()
    assert time.monotonic() - start < 30  # the sleeping workers were killed
