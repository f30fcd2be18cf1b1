from __future__ import annotations

import copy
import hashlib

from foregone import tapes
from foregone.tapes import RandomnessAssignment, ZeroTape


def test_a_block_is_the_hashlib_sha256_of_its_coordinates():
    for seed, stream, index in ((0, "verifier", 0), (7, "m", 3), ((1 << 64) - 1, "ü", 12)):
        material = f"{seed}|{stream}|{index}".encode("utf-8")
        assert tapes._block(seed, stream, index) == hashlib.sha256(material).digest()


def test_same_seed_and_stream_yield_identical_bytes():
    a = RandomnessAssignment(7).tape_for("verifier")
    b = RandomnessAssignment(7).tape_for("verifier")
    assert a.read_bytes(64) == b.read_bytes(64)


def test_streams_are_independent_per_machine_id():
    assignment = RandomnessAssignment(7)
    assert assignment.tape_for("left").read_bytes(16) != assignment.tape_for(
        "right"
    ).read_bytes(16)


def test_reads_continue_where_they_left_off():
    assignment = RandomnessAssignment(3)
    first = assignment.tape_for("m").read_bytes(10)
    second = assignment.tape_for("m").read_bytes(10)
    whole = RandomnessAssignment(3).tape_for("m").read_bytes(20)
    assert first + second == whole


def test_copied_assignment_replays_from_the_same_point():
    assignment = RandomnessAssignment(11)
    assignment.tape_for("m").read_bytes(5)
    clone = copy.deepcopy(assignment)
    assert clone.offsets == assignment.offsets
    assert clone.tape_for("m").read_bytes(8) == assignment.tape_for("m").read_bytes(8)
    # and they advance independently afterwards
    clone.tape_for("m").read_bytes(1)
    assert clone.offsets != assignment.offsets


def test_an_assignment_built_from_offsets_reads_on_independently():
    assignment = RandomnessAssignment(11)
    assignment.tape_for("m").read_bytes(5)
    resumed = RandomnessAssignment(11, dict(assignment.offsets))
    assert (resumed.seed, resumed.offsets) == (assignment.seed, assignment.offsets)
    assert resumed.tape_for("m").read_bytes(8) == assignment.tape_for("m").read_bytes(8)
    resumed.tape_for("n").read_bytes(1)
    assert "n" not in assignment.offsets


def test_seed_wraps_to_64_bits():
    assert RandomnessAssignment(2**64 + 5).seed == 5


def test_zero_tape_is_all_zeros():
    tape = ZeroTape()
    assert tape.read_bytes(4) == b"\x00\x00\x00\x00"
    assert tape.read_bit() == 0
