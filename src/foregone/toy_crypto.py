"""Desk-scale cryptographic primitives for the scenario registry.

Nothing here is secure; everything here is *checkable*.  Hash functions
and commitment schemes are instantiated over domains small enough that
their advertised properties (injectivity, binding, hiding) can be
confirmed or refuted by exhaustive sweep, and the sweeps are part of
the public surface so tests and the audit can run them as oracles.

Two commitment schemes are provided deliberately at opposite corners:

  * ``TRANSPARENT`` is perfectly binding and not hiding -- the
    commitment pins down the message, full stop.
  * ``XOR_PAD`` is perfectly hiding and not binding -- any commitment
    can be opened to any message via ``equivocate``.

Scenario claims about openings succeed or fail depending on which
corner the evidence puts the scheme in.

The binding sweep (``double_opening_witness``) searches each commitment
of the sorted image on its own, so it splits the image into contiguous
chunks and searches the chunks on the usable CPUs at once, one forked
worker per chunk past the first (``_search_in_chunks``).  Each ``check``
call of the serial search is made by exactly one process, and the
results are merged in commitment order, so the sweep returns, or
raises, exactly what the serial search would.  ``openable_commitments``
is too small a search to gain from workers and runs in the caller.  A
scheme with ``equivocate`` has each commitment try the opening that
``equivocate`` proposes before it scans the opening domain, so an
equivocable scheme's language takes one ``check`` call per commitment
where the scan takes one per opening up to the first valid one.  The
set is the scan's exactly; only a ``check`` or ``equivocate`` that
raises can tell the two searches apart (see the method).
"""

from __future__ import annotations

import os
import threading
from enum import Enum
from functools import partial
from typing import Any, BinaryIO, Callable, Optional, Sequence, TypeVar

from .values import Frozen

MAX_INPUT_BYTES = 8


class ToyCryptoError(Exception):
    pass


class LengthMismatchError(ToyCryptoError):
    pass


class DomainExceededError(ToyCryptoError):
    pass


# ---------------------------------------------------------------------------
# One-time pad
# ---------------------------------------------------------------------------


def otp(key: bytes, message: bytes) -> bytes:
    """Bitwise XOR of equal-length byte strings."""
    if len(key) != len(message):
        raise LengthMismatchError(
            f"key length {len(key)} != message length {len(message)}"
        )
    return _xor(key, message)


def _xor(a: bytes, b: bytes) -> bytes:
    """Bitwise XOR of byte strings whose lengths the caller has checked
    to be equal, as one integer XOR."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def complement(message: bytes) -> bytes:
    """Bitwise complement; the post-composition function used in tests."""
    return bytes(b ^ 0xFF for b in message)


# ---------------------------------------------------------------------------
# Hash functions
# ---------------------------------------------------------------------------


def toy_hash(collision: Optional[tuple[bytes, bytes]], x: bytes) -> bytes:
    """The byte permutation b -> 167*b + 89 (mod 256), applied bytewise.

    With ``collision = (first, second)``, ``second`` hashes like
    ``first``; with ``None`` the map is injective.
    """
    if collision is not None and x == collision[1]:
        x = collision[0]
    # 167 is odd, so the map permutes each byte; length is preserved, so
    # the whole map is injective.
    return bytes((b * 167 + 89) % 256 for b in x)


class HashSpec(Frozen):
    """A toy hash with a declared finite domain.

    ``known_collision`` is a documented witness pair when the function
    is built to collide.
    """

    __slots__ = ("name", "evaluate", "domain", "known_collision")

    def __init__(
        self,
        name: str,
        evaluate: Callable[[bytes], bytes],
        domain: tuple[bytes, ...],
        known_collision: Optional[tuple[bytes, bytes]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "evaluate", evaluate)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "known_collision", known_collision)

    def injectivity_witness(self) -> Optional[tuple[bytes, bytes]]:
        """Exhaustive sweep over the domain; returns a colliding pair or
        None when the function is injective on the domain."""
        evaluate = self.evaluate
        seen: dict[bytes, bytes] = {}
        for x in self.domain:
            y = evaluate(x)
            if y in seen and seen[y] != x:
                return (seen[y], x)
            seen[y] = x
        return None


def make_injective_hash(extra_domain: tuple[bytes, ...] = ()) -> HashSpec:
    domain = tuple(bytes([i]) for i in range(256)) + tuple(extra_domain)
    return HashSpec(
        name="byte-permutation",
        evaluate=partial(toy_hash, None),
        domain=domain,
    )


def make_colliding_hash(first: bytes, second: bytes) -> HashSpec:
    """Byte permutation patched so that ``second`` hashes like ``first``."""
    if first == second:
        raise ValueError("collision witnesses must differ")
    domain = tuple(bytes([i]) for i in range(256)) + (first, second)
    return HashSpec(
        name=f"byte-permutation-colliding[{first.hex()},{second.hex()}]",
        evaluate=partial(toy_hash, (first, second)),
        domain=domain,
        known_collision=(first, second),
    )


# ---------------------------------------------------------------------------
# Commitment schemes
# ---------------------------------------------------------------------------


class BindingClass(Enum):
    PERFECTLY_BINDING = "perfectly-binding"
    EQUIVOCABLE = "equivocable"


class CommitmentScheme(Frozen):
    """Commit/check pair with a claimed binding class.

    ``commit(x, r) -> (c, d)`` and ``check(c, d, x) -> bool`` satisfy the
    correctness clause: every honestly produced pair verifies.  The
    binding label is audited by ``double_opening_witness``; equivocable
    schemes also expose ``equivocate(c, x') -> d'``.
    """

    __slots__ = ("name", "commit", "check", "binding_class", "equivocate")

    def __init__(
        self,
        name: str,
        commit: Callable[[bytes, bytes], tuple[bytes, bytes]],
        check: Callable[[bytes, bytes, bytes], bool],
        binding_class: BindingClass,
        equivocate: Optional[Callable[[bytes, bytes], bytes]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "commit", commit)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "binding_class", binding_class)
        object.__setattr__(self, "equivocate", equivocate)

    def double_opening_witness(
        self, message_domain: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
    ) -> Optional[tuple[bytes, bytes, bytes, bytes, bytes]]:
        """Brute-force search for (x, x', d, d', c) with x != x' where both
        openings verify.  Commitment candidates are the scheme's image
        over the message domain crossed with the opening domain.

        Per commitment, each message's first valid opening is recorded;
        two differently-messaged records are a witness.  ``check`` is a
        black box, so a scheme with no witness costs the whole sweep.
        For a perfectly binding scheme whose pinned message opens at the
        first opening tried (``TRANSPARENT``'s check ignores the
        opening), each of the |C| commitments fails every opening of the
        |X| − 1 other messages: |C|·((|X|−1)·|D|+1) ``check`` calls, or
        1,044,736 over 256 messages and 16 openings.

        The sorted commitments are searched in chunks on the usable CPUs
        (``_search_in_chunks``).  Each ``check`` call of the serial
        search is made by exactly one process, and the result is the
        first witness, or the first exception raised, in
        sorted-commitment order: the serial search's.  A search that
        stops at a witness may also make a few calls in a later chunk's
        worker before that worker is killed.
        """
        return _search_in_chunks(
            partial(self._first_double_opening, message_domain, opening_domain),
            sorted(self._image(message_domain, opening_domain)),
        )

    def _first_double_opening(
        self,
        message_domain: tuple[bytes, ...],
        opening_domain: tuple[bytes, ...],
        commitments: Sequence[bytes],
    ) -> Optional[tuple[bytes, bytes, bytes, bytes, bytes]]:
        """``double_opening_witness`` over the given commitments, in order."""
        check = self.check
        for c in commitments:
            opened: Optional[tuple[bytes, bytes]] = None
            for x in message_domain:
                for d in opening_domain:
                    if check(c, d, x):
                        break
                else:
                    continue
                if opened is None:
                    opened = (x, d)
                elif opened[0] != x:
                    return (opened[0], x, opened[1], d, c)
        return None

    def openable_commitments(
        self,
        message: bytes,
        message_domain: tuple[bytes, ...],
        opening_domain: tuple[bytes, ...],
    ) -> frozenset[bytes]:
        """All commitments in the scheme's image that can be opened to
        ``message`` with some opening from the domain.

        The commitments of the sorted image are searched in order, so
        that the first exception raised is the same under every hash
        seed.  A scheme with ``equivocate`` first asks it for an opening
        of each commitment ``c``: when ``equivocate(c, message)`` is in
        the opening domain and ``check`` accepts it, ``c`` is openable.
        Otherwise, and when ``equivocate`` raises a ``ToyCryptoError``,
        ``c`` tries the openings of the domain in order up to its first
        valid one, as every commitment of a scheme without
        ``equivocate`` does.  A verified opening from the domain is
        proof enough, so the set is the ordered scan's whatever
        ``equivocate`` proposes.  An ``unknown-goal`` language under
        ``XOR_PAD`` takes 256 ``equivocate`` and 256 ``check`` calls
        where the scan took 32,896 ``check`` calls.

        Only the calls differ from the scan's, so only a faulty scheme
        can tell the two apart: a ``check`` that raises on the proposed
        opening raises even where the scan would have stopped at an
        earlier valid opening, and an earlier opening on which
        ``check`` raises is never tried when the proposal verifies.
        Neither registered scheme raises on any of these calls.  Any
        other exception from ``equivocate`` propagates, as one from
        ``check`` does.  The search runs in this process.
        """
        check = self.check
        equivocate = self.equivocate
        domain = frozenset(opening_domain)
        openable: set[bytes] = set()
        for c in sorted(self._image(message_domain, opening_domain)):
            if equivocate is not None:
                try:
                    d = equivocate(c, message)
                except ToyCryptoError:
                    d = None
                if d in domain and check(c, d, message):
                    openable.add(c)
                    continue
            for d in opening_domain:
                if check(c, d, message):
                    openable.add(c)
                    break
        return frozenset(openable)

    def _image(
        self, message_domain: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
    ) -> set[bytes]:
        """The commitments ``commit`` gives over the message domain
        crossed with the opening domain."""
        commit = self.commit
        return {commit(x, r)[0] for x in message_domain for r in opening_domain}


# ---------------------------------------------------------------------------
# The binding sweep on every usable CPU
# ---------------------------------------------------------------------------

_T = TypeVar("_T")

# The binding sweep's chunks never outnumber this.  The sweep is small
# (its 256 commitments take about 0.1 s in all) and every fork copies the
# caller's page tables and makes its next writes to each page fault, so
# past a few workers a fork costs more than its chunk saves; a large host
# would otherwise fork dozens of processes for it.
_MAX_WORKERS = 8


def _worker_count() -> int:
    """The workers for the binding sweep: one per CPU this process may
    run on, at most ``_MAX_WORKERS``.  1 where ``os.sched_getaffinity``
    or ``os.fork`` is missing, and in a process with other threads: a
    fork copies only the calling thread, so a lock another thread holds
    would stay held in the worker."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def _search_in_chunks(
    search: Callable[[Sequence[bytes]], Optional[_T]], commitments: Sequence[bytes]
) -> Optional[_T]:
    """The first outcome of ``search`` that is not None, over contiguous
    chunks of ``commitments`` in chunk order, one chunk per worker
    (``_worker_count``, never more than the commitments); None when every
    chunk's outcome is None.

    Chunk 0 is searched in this process while every other chunk is
    searched in a forked child, which sends back its outcome, the result
    or the exception raised, pickled over a pipe.  The first commitment
    of chunk 0 is searched before anything is forked, as a chunk of its
    own, and a search that it decides forks no worker.  Outcomes are
    read in chunk order, and a child's exception is raised here when its
    chunk is reached.  A chunk whose child could not be forked, or
    exited without an outcome (killed, say), is searched here instead,
    so a missing worker costs time, never the answer.  Children still
    running when this returns or raises are killed and reaped.
    """
    workers = max(1, min(_worker_count(), len(commitments)))
    size, extra = divmod(len(commitments), workers)
    bounds = [k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [commitments[a:b] for a, b in zip(bounds, bounds[1:])]
    outcome = search(chunks[0][:1])
    if outcome is not None:
        return outcome
    chunks[0] = chunks[0][1:]
    children: list[Optional[tuple[int, BinaryIO]]] = [None] * workers
    try:
        for k in range(1, workers):
            try:
                children[k] = _fork_search(search, chunks[k])
            except OSError:
                break
        for k, chunk in enumerate(chunks):
            sent = None
            child = children[k]
            if child is not None:
                sent = _collect(child)
                children[k] = None
            if sent is None:
                outcome = search(chunk)
            elif sent[0]:
                raise sent[1]
            else:
                outcome = sent[1]
            if outcome is not None:
                return outcome
        return None
    finally:
        for child in children:
            if child is not None:
                _reap(child)


# ``pickle`` and ``signal`` are imported where a worker is forked, read
# or reaped: at module level they added about 4 ms to every import of
# the CLI on a 2-core VM, and most runs fork no worker.


def _fork_search(
    search: Callable[[Sequence[bytes]], _T], chunk: Sequence[bytes]
) -> tuple[int, BinaryIO]:
    """Fork a child that searches ``chunk`` and writes ``(raised, value)``,
    pickled, to a pipe; return its pid and the pipe's read end."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child never returns into the caller's frames, and never
        # flushes the stdio buffers it inherited.
        try:
            os.close(read_fd)
            try:
                sent = (False, search(chunk))
            except Exception as exc:
                sent = (True, exc)
            data = pickle.dumps(sent)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(child: tuple[int, BinaryIO]) -> Optional[tuple[bool, Any]]:
    """The ``(raised, value)`` a child sent, once it has exited; None when
    it sent none whole (it was killed, say, or its value does not
    unpickle here)."""
    import pickle

    data = child[1].read()
    _reap(child)
    try:
        return pickle.loads(data)
    except Exception:
        return None


def _reap(child: tuple[int, BinaryIO]) -> None:
    import signal

    pid, pipe = child
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


_TRANSPARENT_TAG = b"C|"


def _transparent_commit(x: bytes, r: bytes) -> tuple[bytes, bytes]:
    if len(x) > MAX_INPUT_BYTES or len(r) > MAX_INPUT_BYTES:
        raise DomainExceededError(
            f"inputs are capped at {MAX_INPUT_BYTES} bytes in the toy domain"
        )
    # The commitment encodes the message injectively; the opening value
    # only carries r, so checking ignores it.
    return (_TRANSPARENT_TAG + x, r)


def _transparent_check(c: bytes, d: bytes, x: bytes) -> bool:
    del d
    return c == _TRANSPARENT_TAG + x


def _xor_pad_commit(x: bytes, r: bytes) -> tuple[bytes, bytes]:
    return (otp(x, r), r)


def _xor_pad_check(c: bytes, d: bytes, x: bytes) -> bool:
    if len(c) != len(d) or len(c) != len(x):
        return False
    return _xor(c, d) == x


def _xor_pad_equivocate(c: bytes, x: bytes) -> bytes:
    return otp(c, x)


TRANSPARENT = CommitmentScheme(
    name="transparent",
    commit=_transparent_commit,
    check=_transparent_check,
    binding_class=BindingClass.PERFECTLY_BINDING,
)

XOR_PAD = CommitmentScheme(
    name="xor-pad",
    commit=_xor_pad_commit,
    check=_xor_pad_check,
    binding_class=BindingClass.EQUIVOCABLE,
    equivocate=_xor_pad_equivocate,
)

SCHEMES: dict[str, CommitmentScheme] = {
    TRANSPARENT.name: TRANSPARENT,
    XOR_PAD.name: XOR_PAD,
}


def byte_domain() -> tuple[bytes, ...]:
    """All single-byte strings; the canonical exhaustive sweep domain."""
    return tuple(bytes([i]) for i in range(256))


def small_byte_domain() -> tuple[bytes, ...]:
    """The first 16 single-byte strings; a declared opening domain small
    enough for the cubic binding sweep to stay quick."""
    return tuple(bytes([i]) for i in range(16))


def hiding_profile(
    scheme: CommitmentScheme, messages: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
) -> dict[bytes, dict[bytes, int]]:
    """Commitment-value histogram per message over uniform openings.

    A perfectly hiding scheme shows the same histogram for every
    message; a transparent one shows point masses.
    """
    commit = scheme.commit
    profile: dict[bytes, dict[bytes, int]] = {}
    for x in messages:
        counts: dict[bytes, int] = {}
        for r in opening_domain:
            c = commit(x, r)[0]
            counts[c] = counts.get(c, 0) + 1
        profile[x] = counts
    return profile
