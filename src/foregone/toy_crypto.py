"""Desk-scale cryptographic primitives for the scenario registry.

Nothing here is secure; everything here is *checkable*.  Hash functions
and commitment schemes are swept over domains small enough that their
advertised properties (injectivity, binding, hiding) can be confirmed or
refuted exhaustively, and the sweeps are part of the public surface so
tests and the audit can run them as oracles.  A hash is ``toy_hash``
with or without a planted collision, and a sweep takes it over a domain
(``collision_witness``).

Two commitment schemes are provided deliberately at opposite corners:

  * ``TRANSPARENT`` is perfectly binding and not hiding -- the
    commitment pins down the message, full stop.
  * ``XOR_PAD`` is perfectly hiding and not binding -- any commitment
    can be opened to any message via ``equivocate``.

Scenario claims about openings succeed or fail depending on which
corner the evidence puts the scheme in.

A commitment scheme is its ``commit`` function.  As in the usual
definition, an opening ``d`` opens a commitment ``c`` to a message
``x`` when ``commit(x, d)`` gives ``c``, so every opening is verified by
recomputation, and a pair on which ``commit`` raises a
``ToyCryptoError`` opens nothing.  The sweeps read the scheme's image,
under that one refusal rule: the binding sweep stops at the first
commitment that two messages' pairs give, a message's language is the
commitments its openings give, and the hiding sweep counts them per
message.  This is a deliberate narrowing: a scheme whose verification is
not recomputation cannot be declared.  Both registered schemes verify by
recomputation over their whole sweep domains.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

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
    # one integer XOR
    xored = int.from_bytes(key, "big") ^ int.from_bytes(message, "big")
    return xored.to_bytes(len(key), "big")


def complement(message: bytes) -> bytes:
    """Bitwise complement; ``decommit``'s composed target and
    post-processor apply it."""
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


def collision_witness(
    evaluate: Callable[[bytes], bytes], domain: Sequence[bytes]
) -> Optional[tuple[bytes, bytes]]:
    """Exhaustive sweep of ``evaluate`` over ``domain``: the first pair of
    distinct inputs, in domain order, that give the same output, or None
    when ``evaluate`` is injective on the domain.  An input listed twice
    is not a collision."""
    seen: dict[bytes, bytes] = {}
    for x in domain:
        first = seen.setdefault(evaluate(x), x)
        if first != x:
            return (first, x)
    return None


# ---------------------------------------------------------------------------
# Commitment schemes
# ---------------------------------------------------------------------------


class BindingClass(Enum):
    PERFECTLY_BINDING = "perfectly-binding"
    EQUIVOCABLE = "equivocable"


class CommitmentScheme(Frozen):
    """A commit function with a claimed binding class.

    ``commit(x, r) -> (c, d)``, and an opening ``d`` opens ``c`` to ``x``
    when ``commit(x, d)`` gives ``c`` again (``check``).  Both registered
    schemes return ``r`` as ``d``, so every honestly produced pair
    verifies.  The binding label is audited by
    ``double_opening_witness``; equivocable schemes also expose
    ``equivocate(c, x') -> d'``.
    """

    __slots__ = ("name", "commit", "binding_class", "equivocate")

    def __init__(
        self,
        name: str,
        commit: Callable[[bytes, bytes], tuple[bytes, bytes]],
        binding_class: BindingClass,
        equivocate: Optional[Callable[[bytes, bytes], bytes]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "commit", commit)
        object.__setattr__(self, "binding_class", binding_class)
        object.__setattr__(self, "equivocate", equivocate)

    def check(self, c: bytes, d: bytes, x: bytes) -> bool:
        """Whether ``d`` opens ``c`` to ``x``: ``commit(x, d)`` gives ``c``.
        A ``ToyCryptoError`` from ``commit`` opens nothing."""
        try:
            return self.commit(x, d)[0] == c
        except ToyCryptoError:
            return False

    def _commitments(
        self, message_domain: Sequence[bytes], opening_domain: Sequence[bytes]
    ) -> Iterator[tuple[bytes, bytes, bytes]]:
        """``(x, d, c)`` with ``c = commit(x, d)[0]`` for each message and
        then each opening, in domain order, leaving out the pairs on which
        ``commit`` raises a ``ToyCryptoError``."""
        commit = self.commit
        for x in message_domain:
            for d in opening_domain:
                try:
                    c = commit(x, d)[0]
                except ToyCryptoError:
                    continue
                yield x, d, c

    def double_opening_witness(
        self, message_domain: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
    ) -> Optional[tuple[bytes, bytes, bytes, bytes, bytes]]:
        """A witness ``(x, x', d, d', c)`` with ``x != x'`` where ``d`` opens
        ``c`` to ``x`` and ``d'`` opens it to ``x'``, or None when no
        commitment of the domains opens to two messages.

        One pass over the pairs of the domains, messages then openings,
        keeps the first pair that gave each commitment, and stops at its
        first double opening: the first pair ``(x', d')`` whose commitment
        ``c`` an earlier pair ``(x, d)`` of another message gave first.
        Binding is refuted by one witness, but proved only by the whole
        pass: over 256 messages and 16 openings a binding scheme takes
        4,096 ``commit`` calls, and xor-pad 17, with the witness
        ``(b"\\x00", b"\\x01", b"\\x01", b"\\x00", b"\\x01")``.
        """
        first: dict[bytes, tuple[bytes, bytes]] = {}
        for x, d, c in self._commitments(message_domain, opening_domain):
            opened = first.get(c)
            if opened is None:
                first[c] = (x, d)
            elif opened[0] != x:
                return (opened[0], x, opened[1], d, c)
        return None

    def openable_commitments(
        self,
        message: bytes,
        message_domain: tuple[bytes, ...],
        opening_domain: tuple[bytes, ...],
    ) -> frozenset[bytes]:
        """All commitments in the scheme's image over the message domain
        crossed with the opening domain that some opening from the domain
        opens to ``message``: the commitments ``message``'s openings give,
        which are all in the image when ``message`` is in the message
        domain.  An ``unknown-goal`` language takes 256 ``commit`` calls.
        """
        openable = {c for _, _, c in self._commitments((message,), opening_domain)}
        if message not in message_domain:
            openable &= {c for _, _, c in self._commitments(message_domain, opening_domain)}
        return frozenset(openable)


_TRANSPARENT_TAG = b"C|"


def _transparent_commit(x: bytes, r: bytes) -> tuple[bytes, bytes]:
    if len(x) > MAX_INPUT_BYTES or len(r) > MAX_INPUT_BYTES:
        raise DomainExceededError(
            f"inputs are capped at {MAX_INPUT_BYTES} bytes in the toy domain"
        )
    # The commitment encodes the message injectively and ignores r, so
    # every opening opens it to its message alone.
    return (_TRANSPARENT_TAG + x, r)


def _xor_pad_commit(x: bytes, r: bytes) -> tuple[bytes, bytes]:
    return (otp(x, r), r)


def _xor_pad_equivocate(c: bytes, x: bytes) -> bytes:
    return otp(c, x)


TRANSPARENT = CommitmentScheme(
    name="transparent",
    commit=_transparent_commit,
    binding_class=BindingClass.PERFECTLY_BINDING,
)

XOR_PAD = CommitmentScheme(
    name="xor-pad",
    commit=_xor_pad_commit,
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
    """Commitment-value histogram per message, each message once, over
    uniform openings: the image the binding sweeps read, so a pair that
    ``commit`` refuses gives no commitment.

    A perfectly hiding scheme shows the same histogram for every
    message; a transparent one shows point masses.
    """
    profile: dict[bytes, dict[bytes, int]] = {x: {} for x in messages}
    for x, _, c in scheme._commitments(tuple(profile), opening_domain):
        counts = profile[x]
        counts[c] = counts.get(c, 0) + 1
    return profile
