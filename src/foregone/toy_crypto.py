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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional

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
    return bytes(k ^ m for k, m in zip(key, message))


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


@dataclass(frozen=True)
class HashSpec:
    """A toy hash with a declared finite domain.

    ``known_collision`` is a documented witness pair when the function
    is built to collide; ``declared_injective`` is a label the sweep
    verifies rather than trusts.
    """

    name: str
    evaluate: Callable[[bytes], bytes]
    domain: tuple[bytes, ...]
    declared_injective: bool
    known_collision: Optional[tuple[bytes, bytes]] = None

    def injectivity_witness(self) -> Optional[tuple[bytes, bytes]]:
        """Exhaustive sweep over the domain; returns a colliding pair or
        None when the function is injective on the domain."""
        seen: dict[bytes, bytes] = {}
        for x in self.domain:
            y = self.evaluate(x)
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
        declared_injective=True,
    )


def make_colliding_hash(
    first: bytes, second: bytes, extra_domain: tuple[bytes, ...] = ()
) -> HashSpec:
    """Byte permutation patched so that ``second`` hashes like ``first``."""
    if first == second:
        raise ValueError("collision witnesses must differ")
    domain = (
        tuple(bytes([i]) for i in range(256)) + (first, second) + tuple(extra_domain)
    )
    return HashSpec(
        name=f"byte-permutation-colliding[{first.hex()},{second.hex()}]",
        evaluate=partial(toy_hash, (first, second)),
        domain=domain,
        declared_injective=False,
        known_collision=(first, second),
    )


# ---------------------------------------------------------------------------
# Commitment schemes
# ---------------------------------------------------------------------------


class BindingClass(Enum):
    PERFECTLY_BINDING = "perfectly-binding"
    EQUIVOCABLE = "equivocable"


@dataclass(frozen=True)
class CommitmentScheme:
    """Commit/check pair with a claimed binding class.

    ``commit(x, r) -> (c, d)`` and ``check(c, d, x) -> bool`` satisfy the
    correctness clause: every honestly produced pair verifies.  The
    binding label is audited by ``double_opening_witness``; equivocable
    schemes also expose ``equivocate(c, x') -> d'``.
    """

    name: str
    commit: Callable[[bytes, bytes], tuple[bytes, bytes]]
    check: Callable[[bytes, bytes, bytes], bool]
    binding_class: BindingClass
    equivocate: Optional[Callable[[bytes, bytes], bytes]] = None

    def double_opening_witness(
        self, message_domain: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
    ) -> Optional[tuple[bytes, bytes, bytes, bytes, bytes]]:
        """Brute-force search for (x, x', d, d', c) with x != x' where both
        openings verify.  Commitment candidates are the scheme's image
        over the message domain crossed with the opening domain.

        Per commitment, each message's first valid opening is recorded;
        two differently-messaged records are a witness.  This visits
        every (c, x, d) triple in the worst case, which is the whole
        declared domain.
        """
        commitments = {
            self.commit(x, r)[0] for x in message_domain for r in opening_domain
        }
        for c in sorted(commitments):
            opened: Optional[tuple[bytes, bytes]] = None
            for x in message_domain:
                for d in opening_domain:
                    if not self.check(c, d, x):
                        continue
                    if opened is not None and opened[0] != x:
                        return (opened[0], x, opened[1], d, c)
                    if opened is None:
                        opened = (x, d)
                    break
        return None

    def openable_commitments(
        self,
        message: bytes,
        message_domain: tuple[bytes, ...],
        opening_domain: tuple[bytes, ...],
    ) -> frozenset[bytes]:
        """All commitments in the scheme's image that can be opened to
        ``message`` with some opening from the domain."""
        commitments = {
            self.commit(x, r)[0] for x in message_domain for r in opening_domain
        }
        return frozenset(
            c
            for c in commitments
            if any(self.check(c, d, message) for d in opening_domain)
        )


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
    return otp(c, d) == x


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


def small_byte_domain(size: int = 16) -> tuple[bytes, ...]:
    """The first ``size`` single-byte strings; a declared opening domain
    small enough for the cubic binding sweep to stay quick."""
    if not 1 <= size <= 256:
        raise ValueError("size must be in [1, 256]")
    return tuple(bytes([i]) for i in range(size))


def hiding_profile(
    scheme: CommitmentScheme, messages: tuple[bytes, ...], opening_domain: tuple[bytes, ...]
) -> dict[bytes, dict[bytes, int]]:
    """Commitment-value histogram per message over uniform openings.

    A perfectly hiding scheme shows the same histogram for every
    message; a transparent one shows point masses.
    """
    profile: dict[bytes, dict[bytes, int]] = {}
    for x in messages:
        counts: dict[bytes, int] = {}
        for r in opening_domain:
            c = scheme.commit(x, r)[0]
            counts[c] = counts.get(c, 0) + 1
        profile[x] = counts
    return profile
