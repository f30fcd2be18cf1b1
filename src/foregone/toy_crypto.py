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

from enum import Enum
from functools import partial
from typing import Callable, Optional

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
    is built to collide; ``declared_injective`` is a label the sweep
    verifies rather than trusts.
    """

    __slots__ = ("name", "evaluate", "domain", "declared_injective", "known_collision")

    def __init__(
        self,
        name: str,
        evaluate: Callable[[bytes], bytes],
        domain: tuple[bytes, ...],
        declared_injective: bool,
        known_collision: Optional[tuple[bytes, bytes]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "evaluate", evaluate)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "declared_injective", declared_injective)
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
        """
        check = self.check
        for c in sorted(self._image(message_domain, opening_domain)):
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
        ``message`` with some opening from the domain."""
        check = self.check
        openable: set[bytes] = set()
        for c in self._image(message_domain, opening_domain):
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
