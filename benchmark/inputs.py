"""Deterministic inputs for every workload, derived from the workload seed.

Everything the program under test receives -- tape-seed lists, the
order of requests, the interpreter hash seed of each request -- comes
from here, so one workload seed always replays the same run.  Random
streams are seeded with strings, which ``random.Random`` hashes with
SHA-512, so the inputs do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

SEEDS_PER_REQUEST = 16
SEEDS_PER_PASS = 32
TAPE_SEED_RANGE = 1 << 31
HASH_SEEDS = (0, 1, 2)

FAMILIES = {  # check kind -> family
    "demonstrability": "demo",
    "conformity": "demo",
    "entailment": "entail",
    "counterexample": "entail",
    "monotonicity": "probe",
    "probe-unknown-goal": "probe",
    "probe-random": "probe",
}
FAMILY_NAMES = ("entail", "demo", "probe")


def family_of(kind: str) -> str:
    return FAMILIES.get(kind, "other")


def distinct_tape_seeds(workload_seed: int, stream: str) -> Iterator[int]:
    """Endless stream of tape seeds, none repeated within the stream."""
    rng = random.Random(f"foregone-bench|{workload_seed}|{stream}")
    seen: set[int] = set()
    while True:
        value = rng.randrange(TAPE_SEED_RANGE)
        if value not in seen:
            seen.add(value)
            yield value


def seed_lists(workload_seed: int, stream: str, size: int) -> Iterator[tuple[int, ...]]:
    """Endless stream of seed lists; no seed appears in two lists."""
    seeds = distinct_tape_seeds(workload_seed, stream)
    while True:
        yield tuple(next(seeds) for _ in range(size))


def _interleaved_deck(rng: random.Random, checks: Sequence[tuple]) -> list[tuple]:
    """Every check exactly once, with the families spread evenly.

    Each family's checks are shuffled, then placed at evenly spaced
    positions with a random phase, so a slow spell of the machine hits
    every family alike, while each check keeps the same chance 1/N of
    filling any one slot.
    """
    by_family: dict[str, list[tuple]] = {}
    for check in checks:
        by_family.setdefault(family_of(check[1]), []).append(check)
    keyed = []
    for family in sorted(by_family):
        members = by_family[family]
        rng.shuffle(members)
        phase = rng.random()
        for rank, check in enumerate(members):
            keyed.append(((rank + phase) / len(members), rng.random(), check))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [check for _, _, check in keyed]


def query_argv(check: tuple, seeds: Sequence[int]) -> list[str]:
    scenario, kind, evidence = check[:3]
    return [
        "run", scenario, "--check", kind, "--evidence", evidence,
        "--seeds", ",".join(map(str, seeds)), "--json",
    ]


def query_rounds(
    workload_seed: int, checks: Sequence[tuple]
) -> Iterator[list[tuple[list[str], tuple]]]:
    """Endless stream of ``query`` rounds of (CLI argv, check) requests.

    ``checks`` are the registered (scenario, kind, evidence, expected)
    tuples.  A round asks for every registered check once, in a seeded
    order, so every round of a run has the same mix of checks.  Each
    request gets a fresh tape-seed list.
    """
    lists = seed_lists(workload_seed, "query", SEEDS_PER_REQUEST)
    rng = random.Random(f"foregone-bench|{workload_seed}|deck")
    while True:
        yield [(query_argv(check, next(lists)), check) for check in _interleaved_deck(rng, checks)]


def hash_seed(index: int) -> int:
    """PYTHONHASHSEED of the ``index``-th timed request.  The untimed
    warm-up sends the first request under HASH_SEEDS[0], so the first
    timed request repeats its argv under another hash seed."""
    return HASH_SEEDS[(index + 1) % len(HASH_SEEDS)]
