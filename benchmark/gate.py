"""Correctness gate: decides whether one operation succeeded.

An operation fails when its process exits non-zero, when its reported
verdict differs from its registered expectation, when its row names
another check or other seeds than were asked for, or when its report
bytes differ from an earlier request with the same argv.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional, Sequence


def registered_checks(list_json: bytes) -> list[tuple[str, str, str, str]]:
    """(scenario, kind, evidence, expected) for every registered check,
    in registry order, from the output of ``foregone list --json``."""
    return [
        (scenario["name"], check["check"], check["evidence"], check["expected"])
        for scenario in json.loads(list_json)
        for check in scenario["checks"]
    ]


def row_problems(row: dict, registered: tuple, seeds: Sequence[int]) -> list[str]:
    """Problems with one report row against its registered check."""
    where = "/".join(registered[:3])
    problems = []
    if (row.get("scenario"), row.get("check"), row.get("evidence")) != registered[:3]:
        problems.append(f"row {row.get('scenario')}/{row.get('check')}/{row.get('evidence')} is not {where}")
    if row.get("expected") != registered[3]:
        problems.append(f"{where}: expected {row.get('expected')!r}, registered {registered[3]!r}")
    if row.get("verdict") != registered[3]:
        problems.append(f"{where}: verdict {row.get('verdict')!r}, expected {registered[3]!r}")
    if row.get("seeds") != list(seeds):
        problems.append(f"{where}: report seeds differ from the request")
    return problems


def query_problems(report: bytes, registered: tuple, seeds: Sequence[int]) -> list[str]:
    """Problems with the report of ``foregone run S --check K --evidence E --json``."""
    try:
        row = json.loads(report)
    except ValueError as exc:
        return [f"unreadable run report: {exc!r}"]
    if not isinstance(row, dict):
        return ["run report is not one row"]
    return row_problems(row, registered, seeds)


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


class ByteIdentity:
    """Remembers the report digest of each argv and flags a change."""

    def __init__(self) -> None:
        self.digests: dict[tuple, str] = {}

    def problem(self, argv: Sequence[str], report: bytes) -> Optional[str]:
        key = tuple(argv)
        seen = self.digests.setdefault(key, digest(report))
        if seen != digest(report):
            return f"report bytes of {' '.join(argv[:6])} ... changed between requests"
        return None


def count_problems(first: dict[str, Any], other: dict[str, Any]) -> list[str]:
    """Differences between the deterministic counts of two traced cycles."""
    return [
        f"{key}: {first.get(key)} then {other.get(key)}"
        for key in sorted(set(first) | set(other))
        if first.get(key) != other.get(key)
    ]
