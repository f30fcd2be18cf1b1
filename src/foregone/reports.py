"""Machine-readable reports with a fixed field layout.

The JSON schema is part of the tool's contract and is golden-tested:

    {
      "scenario": ...,   "check": ...,      "evidence": ...,
      "verdict": ...,    "expected": ...,
      "counterexample": {"world", "action", "seed",
                         "expected_value", "got_value"} | null,
      "cells": ...,      "seeds": [...],    "budget": ...,
      "citation": ...
    }

Reports carry no timestamps or environment data: identical
(configuration, build) pairs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .checkers import CheckReport, Counterexample


def counterexample_dict(cell: Optional[Counterexample]) -> Optional[dict[str, Any]]:
    if cell is None:
        return None
    return {
        "world": cell.world,
        "action": cell.action,
        "seed": cell.seed,
        "expected_value": cell.expected,
        "got_value": cell.got,
    }


def check_row(
    scenario: str,
    check_kind: str,
    evidence: str,
    verdict: str,
    expected: str,
    citation: str,
    report: CheckReport,
    seeds: tuple[int, ...],
    budget: int,
) -> dict[str, Any]:
    return {
        "scenario": scenario,
        "check": check_kind,
        "evidence": evidence,
        "verdict": verdict,
        "expected": expected,
        "counterexample": counterexample_dict(report.counterexample),
        "cells": report.cells_checked,
        "seeds": list(seeds),
        "budget": budget,
        "citation": citation,
    }


def render_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _row_lines(row: dict[str, Any]) -> list[str]:
    status = "match" if row["verdict"] == row["expected"] else "MISMATCH"
    lines = [
        f"## {row['scenario']}: {row['check']} on {row['evidence']}",
        "",
        f"- verdict: {row['verdict']} (expected {row['expected']}) -- {status}",
        f"- cells: {row['cells']}, seeds: {row['seeds']}, budget: {row['budget']}",
        f"- claim: {row['citation']}",
    ]
    cell = row["counterexample"]
    if cell is not None:
        lines.append(
            f"- counterexample: world={cell['world']} action={cell['action']}"
            f" seed={cell['seed']} expected={cell['expected_value']}"
            f" got={cell['got_value']}"
        )
    lines.append("")
    return lines


def render_markdown(payload: dict[str, Any]) -> str:
    lines = ["# foregone report", ""]
    if "reports" in payload:
        rows = payload["reports"]
    elif "scenario" in payload:
        rows = [payload]
    else:
        rows = []
    for row in rows:
        lines.extend(_row_lines(row))
    summary = []
    if "matches" in payload:
        summary.append(f"matches: {payload['matches']}")
    if "mismatches" in payload:
        summary.append(f"mismatches: {payload['mismatches']}")
    for section in ("evidence_audit", "toy_sweeps"):
        if section in payload:
            lines.append(f"## {section}")
            lines.append("")
            entries = payload[section]
            if isinstance(entries, dict):
                for key in entries:
                    lines.append(f"- {key}: {entries[key]}")
            else:
                for entry in entries:
                    lines.append(f"- {entry}")
            lines.append("")
    if summary:
        lines.append("; ".join(summary))
        lines.append("")
    return "\n".join(lines)
