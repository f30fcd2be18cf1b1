"""Command line front end.

Three commands:

  foregone list                       show scenarios, claims, expected verdicts
  foregone run SCENARIO --check KIND  run one check (or audit-all for the scenario)
  foregone audit                      run every registered check plus the
                                      toy-crypto sweeps

``list`` and ``audit`` build every scenario; ``run`` builds only the
scenario it names.  A build audits its evidence and refuses any problem
(``Scenario``), so the audit's ``evidence_audit`` records that pass.
The overrides file is validated as a whole first, whatever the command.

Exit codes are the machine contract: 0 when every executed check matches
its expectation, 1 on a verdict mismatch (a regression), 2 on a
configuration error, which includes a fault in machine code (a
``KernelError`` such as malformed state, a target without output, or
any other exception raised by a method, which the kernel wraps in a
``MethodFaultError``), a check given inputs outside its contract (a
``CheckerError`` such as a world without a declared language), and a
toy primitive given inputs outside its own (a ``ToyCryptoError``, such
as an overridden secret whose length a commitment scheme does not take,
met while a scenario builds, when a probe computes its languages, or
in the audit's toy-crypto sweeps).
Reports are byte-identical across runs for a fixed configuration and
build.

The FOREGONE_SEED environment variable supplies a default seed list
(comma-separated integers); the --seeds flag overrides it.  Either list
must name distinct seeds in 0..2**64-1: the tapes take a seed modulo
2**64, so a repeated or out-of-range seed would run one cell twice or
report another seed's tapes under its own number.  Parameter overrides
come from a flat key-value file: one ``scenario.param = value``
per line, where values are 0x-prefixed hex byte strings or plain
integers; ``#`` starts a comment line.  An integer, in a seed list, a
``--budget`` or an override, is written ``-?[0-9]+`` and nothing else.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from typing import Any, Mapping, Optional

from .checkers import DEFAULT_SEEDS, CheckerError
from .kernel import DEFAULT_BUDGET, KernelError
from .reports import check_row, render_json, render_markdown
from .scenarios import (
    CHECK_KINDS,
    Scenario,
    ScenarioError,
    build_registry,
    build_scenario,
    run_check,
    validate_overrides,
)
from .toy_crypto import (
    SCHEMES,
    ToyCryptoError,
    byte_domain,
    hiding_profile,
    make_colliding_hash,
    make_injective_hash,
    otp,
    small_byte_domain,
)

EXIT_MATCH = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2

RUN_CHECK_CHOICES = CHECK_KINDS + ("audit-all",)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


def integer(text: str) -> int:
    """``text`` as an integer written ``-?[0-9]+``, else ``ValueError``.
    ``int`` alone also reads ``+5``, ``1_0``, surrounding spaces and
    other scripts' digits such as ``٣``."""
    if re.fullmatch(r"-?[0-9]+", text):
        return int(text)
    raise ValueError(f"{text!r} is not an integer")


def parse_seed_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        seeds = tuple(map(integer, parts))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}: {exc}") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    counts = Counter(seeds)
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed {seed} in {text!r} is outside 0..2**64-1")
        if counts[seed] > 1:
            raise ConfigError(f"seed list {text!r} repeats seed {seed}")
    return seeds


def parse_budget(text: str) -> int:
    try:
        budget = integer(text)
    except ValueError as exc:
        raise ConfigError(f"bad budget {text!r}: {exc}") from None
    if budget <= 0:
        raise ConfigError("budget must be positive")
    return budget


def default_seeds() -> tuple[int, ...]:
    env = os.environ.get("FOREGONE_SEED")
    if env is None:
        return DEFAULT_SEEDS
    return parse_seed_list(env)


def parse_override_value(text: str) -> Any:
    text = text.strip()
    if text.startswith("0x"):
        body = text[2:]
        try:
            return bytes.fromhex(body)
        except ValueError as exc:
            raise ConfigError(f"bad hex byte string {text!r}: {exc}") from None
    try:
        return integer(text)
    except ValueError:
        raise ConfigError(
            f"override value {text!r} is neither an integer nor a 0x-prefixed hex"
            " byte string"
        ) from None


def parse_overrides(text: str) -> dict[str, dict[str, Any]]:
    overrides: dict[str, dict[str, Any]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"overrides line {lineno}: expected 'scenario.param = value'")
        key, value_text = line.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"overrides line {lineno}: key {key!r} lacks 'scenario.'")
        scenario, param = key.split(".", 1)
        overrides.setdefault(scenario.strip(), {})[param.strip()] = parse_override_value(
            value_text
        )
    return overrides


def load_overrides(path: Optional[str]) -> dict[str, dict[str, Any]]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_overrides(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read overrides file {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Toy-crypto sweeps (part of the audit)
# ---------------------------------------------------------------------------


def toy_sweeps() -> dict[str, str]:
    """Exhaustive property sweeps over the toy primitives; every entry
    must come back 'pass' for the audit to succeed.  Only the binding
    sweeps (``CommitmentScheme.double_opening_witness``) are spread over
    the usable CPUs, with the same calls and results as one process."""
    results: dict[str, str] = {}
    messages = byte_domain()
    openings = small_byte_domain()

    injective = make_injective_hash()
    witness = injective.injectivity_witness()
    results["hash-injective-sweep"] = (
        "pass" if witness is None else f"fail: collision {witness!r}"
    )

    colliding = make_colliding_hash(b"\x01", b"\x02")
    witness = colliding.injectivity_witness()
    expected = set(colliding.known_collision)
    results["hash-collision-witness"] = (
        "pass"
        if witness is not None and set(witness) == expected
        else f"fail: sweep found {witness!r}"
    )

    transparent = SCHEMES["transparent"]
    double = transparent.double_opening_witness(messages, openings)
    results["transparent-binding-sweep"] = (
        "pass" if double is None else f"fail: double opening {double!r}"
    )

    xor_pad = SCHEMES["xor-pad"]
    double = xor_pad.double_opening_witness(messages, openings)
    results["xor-pad-equivocation-witness"] = (
        "pass" if double is not None else "fail: no double opening found"
    )

    profile = hiding_profile(xor_pad, (b"\x00", b"\xff"), byte_domain())
    histograms = {tuple(sorted(counts.items())) for counts in profile.values()}
    results["xor-pad-hiding-sweep"] = (
        "pass" if len(histograms) == 1 else "fail: message-dependent histogram"
    )

    keys = [bytes([k]) for k in range(0, 256, 51)]
    involution_ok = all(otp(key, otp(key, m)) == m for key in keys for m in messages)
    results["otp-involution-sweep"] = "pass" if involution_ok else "fail"

    return results


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(payload: dict[str, Any], as_json: bool, out_path: Optional[str]) -> None:
    text = render_json(payload) if as_json else render_markdown(payload)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out_path!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_list(registry: Mapping[str, Scenario], as_json: bool) -> int:
    if not registry:
        sys.stderr.write("error: the scenario registry is empty\n")
        return EXIT_CONFIG
    if as_json:
        payload = [
            {
                "name": name,
                "title": scenario.title,
                "checks": [
                    {
                        "check": check.kind,
                        "evidence": check.evidence,
                        "expected": check.expected,
                        "citation": check.citation,
                    }
                    for check in scenario.checks
                ],
            }
            for name, scenario in registry.items()
        ]
        sys.stdout.write(render_json(payload))
        return EXIT_MATCH
    for name, scenario in registry.items():
        sys.stdout.write(f"{name} -- {scenario.title}\n")
        for check in scenario.checks:
            sys.stdout.write(
                f"    {check.kind}/{check.evidence}: expected {check.expected}\n"
            )
            sys.stdout.write(f"        {check.citation}\n")
    return EXIT_MATCH


def _rows_for(
    scenario: Scenario,
    checks,
    seeds: tuple[int, ...],
    budget: int,
) -> list[dict[str, Any]]:
    rows = []
    for check in checks:
        try:
            verdict, report = run_check(scenario, check, seeds, budget)
        except (KernelError, CheckerError, ToyCryptoError) as exc:
            raise ConfigError(f"{scenario.name} {check.id}: {exc}") from None
        rows.append(
            check_row(
                scenario.name,
                check.kind,
                check.evidence,
                verdict,
                check.expected,
                check.citation,
                report,
                seeds,
                budget,
            )
        )
    return rows


def cmd_run(
    scenario: Scenario,
    check_kind: str,
    evidence: Optional[str],
    seeds: tuple[int, ...],
    budget: int,
    as_json: bool,
    out_path: Optional[str],
) -> int:
    if check_kind == "audit-all":
        if evidence is not None:
            raise ConfigError("--evidence needs --check KIND")
        checks = scenario.checks
    else:
        checks = [scenario.find_check(check_kind, evidence)]
    rows = _rows_for(scenario, checks, seeds, budget)
    mismatches = sum(1 for row in rows if row["verdict"] != row["expected"])
    payload: dict[str, Any]
    if check_kind == "audit-all":
        payload = {
            "reports": rows,
            "matches": len(rows) - mismatches,
            "mismatches": mismatches,
        }
    else:
        payload = rows[0]
    _emit(payload, as_json, out_path)
    return EXIT_MATCH if mismatches == 0 else EXIT_MISMATCH


def cmd_audit(
    registry: Mapping[str, Scenario],
    seeds: tuple[int, ...],
    budget: int,
    as_json: bool,
    out_path: Optional[str],
) -> int:
    rows: list[dict[str, Any]] = []
    for scenario in registry.values():
        rows.extend(_rows_for(scenario, scenario.checks, seeds, budget))
    mismatches = sum(1 for row in rows if row["verdict"] != row["expected"])

    try:
        sweeps = toy_sweeps()
    except ToyCryptoError as exc:
        raise ConfigError(f"toy sweeps: {exc}") from None
    sweeps_ok = all(value == "pass" for value in sweeps.values())

    payload = {
        "reports": rows,
        "matches": len(rows) - mismatches,
        "mismatches": mismatches,
        "evidence_audit": ["pass"],
        "toy_sweeps": sweeps,
    }
    _emit(payload, as_json, out_path)
    if mismatches or not sweeps_ok:
        return EXIT_MISMATCH
    return EXIT_MATCH


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foregone",
        description="Run demonstrability, conformity, and entailment checks"
        " over the registered compelled-action scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--budget", default=str(DEFAULT_BUDGET))
        p.add_argument("--overrides", help="path to a scenario.param = value file")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p_list = sub.add_parser("list", help="list scenarios and expected verdicts")
    p_list.add_argument("--overrides")
    p_list.add_argument("--json", action="store_true")

    p_run = sub.add_parser("run", help="run one scenario check")
    p_run.add_argument("scenario")
    p_run.add_argument("--check", default="audit-all", choices=RUN_CHECK_CHOICES)
    p_run.add_argument(
        "--evidence",
        help="evidence variant (weak, strong, star, or a scenario-specific name)",
    )
    add_common(p_run)

    p_audit = sub.add_parser("audit", help="run every registered check")
    add_common(p_audit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = load_overrides(getattr(args, "overrides", None))
        validate_overrides(overrides)
        if args.command == "list":
            return cmd_list(build_registry(overrides), args.json)
        seeds = parse_seed_list(args.seeds) if args.seeds is not None else default_seeds()
        budget = parse_budget(args.budget)
        if args.command == "run":
            return cmd_run(
                build_scenario(args.scenario, overrides.get(args.scenario)),
                args.check,
                args.evidence,
                seeds,
                budget,
                args.json,
                args.out,
            )
        if args.command == "audit":
            return cmd_audit(
                build_registry(overrides), seeds, budget, args.json, args.out
            )
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ScenarioError, KernelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
