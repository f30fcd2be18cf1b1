"""Command line front end.

Three commands:

  foregone list                       show scenarios, claims, expected verdicts
  foregone run SCENARIO --check KIND  run one check (or audit-all for the scenario)
  foregone audit                      run every registered check plus the
                                      toy-crypto sweeps

``parse_args`` reads the argv from one table, ``COMMANDS``, and
``--help`` prints ``USAGE``.  ``list`` and ``audit`` build every
scenario; ``run`` builds only the scenario it names.  A build audits
its evidence and refuses any problem (``Scenario``), so the audit's
``evidence_audit`` records that pass.  The overrides file is validated
as a whole first, whatever the command.

Exit codes are the machine contract: 0 when every executed check matches
its expectation, 1 on a verdict mismatch (a regression), 2 on a
configuration error, which includes a usage error, a fault in machine
code (a ``KernelError`` such as malformed state, a target without output, or
any other exception raised by a method, which the kernel wraps in a
``MethodFaultError``), a check given inputs outside its contract (a
``CheckerError`` such as a world without a declared language), and a
toy primitive given inputs outside its own (a ``ToyCryptoError``, such
as an overridden secret whose length a commitment scheme does not take,
met while a scenario builds, in a machine's method, or in the audit's
toy-crypto sweeps).
Reports are byte-identical across runs for a fixed configuration and
build.

Seeds come from ``--seeds`` (comma-separated integers) or default to
0..15.  The list must name distinct seeds in 0..2**64-1: the tapes take
a seed modulo 2**64, so a repeated or out-of-range seed would run one
cell twice or report another seed's tapes under its own number.
Parameter overrides come from a flat key-value file: one
``scenario.param = value`` per line, where values are 0x-prefixed hex
byte strings or plain integers; ``#`` starts a comment line.  An
integer, in a seed list, a ``--budget`` or an override, is written
``-?[0-9]+`` and nothing else.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from functools import partial
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
from . import toy_crypto
from .toy_crypto import (
    SCHEMES,
    ToyCryptoError,
    byte_domain,
    collision_witness,
    hiding_profile,
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
    try:
        seeds = tuple(integer(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}: {exc}") from None
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
    must come back 'pass' for the audit to succeed.  The hash sweeps take
    ``toy_hash`` over the 256 single bytes, once injective and once with
    ``b"\\x02"`` hashing like ``b"\\x01"``.  The three commitment sweeps
    read each scheme's image: the ``commit`` outputs over their domains,
    where a pair ``commit`` refuses gives no commitment.  The binding
    sweeps (``CommitmentScheme.double_opening_witness``) pass over 256
    messages and 16 openings and stop at the first double opening:
    4,096 ``commit`` calls prove ``transparent`` binding and 17 refute
    ``xor-pad``.  The hiding sweep (``hiding_profile``) counts them per
    message over 256 openings."""
    results: dict[str, str] = {}
    messages = byte_domain()
    openings = small_byte_domain()

    witness = collision_witness(partial(toy_crypto.toy_hash, None), messages)
    results["hash-injective-sweep"] = (
        "pass" if witness is None else f"fail: collision {witness!r}"
    )

    collision = (b"\x01", b"\x02")
    witness = collision_witness(partial(toy_crypto.toy_hash, collision), messages)
    results["hash-collision-witness"] = (
        "pass" if witness == collision else f"fail: sweep found {witness!r}"
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

    profile = hiding_profile(xor_pad, (b"\x00", b"\xff"), messages)
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


# Each command's positional fields, in order, and its options, each with
# its default; an option whose default is False is a flag and takes no
# value.
_COMMON = {
    "--seeds": None,
    "--budget": str(DEFAULT_BUDGET),
    "--overrides": None,
    "--out": None,
    "--json": False,
}
COMMANDS = {
    "list": ((), {"--overrides": None, "--json": False}),
    "run": (("scenario",), {"--check": "audit-all", "--evidence": None, **_COMMON}),
    "audit": ((), _COMMON),
}
HELP = ("-h", "--help")
USAGE = """\
foregone list [--overrides FILE] [--json]
foregone run SCENARIO [--check KIND] [--evidence VARIANT]
             [--seeds 0,1,...] [--budget N] [--overrides FILE] [--out PATH] [--json]
foregone audit [--seeds ...] [--budget N] [--overrides FILE] [--json] [--out PATH]
"""

# A token that starts with "-" but reads as a negative number or holds a
# space is a value, as it was for argparse.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str, options: Mapping[str, Any]) -> bool:
    if not token.startswith("-") or token == "-":
        return False
    name = token.partition("=")[0]
    return name in options or name in HELP or not (_NEGATIVE.match(token) or " " in token)


def parse_args(argv: list[str]) -> Optional[dict[str, Any]]:
    """The fields ``main`` reads from ``argv``: ``command``, the
    command's positionals and one field per option (``--out`` gives
    ``out``), each at its default unless given.  An option is written
    ``--name value`` or ``--name=value``, before or after the
    positionals, and the last of its repeats wins; ``--`` makes every
    later token a positional.  None when ``argv`` asks for help.  A
    usage error raises ``ConfigError`` at once for a bad value and
    after the last token for an unknown option or a wrong number of
    positionals, so a later ``--help`` still answers."""
    if not argv:
        raise ConfigError(f"no command; give one of {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    if command in HELP:
        return None
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; give one of {', '.join(COMMANDS)}")
    names, options = COMMANDS[command]
    fields = {"command": command, **{name[2:]: default for name, default in options.items()}}
    positionals, unknown = [], []
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
        elif not _is_option(token, options):
            positionals.append(token)
        else:
            name, eq, value = token.partition("=")
            if name not in options and name not in HELP:
                unknown.append(token)
            elif eq and (name in HELP or options[name] is False):
                raise ConfigError(f"{name} takes no value")
            elif name in HELP:
                return None
            elif options[name] is False:
                fields[name[2:]] = True
            else:
                if not eq:
                    value = next(tokens, None)
                    if value is None or _is_option(value, options):
                        raise ConfigError(f"{name} needs a value")
                if name == "--check" and value not in RUN_CHECK_CHOICES:
                    raise ConfigError(
                        f"--check {value!r} is not one of {', '.join(RUN_CHECK_CHOICES)}"
                    )
                fields[name[2:]] = value
    if unknown:
        raise ConfigError(f"{command} has no option {unknown[0]!r}")
    if len(positionals) < len(names):
        raise ConfigError(f"{command} needs {names[len(positionals)].upper()}")
    if len(positionals) > len(names):
        raise ConfigError(f"{command} takes no argument {positionals[len(names)]!r}")
    fields.update(zip(names, positionals))
    return fields


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return EXIT_MATCH
        overrides = load_overrides(args["overrides"])
        validate_overrides(overrides)
        if args["command"] == "list":
            return cmd_list(build_registry(overrides), args["json"])
        seeds = parse_seed_list(args["seeds"]) if args["seeds"] is not None else DEFAULT_SEEDS
        budget = parse_budget(args["budget"])
        if args["command"] == "run":
            return cmd_run(
                build_scenario(args["scenario"], overrides.get(args["scenario"])),
                args["check"],
                args["evidence"],
                seeds,
                budget,
                args["json"],
                args["out"],
            )
        return cmd_audit(build_registry(overrides), seeds, budget, args["json"], args["out"])
    except (ConfigError, ScenarioError, KernelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
