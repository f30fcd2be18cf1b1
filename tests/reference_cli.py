"""The command line as ``argparse`` read it, as a reference for tests.

``build_parser`` is the ``argparse`` parser that ``foregone.cli`` used
before it read its own argv, copied unchanged.  ``reference_fields``
runs it on one argv and gives either the fields it read, as the dict
``foregone.cli.parse_args`` returns, or the exit code ``argparse``
stopped with (0 after its help, 2 after a usage error).  The parity
tests in ``test_cli.py`` run both parsers over the same argvs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from typing import Any, Union

from foregone.cli import RUN_CHECK_CHOICES
from foregone.kernel import DEFAULT_BUDGET


def build_parser() -> argparse.ArgumentParser:
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


def reference_fields(argv: list[str]) -> Union[dict[str, Any], int]:
    """The fields ``argparse`` reads from ``argv``, or the code it exits
    with; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
