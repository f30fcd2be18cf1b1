"""Child-process side of the benchmark.

    worker.py setup                      time import plus build_registry()
    worker.py request FD TRACE ARG...    run the foregone CLI on ARG..., with
                                         tracing on if TRACE is 1; write the
                                         timings (and span summary) as JSON
                                         to file descriptor FD
    worker.py sweep SEED SECONDS TRACE   the in-process ``sweep`` workload

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src/``.  ``setup`` prints one JSON object on standard output,
``sweep`` one JSON object a line, and ``request`` the CLI's own report.
Each of them times the reference unit (``reference.py``) next to its
work, in its own process, so the parent can scale the work's time by
the speed of the machine at that moment.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from time import perf_counter
from typing import Callable

import reference


def _import_cli():
    start = perf_counter()
    import foregone.cli as cli

    return cli, perf_counter() - start


def setup() -> None:
    before, _ = reference.measure()
    _, import_s = _import_cli()
    from foregone.scenarios import build_registry

    start = perf_counter()
    build_registry()
    build_s = perf_counter() - start
    after, _ = reference.measure()
    print(json.dumps({"import_s": import_s, "build_s": build_s, "reference_s": (before + after) / 2}))


def request(fd: int, trace: bool, argv: list[str]) -> int:
    """Run the CLI on ``argv`` between two reference measurements.

    FD receives the reference time, the time spent measuring it (which
    the parent takes off the request's wall time), the import time and,
    when traced, the span summary."""
    before, spent_before = reference.measure()
    cli, import_s = _import_cli()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    after, spent_after = reference.measure()
    result = {
        "reference_s": (before + after) / 2,
        "reference_spent_s": spent_before + spent_after,
        "import_s": import_s,
    }
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["summary"]["import_s"] = import_s
    with os.fdopen(fd, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return code


def repeat_within(seconds: float, work: Callable[[int], None]) -> int:
    """Call ``work(0)``, ``work(1)``, ...: always once, then again while
    one more call is predicted to end within ``seconds`` of the first,
    judging by the slowest call so far.  Returns the number of calls."""
    start = perf_counter()
    slowest = 0.0
    count = 0
    while True:
        began = perf_counter()
        work(count)
        count += 1
        slowest = max(slowest, perf_counter() - began)
        if perf_counter() - start + slowest > seconds:
            return count


def _emit(item: dict) -> None:
    """One JSON line on standard output, so nothing piles up in here."""
    sys.stdout.write(json.dumps(item) + "\n")
    sys.stdout.flush()


def _sweep_pass(cli, checks, seeds) -> dict:
    """Run every registered check once over ``seeds``, then the audit's
    toy-crypto sweeps, timing each, with one reference unit between any
    two of them; then render the rows with the CLI's renderer.  Only the
    digest of the rendered report is kept."""
    ops = []
    rows = []
    references = [reference.reference_s()]
    for scenario, check in checks:
        start = perf_counter()
        verdict, report = cli.run_check(scenario, check, seeds)
        spent = perf_counter() - start
        references.append(reference.reference_s())
        cells = report.cells_checked if report is not None else 0
        ops.append([
            scenario.name, check.kind, check.evidence, verdict, check.expected, cells, spent,
        ])
        rows.append(
            cli.check_row(
                scenario.name, check.kind, check.evidence, verdict, check.expected,
                check.citation, report, seeds, cli.DEFAULT_BUDGET,
            )
        )
    start = perf_counter()
    toy_sweeps = cli.toy_sweeps()
    toy_sweeps_s = perf_counter() - start
    references.append(reference.reference_s())
    report = cli.render_json({"reports": rows, "toy_sweeps": toy_sweeps})
    return {
        "seeds": seeds,
        "ops": ops,
        "toy_sweeps": toy_sweeps,
        "toy_sweeps_s": toy_sweeps_s,
        # one per op, toy sweeps last: the mean of the units on either side
        "reference_s": [(a + b) / 2 for a, b in zip(references, references[1:])],
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }


def sweep(workload_seed: int, seconds: float, trace: bool) -> None:
    """Build the registry once, then run passes (or, traced, cycles of one
    untraced and one traced pass over the same seeds) for about
    ``seconds``.  Each pass or cycle is one JSON line; the last line holds
    the set-up times."""
    from inputs import SEEDS_PER_PASS, seed_lists
    from spans import Tracer

    before, _ = reference.measure()
    cli, import_s = _import_cli()
    start = perf_counter()
    registry = cli.build_registry()
    build_s = perf_counter() - start
    after, _ = reference.measure()
    checks = [(scenario, check) for scenario in registry.values() for check in scenario.checks]
    lists = seed_lists(workload_seed, "sweep", SEEDS_PER_PASS)

    def one_pass(_index: int) -> None:
        _emit({"pass": _sweep_pass(cli, checks, next(lists))})

    def cycle(_index: int) -> None:
        plain = _sweep_pass(cli, checks, seeds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _sweep_pass(cli, checks, seeds)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        _emit({"cycle": {"plain": plain, "traced": traced, "summary": summary}})

    if trace:
        seeds = next(lists)
        repeat_within(seconds, cycle)
    else:
        repeat_within(seconds, one_pass)
    _emit({"import_s": import_s, "build_s": build_s, "reference_s": (before + after) / 2})


def main(argv: list[str]) -> int:
    command = argv[0] if argv else ""
    if command == "setup":
        setup()
        return 0
    if command == "request":
        return request(int(argv[1]), argv[2] == "1", argv[3:])
    if command == "sweep":
        sweep(int(argv[1]), float(argv[2]), argv[3] == "1")
        return 0
    sys.stderr.write("usage: worker.py setup | request FD TRACE ARG... | sweep SEED SECONDS TRACE\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
