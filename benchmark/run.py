"""The foregone benchmark: one command, two workloads.

    python3 benchmark/run.py --workload {query,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It measures the checkout's own
``src/`` (``foregone`` need not be installed), checks every output,
prints each metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  A
record of the run (argv lists, per-operation times, report digests) is
written to ``.bench_out/``.  Every timed metric is scaled by the speed
of the machine at the moment it was taken (``reference.py``).  See
``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional, Sequence

import gate
import inputs
import spans
from reference import REFERENCE_S, scaled
from worker import repeat_within

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("query", "sweep")
SETUP_EVERY = 8  # query: one set-up sample after every 8th timed request
SWEEP_SETUP_SAMPLES = 3  # sweep: set-up samples before, and again after, the worker
QUERY_TRACE_UNIT = 5  # distinct requests in one traced cycle of ``query``
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here: no program, or a step that every
    later measurement depends on failed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def hermetic_env(hash_seed: int) -> dict[str, str]:
    """The caller's environment minus every PYTHON* variable and
    FOREGONE_SEED, with PYTHONPATH at the checkout's ``src/``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON") and key != "FOREGONE_SEED"
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    extra: bytes  # what the child wrote to the extra pipe, if any
    wall_s: float  # spawn to exit
    rss_mb: float  # the child's peak resident set


def spawn(argv: Sequence[str], hash_seed: int = 0, extra_fd: bool = False) -> Outcome:
    """Run ``argv`` to completion and time it from spawn to exit.

    With ``extra_fd`` the child also gets the write end of a pipe, whose
    number replaces ``{fd}`` in ``argv``.
    """
    pipe = os.pipe() if extra_fd else None
    if pipe:
        argv = [arg.replace("{fd}", str(pipe[1])) for arg in argv]
    start = perf_counter()
    proc = subprocess.Popen(
        list(argv),
        cwd=ROOT,
        env=hermetic_env(hash_seed),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(pipe[1],) if pipe else (),
    )
    fds = [proc.stdout.fileno(), proc.stderr.fileno()]
    if pipe:
        os.close(pipe[1])
        fds.append(pipe[0])
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    timed_out = False
    try:
        with selectors.DefaultSelector() as selector:
            for fd in fds:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                ready = selector.select(max(0.0, start + CHILD_TIMEOUT_S - perf_counter()))
                if not ready:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
    except BaseException:
        proc.kill()  # interrupted or terminated: take the child down too
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if pipe:
            os.close(pipe[0])
    if timed_out:
        raise BenchError(f"{' '.join(argv[:4])} ... ran past {CHILD_TIMEOUT_S} s")
    out = [b"".join(chunks[fd]) for fd in fds]
    return Outcome(
        proc.returncode, out[0], out[1], out[2] if pipe else b"", wall_s, usage.ru_maxrss / 1024.0
    )


def cli_argv(args: Sequence[str]) -> list[str]:
    return [sys.executable, "-m", "foregone.cli", *args]


def worker_argv(*args: Any) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)]


def registered() -> list[tuple[str, str, str, str]]:
    """The registered checks, from an untimed ``foregone list --json``
    (which also compiles every module before anything is timed)."""
    listing = spawn(cli_argv(["list", "--json"]))
    if listing.code != 0:
        raise BenchError(f"foregone list exited {listing.code}: {listing.stderr[-500:]!r}")
    return gate.registered_checks(listing.stdout)


def setup_sample() -> float:
    """Import plus build_registry(), timed inside a fresh interpreter and
    scaled by the reference unit timed there."""
    probe = spawn(worker_argv("setup"))
    if probe.code != 0:
        raise BenchError(f"setup probe exited {probe.code}: {probe.stderr[-500:]!r}")
    times = json.loads(probe.stdout)
    return scaled(times["import_s"] + times["build_s"], times["reference_s"])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: a fresh-process request or one sweep check."""

    argv: list[str]
    hash_seed: int
    wall_s: float  # without the time spent in reference units
    rss_mb: float
    cells: dict[str, int]  # reported cells per check family it ran
    sha256: str
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    timed: bool = True  # counts toward the end-to-end metrics
    batch: int = 0  # the query round, or the sweep pass, it ran in
    reference_s: float = REFERENCE_S  # the reference unit's time next to it

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.reference_s)


def _seeds_of(argv: Sequence[str]) -> tuple[int, ...]:
    return tuple(int(s) for s in argv[argv.index("--seeds") + 1].split(","))


def _family_cells(rows: Sequence[dict]) -> dict[str, int]:
    cells: dict[str, int] = {}
    for row in rows:
        family = inputs.family_of(row.get("check", ""))
        cells[family] = cells.get(family, 0) + int(row.get("cells", 0))
    return cells


def request(
    argv: list[str],
    check: tuple,
    hash_seed: int,
    identity: gate.ByteIdentity,
    traced: bool = False,
) -> tuple[Op, Optional[dict]]:
    """Send one ``foregone run`` request in a fresh process and gate its
    report.  Returns the op and, when traced, the child's span summary.

    The child is ``worker.py request``, which runs the CLI's ``main``
    between two reference measurements; the time those take is left out
    of the request's wall time."""
    out = spawn(worker_argv("request", "{fd}", int(traced), *argv), hash_seed, extra_fd=True)
    problems = []
    if out.code != 0:
        problems.append(f"exit code {out.code}: {out.stderr[-300:]!r}")
    problems += gate.query_problems(out.stdout, check, _seeds_of(argv))
    changed = identity.problem(argv, out.stdout)
    if changed:
        problems.append(changed)
    try:
        cells = _family_cells([json.loads(out.stdout)])
    except (ValueError, KeyError, TypeError):
        cells = {}
    try:
        timings = json.loads(out.extra)
    except ValueError:
        timings = {"reference_s": REFERENCE_S, "reference_spent_s": 0.0}
        problems.append("the request's child wrote no timings")
    op = Op(
        argv, hash_seed, out.wall_s - timings["reference_spent_s"], out.rss_mb, cells,
        gate.digest(out.stdout), problems, traced, reference_s=timings["reference_s"],
    )
    return op, timings.get("summary")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    setup_s: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    cycles: list[dict] = field(default_factory=list)  # traced runs only
    problems: list[str] = field(default_factory=list)  # outside any timed op
    report_sha256: str = ""


def run_query(run: Run, seconds: float) -> None:
    """``query``: closed loop, one client, fresh processes.

    The timed loop sends whole rounds (one query per registered check),
    and starts another round only while it is predicted to end within
    ``seconds``.  A set-up sample is taken after every ``SETUP_EVERY``-th
    request, so the samples are spread through the run.  The first
    request's argv is also sent untimed before and after the loop, so
    it is seen under every PYTHONHASHSEED.
    """
    checks = registered()
    identity = gate.ByteIdentity()
    rounds = inputs.query_rounds(run.seed, checks)
    first_round = next(rounds)

    def untimed(hash_seed: int) -> None:
        op = request(*first_round[0], hash_seed, identity)[0]
        op.timed = False
        run.ops.append(op)

    untimed(inputs.HASH_SEEDS[0])
    run.report_sha256 = run.ops[0].sha256

    if not run.trace:
        sent = 0

        def one_round(index: int) -> None:
            nonlocal sent
            for argv, check in first_round if index == 0 else next(rounds):
                op = request(argv, check, inputs.hash_seed(sent), identity)[0]
                op.batch = index
                run.ops.append(op)
                sent += 1
                if sent % SETUP_EVERY == 0:
                    run.setup_s.append(setup_sample())

        repeat_within(seconds, one_round)
        untimed(inputs.HASH_SEEDS[2])
        return

    unit = first_round[:QUERY_TRACE_UNIT]

    def cycle(_index: int) -> None:
        plain = [request(argv, check, 0, identity)[0] for argv, check in unit]
        traced = [request(argv, check, 0, identity, traced=True) for argv, check in unit]
        summaries = [summary for _, summary in traced if summary is not None]
        run.ops.extend(plain + [op for op, _ in traced])
        run.cycles.append({
            "plain_s": sum(op.wall_s for op in plain),
            "traced_s": sum(op.wall_s for op, _ in traced),
            "import_s": sum(summary.get("import_s", 0.0) for summary in summaries),
            "summary": spans.merge_summaries(summaries),
        })

    repeat_within(seconds, cycle)


def _sweep_ops(one_pass: dict, checks: Sequence[tuple], traced: bool, batch: int) -> list[Op]:
    """Gate one pass of the sweep worker: one op per check, plus one
    for the toy-crypto sweeps."""
    seeds = one_pass["seeds"]
    if len(one_pass["ops"]) != len(checks):
        raise BenchError(f"a sweep pass ran {len(one_pass['ops'])} checks of {len(checks)}")
    result = []
    references = one_pass["reference_s"]
    for (scenario, kind, evidence, verdict, expected, cells, spent), check, ref in zip(
        one_pass["ops"], checks, references
    ):
        row = {
            "scenario": scenario, "check": kind, "evidence": evidence,
            "verdict": verdict, "expected": expected, "seeds": list(seeds),
        }
        result.append(Op(
            argv=[scenario, kind, evidence],
            hash_seed=0,
            wall_s=spent,
            rss_mb=0.0,
            cells={inputs.family_of(kind): cells},
            sha256=one_pass["report_sha256"],
            problems=gate.row_problems(row, check, seeds),
            traced=traced,
            batch=batch,
            reference_s=ref,
        ))
    sweeps = one_pass["toy_sweeps"]
    result.append(Op(
        argv=["toy-sweeps"],
        hash_seed=0,
        wall_s=one_pass["toy_sweeps_s"],
        rss_mb=0.0,
        cells={},
        sha256=one_pass["report_sha256"],
        problems=[] if sweeps and all(v == "pass" for v in sweeps.values()) else [f"toy sweeps {sweeps!r}"],
        traced=traced,
        batch=batch,
        reference_s=references[-1],
    ))
    return result


def run_sweep(run: Run, seconds: float) -> None:
    """``sweep``: one process builds the registry, then runs timed passes.
    Fresh-interpreter set-up samples are taken before and after it."""
    checks = registered()
    samples = 0 if run.trace else SWEEP_SETUP_SAMPLES
    run.setup_s = [setup_sample() for _ in range(samples)]
    out = spawn(worker_argv("sweep", run.seed, seconds, int(run.trace)))
    if out.code != 0:
        raise BenchError(f"sweep worker exited {out.code}: {out.stderr[-500:]!r}")
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    own = lines[-1]
    run.setup_s += [scaled(own["import_s"] + own["build_s"], own["reference_s"])]
    run.setup_s += [setup_sample() for _ in range(samples)]
    passes = [line["pass"] for line in lines if "pass" in line]
    for index, one_pass in enumerate(passes):
        run.ops += _sweep_ops(one_pass, checks, False, index)
    for line in lines:
        if "cycle" not in line:
            continue
        cycle = line["cycle"]
        plain = _sweep_ops(cycle["plain"], checks, False, 0)
        traced = _sweep_ops(cycle["traced"], checks, True, 0)
        run.ops += plain + traced
        if cycle["plain"]["report_sha256"] != cycle["traced"]["report_sha256"]:
            run.problems.append("traced sweep pass rendered other report bytes")
        run.cycles.append({
            "plain_s": sum(op.wall_s for op in plain),
            "traced_s": sum(op.wall_s for op in traced),
            "import_s": cycle["summary"].get("import_s", 0.0),
            "summary": cycle["summary"],
        })
    if not run.ops:
        raise BenchError("the sweep worker reported no pass")
    run.report_sha256 = run.ops[0].sha256
    for op in run.ops:
        op.rss_mb = out.rss_mb


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ``TAIL_BEYOND`` samples above it; the maximum when no such percentile
    lies above the median."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank <= len(ordered) // 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def cell_rates(ops: Sequence[Op]) -> dict[str, float]:
    """Cells per scaled second of each check family over ``ops``: the
    family's reported cells divided by the scaled time of the operations
    that ran them.  0 for a family none of them ran."""
    rates = {}
    for family in inputs.FAMILY_NAMES:
        ran = [op for op in ops if family in op.cells]
        spent = sum(op.scaled_s for op in ran)
        rates[f"cells_per_s.{family}"] = sum(op.cells[family] for op in ran) / spent if spent else 0.0
    return rates


def end_to_end(run: Run) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, detail).

    Every time is scaled by the reference unit timed next to it.  The
    request times are the median and the tail of all timed operations.
    The cell rates are taken per batch (a ``query`` round, which asks
    for every registered check once, or a ``sweep`` pass) and the run
    reports their median over batches, so the number of batches that
    fit in ``--seconds`` changes their noise but not what they estimate.
    """
    timed = [op for op in run.ops if op.timed]
    batches: dict[int, list[Op]] = {}
    for op in timed:
        batches.setdefault(op.batch, []).append(op)
    per_batch = [cell_rates(ops) for _, ops in sorted(batches.items())]
    times = [op.scaled_s for op in timed]
    tail_s, percentile = tail(times)
    raw = statistics.median(op.wall_s for op in timed)
    detail = f"median of {len(per_batch)} {'passes' if run.workload == 'sweep' else 'rounds'}"
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s", f"median of {len(run.setup_s)}"),
        "request_s.p50": (statistics.median(times), "s", f"n={len(times)}; unscaled p50 {raw:.4g} s"),
        "request_s.tail": (tail_s, "s", f"p{percentile:.1f}, n={len(times)}"),
    }
    for name in per_batch[0]:
        metrics[name] = (statistics.median(b[name] for b in per_batch), "1/s", detail)
    metrics["peak_rss_mb"] = (max(op.rss_mb for op in timed), "MB", "max over timed operations")
    return metrics


def per_layer(run: Run) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, detail), from the traced cycles."""
    counts, _ = spans.layer_metrics(run.cycles[0]["summary"])
    for cycle in run.cycles[1:]:
        again, _ = spans.layer_metrics(cycle["summary"])
        run.problems += [f"traced counts differ: {p}" for p in gate.count_problems(counts, again)]
    times = [spans.layer_metrics(cycle["summary"])[1] for cycle in run.cycles]
    detail = f"median of {len(run.cycles)} traced cycles"
    metrics = {
        name: (counts[name], "bytes" if name.endswith(".bytes") else "count", "first traced cycle")
        for name in spans.COUNT_METRICS
    }
    for name in spans.TIME_METRICS:
        metrics[name] = (statistics.median(t[name] for t in times), "s", detail)
    for name, value in spans.ratio_metrics(counts).items():
        metrics[name] = (value, "ratio", "first traced cycle")
    metrics["cli.import_s"] = (statistics.median(c["import_s"] for c in run.cycles), "s", detail)
    plain = statistics.median(c["plain_s"] for c in run.cycles)
    traced = statistics.median(c["traced_s"] for c in run.cycles)
    metrics["trace.overhead_s"] = (traced - plain, "s", f"traced {traced:.3f} s - untraced {plain:.3f} s")
    metrics["trace.overhead_share"] = ((traced - plain) / plain if plain else 0.0, "ratio", detail)
    return metrics


def record(run: Run, metrics: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    body = asdict(run)
    body["metrics"] = {name: {"value": v, "unit": u, "detail": d} for name, (v, u, d) in metrics.items()}
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "foregone" / "cli.py").is_file():
        sys.stderr.write(f"error: no foregone program under {SRC}\n")
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        if run.workload == "sweep":
            run_sweep(run, args.seconds)
        else:
            run_query(run, args.seconds)
        metrics = per_layer(run) if run.trace else end_to_end(run)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    failed = sum(1 for op in run.ops if op.problems)
    for op in run.ops:
        for problem in op.problems:
            print(f"FAILED {' '.join(op.argv[:6])}: {problem}")
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: {len(run.ops)} operations")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} ({detail})")
    print(f"  failed_ratio = {failed}/{len(run.ops)} = {failed / len(run.ops):.6g}")
    print(f"  report_sha256 = {run.report_sha256}")
    print(f"  record = {record(run, metrics).relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
