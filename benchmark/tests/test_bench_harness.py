"""Tests of the benchmark's own logic: inputs, gate and span arithmetic.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import reference  # noqa: E402
from run import Op, cell_rates, tail  # noqa: E402

CHECKS = [
    ("password", "entailment", "weak", "Fails"),
    ("password", "demonstrability", "weak", "Holds"),
    ("hash", "counterexample", "colliding", "Fails"),
    ("otp-table", "probe-random", "coin", "Holds"),
    ("deniable", "monotonicity", "weak-to-strong", "Holds"),
    ("hybrid", "conformity", "weak", "Holds"),
]


def take(iterator, n):
    return list(itertools.islice(iterator, n))


# -- inputs ------------------------------------------------------------------


def test_requests_are_deterministic_per_seed():
    first = take(inputs.query_rounds(7, CHECKS), 5)
    again = take(inputs.query_rounds(7, CHECKS), 5)
    other = take(inputs.query_rounds(8, CHECKS), 5)
    assert first == again
    assert first != other


def test_query_rounds_ask_for_every_check_once():
    for one_round in take(inputs.query_rounds(5, CHECKS), 4):
        assert sorted(check for _, check in one_round) == sorted(CHECKS)
        for argv, check in one_round:
            assert argv[:6] == ["run", check[0], "--check", check[1], "--evidence", check[2]]
            assert len(argv[argv.index("--seeds") + 1].split(",")) == inputs.SEEDS_PER_REQUEST


def test_no_tape_seed_list_repeats_across_requests():
    rounds = take(inputs.query_rounds(2, CHECKS), 5)
    argvs = [tuple(argv) for one_round in rounds for argv, _ in one_round]
    assert len(set(argvs)) == len(argvs)


def test_first_timed_request_runs_under_another_hash_seed_than_the_warm_up():
    assert inputs.hash_seed(0) != inputs.HASH_SEEDS[0]
    assert {inputs.hash_seed(i) for i in range(3)} == set(inputs.HASH_SEEDS)


def test_sweep_passes_never_reuse_a_seed():
    lists = take(inputs.seed_lists(11, "sweep", inputs.SEEDS_PER_PASS), 50)
    assert lists == take(inputs.seed_lists(11, "sweep", inputs.SEEDS_PER_PASS), 50)
    assert all(len(seeds) == inputs.SEEDS_PER_PASS for seeds in lists)
    every_seed = [seed for seeds in lists for seed in seeds]
    assert len(set(every_seed)) == len(every_seed)


# -- gate --------------------------------------------------------------------


def query_report(check, seeds, verdict=None):
    scenario, kind, evidence, expected = check
    return json.dumps({
        "scenario": scenario, "check": kind, "evidence": evidence,
        "verdict": verdict or expected, "expected": expected,
        "cells": 16, "seeds": list(seeds),
    }).encode()


def test_gate_passes_a_clean_query():
    assert gate.query_problems(query_report(CHECKS[0], (1, 2)), CHECKS[0], (1, 2)) == []


def test_gate_flags_a_flipped_verdict():
    problems = gate.query_problems(query_report(CHECKS[0], (1, 2), "Holds"), CHECKS[0], (1, 2))
    assert any("verdict 'Holds'" in p for p in problems)


def test_gate_flags_a_changed_expectation():
    row = json.loads(query_report(CHECKS[0], (1,)))
    row["expected"] = "Holds"
    problems = gate.query_problems(json.dumps(row).encode(), CHECKS[0], (1,))
    assert any("registered 'Fails'" in p for p in problems)


def test_gate_flags_a_query_for_the_wrong_check_or_seeds():
    row = {"scenario": "hash", "check": "counterexample", "evidence": "colliding",
           "verdict": "Fails", "expected": "Fails", "seeds": [4, 5]}
    assert gate.query_problems(json.dumps(row).encode(), CHECKS[2], (4, 5)) == []
    assert gate.query_problems(json.dumps(row).encode(), CHECKS[0], (4, 5))
    assert gate.query_problems(json.dumps(row).encode(), CHECKS[2], (4, 6))
    assert gate.query_problems(b"not json", CHECKS[2], (4, 5))


def test_gate_flags_changed_report_bytes_for_the_same_argv():
    identity = gate.ByteIdentity()
    argv = inputs.query_argv(CHECKS[0], (1, 2))
    report = query_report(CHECKS[0], (1, 2))
    assert identity.problem(argv, report) is None
    assert identity.problem(argv, report) is None
    assert identity.problem(argv, report.replace(b"16", b"17")) is not None
    assert identity.problem(inputs.query_argv(CHECKS[0], (3,)), b"other") is None


def test_count_problems_names_each_differing_count():
    assert gate.count_problems({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert gate.count_problems({"a": 1, "b": 2}, {"a": 1, "b": 3}) == ["b: 2 then 3"]


# -- spans -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0), ("c", 9.0, 12.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer._wrap(inner, "inner")
    wrapped_outer = tracer._wrap(outer, "outer")
    assert wrapped_outer(1) == 4
    summary = tracer.summary()
    assert summary["calls"] == {"outer": 1, "inner": 1}
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["outer", "inner"] and parents == [-1, 0]


def test_missing_boundaries_read_zero():
    counts, times = spans.layer_metrics({"spans": 0, "calls": {}, "self_s": {}, "counters": {}})
    assert all(counts[name] == 0 for name in spans.COUNT_METRICS)
    assert all(times[name] == 0 for name in spans.TIME_METRICS)
    assert all(value == 0 for value in spans.ratio_metrics(counts).values())


def test_repeat_share_and_executions_per_cell():
    counts, _ = spans.layer_metrics({
        "spans": 0,
        "calls": {},
        "self_s": {},
        "counters": {
            "execute.calls.entail": 10, "execute.repeats.entail": 4, "cells.entail": 5,
            "execute.calls.demo": 6, "cells.demo": 6,
        },
    })
    ratios = spans.ratio_metrics(counts)
    assert ratios["kernel.execute.repeat_share.entail"] == pytest.approx(0.4)
    assert ratios["checkers.executions_per_cell.entail"] == pytest.approx(2.0)
    assert ratios["kernel.execute.repeat_share.demo"] == 0
    assert ratios["checkers.executions_per_cell"] == pytest.approx(16 / 11)


# -- metrics -----------------------------------------------------------------


def test_tail_leaves_ten_samples_above_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = tail(samples)
    assert value == 90.0 and percentile == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_is_the_maximum_when_samples_are_few():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def op(wall_s, cells, reference_s=reference.REFERENCE_S):
    return Op([], 0, wall_s, 0.0, cells, "", reference_s=reference_s)


def test_scaled_time_divides_out_the_machine_speed():
    fast = op(1.0, {}, reference_s=reference.REFERENCE_S)
    slow = op(2.0, {}, reference_s=2 * reference.REFERENCE_S)
    assert fast.scaled_s == pytest.approx(1.0)
    assert slow.scaled_s == pytest.approx(1.0)


def test_cell_rates_divide_each_family_by_its_own_time():
    ops = [
        op(1.0, {"entail": 10}), op(3.0, {"entail": 30}),
        op(4.0, {"demo": 8}, reference_s=2 * reference.REFERENCE_S),
    ]
    rates = cell_rates(ops)
    assert rates["cells_per_s.entail"] == pytest.approx(40 / 4.0)
    assert rates["cells_per_s.demo"] == pytest.approx(8 / 2.0)
    assert rates["cells_per_s.probe"] == 0


def test_reference_measure_skips_a_warm_up_unit(monkeypatch):
    clock = [0.0]
    spent = iter([5.0, 3.0, 1.0, 2.0])  # the first unit is the warm-up

    def unit():
        clock[0] += next(spent)

    monkeypatch.setattr(reference, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(reference, "reference_unit", unit)
    assert reference.measure(3) == (2.0, 11.0)


def test_repeat_within_runs_whole_steps_that_fit(monkeypatch):
    import worker

    clock = [0.0]
    monkeypatch.setattr(worker, "perf_counter", lambda: clock[0])
    calls = []

    def step(index):  # each step takes 3 s of the fake clock
        calls.append(index)
        clock[0] += 3.0

    assert worker.repeat_within(10.0, step) == 3  # a 4th would end at 12 s
    assert calls == [0, 1, 2]
    assert worker.repeat_within(1.0, step) == 1  # always at least one
