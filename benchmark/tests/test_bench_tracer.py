"""The tracer against the real program: wrappers bind where foregone
looks its functions up, leave outputs unchanged, and come off cleanly.

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402

foregone_checkers = pytest.importorskip("foregone.checkers")
import foregone.cli as cli  # noqa: E402
import foregone.kernel as kernel  # noqa: E402
from foregone.scenarios import build_scenario  # noqa: E402

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def password():
    return build_scenario("password")


def traced_check(scenario, kind, evidence):
    check = scenario.find_check(kind, evidence)
    tracer = spans.Tracer()
    tracer.install()
    try:
        verdict, report = cli.run_check(scenario, check, SEEDS)
    finally:
        tracer.uninstall()
    counts, times = spans.layer_metrics(tracer.summary())
    return verdict, report, counts, times, spans.ratio_metrics(counts)


def test_entailment_repeats_cells_and_demonstrability_does_not(password):
    verdict, report, counts, times, ratios = traced_check(password, "entailment", "strong")
    assert verdict == "Holds"
    assert counts["checkers.cells"] == report.cells_checked
    assert counts["kernel.execute.calls"] > report.cells_checked
    assert ratios["checkers.executions_per_cell.entail"] > 1
    assert ratios["kernel.execute.repeat_share.entail"] > 0
    assert times["checkers.entailment.self_s"] > 0

    verdict, report, counts, _, ratios = traced_check(password, "demonstrability", "weak")
    assert verdict == "Holds"
    assert counts["kernel.execute.calls"] == report.cells_checked
    assert ratios["kernel.execute.repeat_share.demo"] == 0


def test_counts_repeat_exactly(password):
    first = traced_check(password, "counterexample", "star")[2]
    again = traced_check(password, "counterexample", "star")[2]
    assert first == again


def test_uninstall_restores_every_binding():
    before = (foregone_checkers.execute, foregone_checkers.with_seed, cli.run_check, cli.render_json)
    tracer = spans.Tracer()
    tracer.install()
    assert foregone_checkers.execute is not before[0]
    tracer.uninstall()
    assert (foregone_checkers.execute, foregone_checkers.with_seed, cli.run_check, cli.render_json) == before


def test_a_missing_boundary_reads_zero(password, monkeypatch):
    monkeypatch.delattr(kernel, "with_seed")
    monkeypatch.delattr(kernel, "snapshot")
    monkeypatch.delattr(foregone_checkers, "with_seed")
    monkeypatch.delattr(foregone_checkers, "snapshot")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    counts, _ = spans.layer_metrics(tracer.summary())
    assert counts["kernel.fork.calls"] == 0
