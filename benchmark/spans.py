"""Per-layer tracing of foregone from outside its source tree.

``Tracer.install`` wraps the public functions at each layer boundary
and binds the wrappers wherever the program looks the originals up: in
every ``foregone`` module namespace that imported the function by name
(``checkers.execute``, ``evidence.bounded_equivalent`` and so on), and
in the defining module where the callers live there too.  Nothing in
``src/`` changes.  A boundary whose function no longer exists is
skipped, and its metrics read zero.

Each call records a span ``[name, start, end, parent]`` in memory;
``summary`` reduces them at the end to per-name call counts and self
times (span duration minus the time covered by child spans) plus the
counters the wrappers keep.  ``values.same_value`` and ``render_value``
run once per value and get no span: their time is self time of the
caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Sequence

from inputs import FAMILIES, FAMILY_NAMES, family_of

CHECK_KINDS = tuple(FAMILIES)

# (defining module, function, span name, also bind in the defining module)
BOUNDARIES = (
    ("foregone.kernel", "execute", "kernel.execute", False),
    ("foregone.kernel", "with_seed", "kernel.fork", False),
    ("foregone.kernel", "snapshot", "kernel.fork", False),
    ("foregone.kernel", "run_target", "kernel.run_target", False),
    ("foregone.kernel", "run_post", "kernel.run_post", False),
    ("foregone.refinement", "bounded_implements", "refinement.implements", False),
    ("foregone.refinement", "bounded_equivalent", "refinement.implements", False),
    ("foregone.refinement", "replay_probe", "refinement.replay", True),
    ("foregone.evidence", "audit", "evidence.audit", False),
    ("foregone.evidence", "strengthen_to_full_spec", "evidence.strengthen", False),
    ("foregone.scenarios.base", "run_check", "checkers", False),
    ("foregone.cli", "toy_sweeps", "toy_crypto.sweeps", True),
    ("foregone.reports", "render_json", "reports.render", False),
    ("foregone.reports", "render_markdown", "reports.render", False),
)
SCENARIO_HELPERS = ("foregone.scenarios.base", "foregone.scenarios.common")

COUNT_METRICS = (
    "kernel.execute.calls",
    "kernel.execute.steps",
    "kernel.fork.calls",
    "kernel.run_target.calls",
    "kernel.run_post.calls",
    "tapes.read.calls",
    "tapes.read.bytes",
    "refinement.implements.calls",
    "refinement.replay.calls",
    "evidence.audit.calls",
    "scenarios.build.calls",
    "checkers.cells",
    "checkers.skipped",
    "reports.render.calls",
    "reports.render.bytes",
)
TIME_METRICS = (
    "kernel.execute.self_s",
    "kernel.fork.self_s",
    "kernel.run_target.self_s",
    "kernel.run_post.self_s",
    "tapes.read.self_s",
    "refinement.self_s",
    "evidence.audit.self_s",
    "evidence.strengthen.self_s",
    "scenarios.build.self_s",
    *(f"checkers.{kind}.self_s" for kind in CHECK_KINDS),
    "toy_crypto.sweeps.self_s",
    "reports.render.self_s",
)


def covered_time(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each ``(name, start, end, parent)`` span: its duration
    minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_time(start, end, children.get(index, ()))
        for index, (_, start, end, _) in enumerate(spans)
    ]


def _rest_key(args: tuple, kwargs: dict) -> tuple:
    rest = []
    for value in (*args, *sorted(kwargs.items())):
        try:
            hash(value)
        except TypeError:
            value = id(value)
        rest.append(value)
    return tuple(rest)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._family = "other"
        self._seen: set = set()
        self._cells: dict[int, Any] = {}  # id(forked world) -> cell coordinate

    # -- spans -------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: Any,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _bind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- cell coordinates for repeat detection ------------------------------

    def _cell(self, world: Any) -> Any:
        return self._cells.get(id(world), id(world))

    def _after_with_seed(self, args, kwargs, result) -> None:
        seed = args[1] if len(args) > 1 else kwargs.get("seed")
        self._cells[id(result)] = (self._cell(args[0]), seed)

    def _after_snapshot(self, args, kwargs, result) -> None:
        self._cells[id(result)] = self._cell(args[0])

    def _count_cell(self, kind: str, machines: int, args, kwargs) -> None:
        family = self._family
        key = (
            kind,
            *(id(m) for m in args[:machines]),
            self._cell(args[machines]) if len(args) > machines else None,
            _rest_key(args[machines + 1 :], kwargs),
        )
        self.counters[f"{kind}.calls.{family}"] += 1
        if key in self._seen:
            self.counters[f"{kind}.repeats.{family}"] += 1
        else:
            self._seen.add(key)

    def _before_execute(self, args, kwargs) -> None:
        self._count_cell("execute", 2, args, kwargs)

    def _after_execute(self, args, kwargs, result) -> None:
        self.counters["kernel.execute.steps"] += getattr(result, "steps_used", 0)

    def _before_run_target(self, args, kwargs) -> None:
        self._count_cell("run_target", 1, args, kwargs)

    def _before_check(self, args, kwargs) -> None:
        self._family = family_of(self._check_kind(args))
        self._seen.clear()
        self._cells.clear()

    def _after_check(self, args, kwargs, result) -> None:
        report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
        cells = getattr(report, "cells_checked", 0)
        self.counters[f"cells.{self._family}"] += cells
        self.counters["checkers.skipped"] += len(getattr(report, "skipped", ()))
        self._family = "other"

    @staticmethod
    def _check_kind(args) -> str:
        return getattr(args[1], "kind", "unknown") if len(args) > 1 else "unknown"

    def _after_read(self, args, kwargs, result) -> None:
        self.counters["tapes.read.bytes"] += len(result)

    def _after_render(self, args, kwargs, result) -> None:
        self.counters["reports.render.bytes"] += len(result.encode("utf-8"))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Bind wrappers at every boundary of the loaded foregone modules."""
        hooks = {
            "execute": (self._before_execute, self._after_execute),
            "with_seed": (None, self._after_with_seed),
            "snapshot": (None, self._after_snapshot),
            "run_target": (self._before_run_target, None),
            "run_check": (self._before_check, self._after_check),
            "render_json": (None, self._after_render),
            "render_markdown": (None, self._after_render),
        }
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "foregone" or name.startswith("foregone."))
        }
        for home_name, attr, span, bind_home in BOUNDARIES:
            home = modules.get(home_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            name = span
            if attr == "run_check":
                name = lambda args: f"checkers.{self._check_kind(args)}"
            before, after = hooks.get(attr, (None, None))
            wrapper = self._wrap(original, name, before, after)
            for module_name, module in modules.items():
                if module_name == home_name and not bind_home:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

        tapes = modules.get("foregone.tapes")
        reader = getattr(tapes, "TapeReader", None)
        if reader is not None and hasattr(reader, "read_bytes"):
            self._bind(
                reader,
                "read_bytes",
                self._wrap(reader.read_bytes, "tapes.read", None, self._after_read),
            )

        for module_name, module in modules.items():
            if not module_name.startswith("foregone.scenarios.") or module_name in SCENARIO_HELPERS:
                continue
            build = getattr(module, "build", None)
            if callable(build):
                self._bind(module, "build", self._wrap(build, "scenarios.build"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Call counts, self times and counters of everything recorded."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), spent in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += spent
        return {
            "spans": len(self.spans),
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
        }


def layer_metrics(summary: dict[str, Any]) -> tuple[dict[str, int], dict[str, float]]:
    """Per-layer counts (deterministic) and times from one ``summary``."""
    calls = Counter(summary["calls"])
    self_s = defaultdict(float, summary["self_s"])
    counters = Counter(summary["counters"])

    counts = {
        "kernel.execute.calls": calls["kernel.execute"],
        "kernel.execute.steps": counters["kernel.execute.steps"],
        "kernel.fork.calls": calls["kernel.fork"],
        "kernel.run_target.calls": calls["kernel.run_target"],
        "kernel.run_post.calls": calls["kernel.run_post"],
        "tapes.read.calls": calls["tapes.read"],
        "tapes.read.bytes": counters["tapes.read.bytes"],
        "refinement.implements.calls": calls["refinement.implements"],
        "refinement.replay.calls": calls["refinement.replay"],
        "evidence.audit.calls": calls["evidence.audit"],
        "scenarios.build.calls": calls["scenarios.build"],
        "checkers.cells": sum(counters[f"cells.{f}"] for f in (*FAMILY_NAMES, "other")),
        "checkers.skipped": counters["checkers.skipped"],
        "reports.render.calls": calls["reports.render"],
        "reports.render.bytes": counters["reports.render.bytes"],
    }
    for family in (*FAMILY_NAMES, "other"):
        for key in (
            f"execute.calls.{family}",
            f"execute.repeats.{family}",
            f"run_target.calls.{family}",
            f"run_target.repeats.{family}",
            f"cells.{family}",
        ):
            counts[key] = counters[key]

    times = {
        "kernel.execute.self_s": self_s["kernel.execute"],
        "kernel.fork.self_s": self_s["kernel.fork"],
        "kernel.run_target.self_s": self_s["kernel.run_target"],
        "kernel.run_post.self_s": self_s["kernel.run_post"],
        "tapes.read.self_s": self_s["tapes.read"],
        "refinement.self_s": self_s["refinement.implements"] + self_s["refinement.replay"],
        "evidence.audit.self_s": self_s["evidence.audit"],
        "evidence.strengthen.self_s": self_s["evidence.strengthen"],
        "scenarios.build.self_s": self_s["scenarios.build"],
        "toy_crypto.sweeps.self_s": self_s["toy_crypto.sweeps"],
        "reports.render.self_s": self_s["reports.render"],
    }
    for kind in CHECK_KINDS:
        times[f"checkers.{kind}.self_s"] = self_s[f"checkers.{kind}"]
    return counts, times


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def ratio_metrics(counts: dict[str, int]) -> dict[str, float]:
    """Repeat shares and executions per reported cell, overall and per family."""

    def total(key: str, families: Sequence[str]) -> int:
        return sum(counts[f"{key}.{family}"] for family in families)

    ratios = {}
    for suffix, families in (("", (*FAMILY_NAMES, "other")), *((f".{f}", (f,)) for f in FAMILY_NAMES)):
        ratios[f"kernel.execute.repeat_share{suffix}"] = _share(
            total("execute.repeats", families), total("execute.calls", families)
        )
        ratios[f"kernel.run_target.repeat_share{suffix}"] = _share(
            total("run_target.repeats", families), total("run_target.calls", families)
        )
        ratios[f"checkers.executions_per_cell{suffix}"] = _share(
            total("execute.calls", families), total("cells", families)
        )
    return ratios


def merge_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum several summaries (one per request of a traced unit)."""
    merged: dict[str, Any] = {"spans": 0, "calls": Counter(), "self_s": Counter(), "counters": Counter()}
    for summary in summaries:
        merged["spans"] += summary["spans"]
        for key in ("calls", "self_s", "counters"):
            merged[key].update(summary[key])
    return {key: dict(value) if isinstance(value, Counter) else value for key, value in merged.items()}
