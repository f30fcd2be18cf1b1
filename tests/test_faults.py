"""Fault injection over the registry: every piece of scenario code that
raises comes back as a diagnosed configuration error.

Each distinct method function a registered machine holds, and each
evidence predicate (``Assertion.holds_in``), is made to raise, one at a
time, by swapping its ``__code__``.  The scenario that first reaches it
is then run in-process through the CLI, with no kept runs and no kept
refinement comparisons.  Every case must exit 2 with a
message that names the scenario and one of its worlds; none may exit 1
(a verdict mismatch), escape as a traceback, or name only the probe id
that the build's refinement walk runs a device under.
"""

from __future__ import annotations

import types
from collections import Counter
from collections.abc import Mapping
from functools import partial

import pytest

import foregone.refinement as refinement
from foregone.cli import EXIT_CONFIG, main
from foregone.evidence import Assertion, Evidence
from foregone.kernel import Machine
from foregone.scenarios import build_registry

# Scalars and functions hold no machine or assertion.
_LEAVES = (str, bytes, int, float, bool, type(None), types.FunctionType, partial)


def _reachable(root):
    """``(kind, function)`` for the method functions of every machine
    reachable from ``root`` and the ``holds_in`` of every assertion (the
    function a ``partial`` wraps), and the world labels of the evidences
    met on the way."""
    functions: list = []
    labels: list[str] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Machine):
            functions.extend(("method", function) for function in obj.methods.values())
        elif isinstance(obj, Assertion) and obj.holds_in is not None:
            predicate = obj.holds_in
            function = predicate.func if isinstance(predicate, partial) else predicate
            functions.append(("holds_in", function))
        elif isinstance(obj, Evidence):
            labels.extend(obj.labels())
        if isinstance(obj, Mapping):
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        for klass in type(obj).__mro__:
            for slot in klass.__dict__.get("__slots__", ()):
                stack.append(getattr(obj, slot, None))
        stack.extend(getattr(obj, "__dict__", {}).values())
    return functions, labels


def _cases():
    """One case per distinct function, each with the first scenario, in
    registry order, that reaches it, and that scenario's world labels."""
    owners: dict = {}
    for name, scenario in build_registry().items():
        functions, labels = _reachable(scenario)
        for kind, function in functions:
            owners.setdefault(function, (kind, name, tuple(labels)))
    return [
        pytest.param(function, name, labels, id=f"{kind}:{name}:{function.__qualname__}")
        for function, (kind, name, labels) in owners.items()
    ]


_CASES = _cases()


def _fault(*args, **kwargs):
    raise RuntimeError("an injected fault")


def test_the_sweep_covers_every_method_and_predicate_of_the_registry():
    # a new machine or predicate joins the sweep; a closure would need
    # another way in, since its code is swapped per function object
    kinds = Counter(case.id.partition(":")[0] for case in _CASES)
    assert kinds == {"method": 61, "holds_in": 7}
    assert all(case.values[0].__closure__ is None for case in _CASES)


@pytest.mark.parametrize("function, scenario, labels", _CASES)
def test_a_raising_function_is_a_config_error_naming_the_scenario_and_a_world(
    monkeypatch, capsys, function, scenario, labels
):
    # the kept runs are dropped before every test (conftest.py); the
    # build's comparisons are kept here
    monkeypatch.setattr(refinement, "_RESULTS", {})
    monkeypatch.setattr(function, "__code__", _fault.__code__)
    code = main(["run", scenario])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CONFIG, ""), err
    # a check names its scenario first, a build says "scenario 'name'"
    assert err.startswith((f"error: {scenario} ", f"error: scenario {scenario!r} "))
    assert any(f"world {label!r}" in err or f"/{label}: " in err for label in labels)
    assert "probe-subject" not in err
    assert "RuntimeError: an injected fault" in err
