"""Deterministic simulation and bounded model checking for
verification-centric compelled-action analysis.

The package models governments, respondents, nature, verifiers, and
actions as interacting stateful machines, then mechanically decides
demonstrability, conformity, and entailment over finite families of
evidence-consistent worlds.  ``foregone.scenarios`` carries a registry
of fully assembled scenarios with their expected verdicts; the
``foregone`` command line front end lists them, runs individual checks,
and audits the whole registry.
"""

from .values import ABSENT, NO_SUCH_METHOD, Location, is_value, render_value, same_value
from .tapes import RandomnessAssignment, TapeReader, ZeroTape
from .kernel import (
    AbsentOutputError,
    BudgetExceededError,
    DEFAULT_BUDGET,
    ExecutionResult,
    KernelError,
    Machine,
    MethodFaultError,
    Nature,
    NoSuchMethodError,
    Transcript,
    Verdict,
    World,
    emulate_with_respondent,
    execute,
    invoke_method,
    read_only_store,
    run_post,
    run_target,
    with_zero_tape,
)
from .refinement import ProbeSpec, bounded_equivalent, bounded_implements
from .evidence import (
    Assertion,
    EmptyFamilyError,
    Evidence,
    UnknownAssertionError,
    at_least_as_strong,
    drop_assertion,
    is_consistent,
    strengthen_to_full_spec,
)
from .checkers import (
    ActionFamily,
    CheckReport,
    CheckVerdict,
    Counterexample,
    DEFAULT_SEEDS,
    HypothesisViolatedError,
    PreconditionViolatedError,
    check_conformity,
    check_demonstrability,
    check_entailment,
    check_monotonicity,
    probe_random_target,
    probe_unknown_goal,
)

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "NO_SUCH_METHOD",
    "Location",
    "is_value",
    "render_value",
    "same_value",
    "RandomnessAssignment",
    "TapeReader",
    "ZeroTape",
    "AbsentOutputError",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DEFAULT_SEEDS",
    "ExecutionResult",
    "KernelError",
    "Machine",
    "MethodFaultError",
    "Nature",
    "NoSuchMethodError",
    "Transcript",
    "Verdict",
    "World",
    "emulate_with_respondent",
    "execute",
    "invoke_method",
    "read_only_store",
    "run_post",
    "run_target",
    "with_zero_tape",
    "ProbeSpec",
    "bounded_equivalent",
    "bounded_implements",
    "Assertion",
    "EmptyFamilyError",
    "Evidence",
    "UnknownAssertionError",
    "at_least_as_strong",
    "drop_assertion",
    "is_consistent",
    "strengthen_to_full_spec",
    "ActionFamily",
    "CheckReport",
    "CheckVerdict",
    "Counterexample",
    "HypothesisViolatedError",
    "PreconditionViolatedError",
    "check_conformity",
    "check_demonstrability",
    "check_entailment",
    "check_monotonicity",
    "probe_random_target",
    "probe_unknown_goal",
]
