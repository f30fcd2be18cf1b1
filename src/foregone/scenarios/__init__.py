"""Registry of fully assembled scenarios.

Each entry bundles evidence variants, machines, an action family, and
the expected verdict of every registered check.  ``build_registry``
assembles them (optionally with parameter overrides); building a
scenario runs its evidence self-consistency audit, so a malformed
scenario fails at load, not at check time.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .base import (
    CHECK_KINDS,
    FAILS,
    HOLDS,
    HYPOTHESIS_VIOLATED,
    Scenario,
    ScenarioCheck,
    ScenarioError,
    run_check,
)
from . import (
    decommit,
    deniable,
    hashfile,
    hybrid,
    otp_table,
    password,
    twofactor,
    unknown_goal,
)

BUILDERS = {
    "password": password,
    "deniable": deniable,
    "hybrid": hybrid,
    "twofactor": twofactor,
    "hash": hashfile,
    "decommit": decommit,
    "otp-table": otp_table,
    "unknown-goal": unknown_goal,
}


class UnknownParameterError(ScenarioError):
    pass


def scenario_names() -> tuple[str, ...]:
    return tuple(BUILDERS)


def build_scenario(name: str, params: Optional[Mapping[str, Any]] = None) -> Scenario:
    module = BUILDERS.get(name)
    if module is None:
        raise ScenarioError(f"unknown scenario {name!r}")
    if params:
        unknown = sorted(set(params) - set(module.DEFAULTS))
        if unknown:
            raise UnknownParameterError(
                f"scenario {name!r} has no parameters {unknown}; "
                f"known parameters: {sorted(module.DEFAULTS)}"
            )
        for param, value in params.items():
            default = module.DEFAULTS[param]
            if type(value) is not type(default):
                raise ScenarioError(
                    f"parameter {name}.{param} must be of type "
                    f"{type(default).__name__}, got {type(value).__name__}"
                )
    return module.build(params)


def build_registry(
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, Scenario]:
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(BUILDERS))
    if unknown:
        raise UnknownParameterError(f"overrides name unknown scenarios {unknown}")
    return {
        name: build_scenario(name, overrides.get(name)) for name in BUILDERS
    }


__all__ = [
    "BUILDERS",
    "CHECK_KINDS",
    "FAILS",
    "HOLDS",
    "HYPOTHESIS_VIOLATED",
    "Scenario",
    "ScenarioCheck",
    "ScenarioError",
    "UnknownParameterError",
    "build_registry",
    "build_scenario",
    "run_check",
    "scenario_names",
]
