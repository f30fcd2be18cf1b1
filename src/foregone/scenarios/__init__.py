"""Registry of fully assembled scenarios.

Each entry bundles evidence variants, machines, an action family, and
the expected verdict of every registered check.  ``build_scenario``
assembles one scenario and ``build_registry`` all of them (optionally
with parameter overrides); building a scenario runs its evidence
self-consistency audit, so a malformed scenario fails at load, not at
check time.  A build defers what only a check reads: the languages of
the ``probe-unknown-goal`` checks are computed the first time a check
reads them (``ScenarioCheck.languages``), so ``list`` and a ``run`` of
any other check never pay for them.

``build_scenario`` is the one place a scenario's ``DEFAULTS`` meet its
overrides: it hands the module's ``build`` the complete, merged
parameter mapping, so no ``build`` merges defaults itself.  A toy
primitive that refuses an overridden value while the scenario builds
(a ``ToyCryptoError``, such as a secret whose length the commitment
scheme does not take) comes out as a ``ScenarioError`` naming the
scenario.

``validate_overrides`` checks a whole overrides mapping (unknown
scenarios, unknown parameters, wrong types) without building anything.
The CLI runs it first and then builds only what the command needs:
``run`` builds the one scenario it names, so a well-typed override that
breaks another scenario's evidence audit fails ``list`` and ``audit``
but not ``run`` of an unrelated scenario.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..kernel import MethodFaultError
from ..toy_crypto import ToyCryptoError
from .base import CHECK_KINDS, Scenario, ScenarioError, run_check
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


def _check_params(name: str, params: Mapping[str, Any]) -> None:
    defaults = BUILDERS[name].DEFAULTS
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise UnknownParameterError(
            f"scenario {name!r} has no parameters {unknown}; "
            f"known parameters: {sorted(defaults)}"
        )
    for param, value in params.items():
        default = defaults[param]
        if type(value) is not type(default):
            raise ScenarioError(
                f"parameter {name}.{param} must be of type "
                f"{type(default).__name__}, got {type(value).__name__}"
            )


def validate_overrides(overrides: Mapping[str, Mapping[str, Any]]) -> None:
    """Reject overrides that name an unknown scenario or parameter, or
    give a value whose type differs from the parameter's default.  It
    checks every scenario named, built or not."""
    unknown = sorted(set(overrides) - set(BUILDERS))
    if unknown:
        raise UnknownParameterError(f"overrides name unknown scenarios {unknown}")
    for name in BUILDERS:
        if name in overrides:
            _check_params(name, overrides[name])


def build_scenario(name: str, params: Optional[Mapping[str, Any]] = None) -> Scenario:
    module = BUILDERS.get(name)
    if module is None:
        raise ScenarioError(f"unknown scenario {name!r}; known: {sorted(BUILDERS)}")
    if params:
        _check_params(name, params)
    try:
        return module.build({**module.DEFAULTS, **(params or {})})
    except (ToyCryptoError, MethodFaultError) as exc:
        raise ScenarioError(f"scenario {name!r} cannot be built: {exc}") from exc


def build_registry(
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, Scenario]:
    overrides = overrides or {}
    validate_overrides(overrides)
    return {
        name: build_scenario(name, overrides.get(name)) for name in BUILDERS
    }


__all__ = [
    "BUILDERS",
    "CHECK_KINDS",
    "Scenario",
    "ScenarioError",
    "UnknownParameterError",
    "build_registry",
    "build_scenario",
    "run_check",
    "scenario_names",
    "validate_overrides",
]
