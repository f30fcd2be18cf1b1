from __future__ import annotations

import pytest

from foregone.checkers import drop_kept_cells
from foregone.scenarios import build_registry

# Most unit tests get by on a few seeds; the acceptance suite uses the
# full default of sixteen where a criterion calls for it.
FEW_SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="session")
def registry():
    return build_registry()


@pytest.fixture(autouse=True)
def no_kept_cells():
    """Each test starts with no kept cell runs, so no count it pins
    depends on the tests that ran before it."""
    drop_kept_cells()
