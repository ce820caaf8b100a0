"""Resource ceilings for the exhaustive searches.

Every brute-force sweep counts the objects it enumerates against a ceiling
and refuses to continue past it, so that desk-scale runs stay predictable.
The default comes from the MARGO_CEILING environment variable when set.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

DEFAULT_CEILING = 10_000_000


class ResourceCeilingError(RuntimeError):
    """Raised when a search would enumerate more objects than allowed."""


def resolve_ceiling(ceiling: int | None) -> int:
    if ceiling is not None:
        return ceiling
    env = os.environ.get("MARGO_CEILING")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MARGO_CEILING must be an integer, got {env!r}") from None
    return DEFAULT_CEILING


class Budget:
    """Counter that raises once more than `ceiling` objects have been spent."""

    def __init__(self, ceiling: int | None = None, what: str = "enumerated objects"):
        self.ceiling = resolve_ceiling(ceiling)
        self.what = what
        self.used = 0

    def spend(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.ceiling:
            raise ResourceCeilingError(
                f"resource ceiling exceeded: more than {self.ceiling} {self.what}"
            )


@contextmanager
def phase(budget: Budget, where: str) -> Iterator[None]:
    """Re-raise a ceiling error from the block as one that names the run's
    ceiling and `where` the run was: the phase and the degree or level reached."""
    try:
        yield
    except ResourceCeilingError:
        raise ResourceCeilingError(
            f"resource ceiling exceeded: more than {budget.ceiling} {budget.what} ({where})"
        ) from None
