"""Shared error types, enumeration-budget plumbing and the immutable base."""

from __future__ import annotations

import os

#: Default cap on the size of exhaustive enumerations (grid points,
#: integer size vectors, materialized blowup edges, homomorphism lists).
DEFAULT_BUDGET = 10_000_000

_BUDGET_ENV = "TURAN_BUDGET"


class Frozen:
    """Base of the immutable ``__slots__`` value types.

    Attribute writes raise.  Copies and pickles carry the public slots and
    restore them with ``object.__setattr__``, without re-running the
    constructor (which may normalize); private slots are caches and are
    left unset.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if not name.startswith("_")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class TuranError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "error"


class InvalidArgumentError(TuranError, ValueError):
    kind = "invalid-argument"


class UnsupportedUniformityError(InvalidArgumentError):
    """Operation only defined for a specific uniformity (usually r = 3)."""

    kind = "unsupported-uniformity"


class PreconditionError(InvalidArgumentError):
    kind = "precondition"


class AsymmetryError(PreconditionError):
    """A pair of variables/vertices was required to be symmetric but is not.

    ``witness`` names a term or link edge present on one side only.
    """

    kind = "asymmetric-pair"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SplitMismatchError(PreconditionError):
    """The supplied split p4 + p5 does not reproduce the cross coefficient p3."""

    kind = "split-mismatch"


class SizeLimitError(TuranError, ValueError):
    """Instance exceeds a hard size bound (e.g. isomorphism search)."""

    kind = "size-limit"


class BudgetExceededError(TuranError, RuntimeError):
    """An enumeration would exceed its configured budget.

    ``partial`` carries whatever was computed before the budget tripped,
    when the operation supports partial results.
    """

    kind = "budget-exceeded"

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(TuranError, ValueError):
    """Malformed hypergraph text input; ``line`` is 1-based."""

    kind = "parse-error"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def effective_budget(budget: int | None = None) -> int:
    """Resolve an enumeration budget.

    Explicit argument wins, then the ``TURAN_BUDGET`` environment variable,
    then :data:`DEFAULT_BUDGET`.
    """
    if budget is not None:
        if budget < 1:
            raise InvalidArgumentError("budget must be positive")
        return budget
    env = os.environ.get(_BUDGET_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise InvalidArgumentError(f"bad {_BUDGET_ENV} value: {env!r}") from exc
        if value < 1:
            raise InvalidArgumentError(f"{_BUDGET_ENV} must be positive")
        return value
    return DEFAULT_BUDGET
