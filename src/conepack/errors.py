"""Shared exception taxonomy.

Three failure classes are distinguished everywhere in the package:

* ``InputError`` -- the caller handed us something malformed (wrong
  dimensions, non-integral data where integers are required, an unbounded
  polytope where a bounded one is needed).  Subclass of ``ValueError``.
* ``ResourceError`` -- an explicit work budget was exhausted (the request
  work budget of ``budget.limit``; per-call lattice, node and pivot caps;
  oracle enumeration caps).  The message names the budget that tripped.
* ``InternalError`` -- an invariant that the algorithms guarantee was
  found violated at runtime.  Always a bug, never a caller mistake.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class ResourceError(RuntimeError):
    """A configured work budget was exceeded."""

    def __init__(self, budget_name: str, limit, detail: str = ""):
        self.budget_name = budget_name
        self.limit = limit
        msg = f"budget '{budget_name}' exceeded (limit {limit})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InternalError(RuntimeError):
    """An algorithmic invariant failed; indicates a bug in this package."""


class InfeasibleError(RuntimeError):
    """A solve was asked for an instance that has no solution at all.

    Raised only where "no solution" is not representable in the result type
    (e.g. a scheduling instance in which some job fits on no machine).
    """
