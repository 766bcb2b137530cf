"""One work budget per request.

Every simplex pivot, every group state that ``solver._group_bound``
settles and every branch-and-bound node run inside ``limit(units)``,
across all the LPs, groups and integer programs of the request, spends
one unit of every open limit, so a nested limit never lifts the one
around it.  Outside any limit only the per-call caps of ``exactmath``,
``ilp`` and ``solver`` hold.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import InputError, ResourceError
from .rational import integer

_OPEN: ContextVar = ContextVar("conepack_budget", default=None)


def limit(units: int):
    """A context that raises ``ResourceError`` once its block spends more
    than ``units``.  ``units`` is read through ``rational.integer`` when
    ``limit`` is called: ``InputError`` unless it is a non-negative
    integer."""
    units = integer(units, "work budget")
    if units < 0:
        raise InputError(f"work budget {units} must be non-negative")
    return _spending(units)


class _Spent(list):
    """``[units, pivots spent, nodes spent]`` of one open limit; ``outer``
    is the limit it is nested in, or None."""


@contextmanager
def _spending(units: int):
    spent = _Spent([units, 0, 0])
    spent.outer = _OPEN.get()
    token = _OPEN.set(spent)
    try:
        yield
    finally:
        _OPEN.reset(token)


def charge(node: bool = False) -> None:
    """Spend one unit of every open limit, innermost first: a node if
    ``node``, else a pivot or a group state.  The first limit overspent
    raises, which ends the request."""
    spent = _OPEN.get()
    while spent is not None:
        spent[2 if node else 1] += 1
        units, pivots, nodes = spent
        if pivots + nodes > units:
            raise ResourceError("request work budget", units,
                                f"{pivots} pivots, {nodes} nodes")
        spent = spent.outer
