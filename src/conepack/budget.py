"""One work budget per request.

Every simplex pivot, every group state that ``solver._group_bound``
settles and every branch-and-bound node run inside ``limit(units)``,
across all the LPs, groups and integer programs of the request, spends
one unit.  Outside any limit only the per-call caps of ``exactmath``,
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


@contextmanager
def _spending(units: int):
    token = _OPEN.set([units, 0, 0])  # units, pivots spent, nodes spent
    try:
        yield
    finally:
        _OPEN.reset(token)


def charge(node: bool = False) -> None:
    """Spend one unit of the open limit: a node if ``node``, else a pivot
    or a group state."""
    spent = _OPEN.get()
    if spent is None:
        return
    spent[2 if node else 1] += 1
    units, pivots, nodes = spent
    if pivots + nodes > units:
        raise ResourceError("request work budget", units,
                            f"{pivots} pivots, {nodes} nodes")
