"""One work budget per request.

Every simplex pivot and every branch-and-bound node run inside
``limit(units)``, across all the LPs and integer programs of the request,
spends one unit.  Outside any limit only the per-call caps of ``exactmath``
and ``ilp`` hold.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ResourceError

_OPEN: ContextVar = ContextVar("conepack_budget", default=None)


@contextmanager
def limit(units: int):
    """Raise ``ResourceError`` once the block spends more than ``units``."""
    token = _OPEN.set([units, 0, 0])  # units, pivots spent, nodes spent
    try:
        yield
    finally:
        _OPEN.reset(token)


def charge(node: bool = False) -> None:
    """Spend one unit of the open limit: a node if ``node``, else a pivot."""
    spent = _OPEN.get()
    if spent is None:
        return
    spent[2 if node else 1] += 1
    units, pivots, nodes = spent
    if pivots + nodes > units:
        raise ResourceError("request work budget", units,
                            f"{pivots} pivots, {nodes} nodes")
