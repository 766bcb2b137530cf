"""Integer feasibility for small fixed-dimension systems ``Ax <= b``.

A program is its rows: ``ilp_feasible(rows, rhs, lo, hi)`` reads the
coefficients and right-hand sides once through ``rational.integer_rows``,
which checks their shape, and leaves the bound checks to the ``ExactLp``
built from them.

The solver is depth-first branch-and-bound over exact rational LP
relaxations: each node repairs feasibility of a warm-started simplex
tableau after a bound change, an integral relaxation point (or a
successful rounding of a fractional one) ends the search, and otherwise
the fractional coordinate with the tightest domain is split.  Every
answer is exact; a node cap per call and the request's ``budget.limit``,
charged once per node, turn pathological instances into a resource
error, not a wrong result.

Variable bounds the problem leaves missing are derived first, one side at
a time, on one tableau of their own.  The branch and bound starts from a
fresh tableau under the derived bounds: its root vertex, and so the
witness, must not depend on the basis the derivation ended in.

The node tableau is the only holder of a node's bounds, and each stack
entry is ``(parent snapshot or None, bound change)``.  Branching on
``x_j`` pushes the ceil child ``x_j >= split + 1`` with a snapshot of the
node's tableau, then the floor child ``x_j <= split`` without one.  Both
children exist, because the relaxation point lies within the node's
integer bounds.  The floor child is popped next, so it starts from its
parent's tableau as the parent left it and needs no restore; the ceil
child is popped only after the floor child's subtree and restores its
parent first.  A branching costs one snapshot and at most one restore.

The node tableau keeps the infeasibility proof of every node it finds
empty (``ExactLp``), and a later node whose bounds a stored proof still
refutes is pruned without a pivot.  Such a node is still counted and
charged as a node.  A pruned node leaves the tableau as it was, and the
entry popped after any node that does not branch is a ceil child, which
restores its parent, so the nodes visited and the witness are the ones a
plain phase 1 would give.  The derivation stops at its first empty
verdict, so its proofs never answer anything.

``lll_basis`` computes an LLL-reduced unimodular basis of the coordinate
lattice under the metric ``A^T A + I``; the solver does not call it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .budget import charge
from .errors import InputError, InternalError, ResourceError
from .exactmath import ExactLp, UNBOUNDED
from .rational import (Rat, ZERO, ONE, rat_floor, rat_ceil, as_int,
                       integer, integer_rows, integers, sequence)

DEFAULT_NODE_BUDGET = 1_000_000


class IlpResult(NamedTuple):
    feasible: bool
    witness: Optional[tuple]
    nodes: int


def _satisfies(rows, rhs, lo, hi, x: Sequence[int]) -> bool:
    for row, b in zip(rows, rhs):
        if sum(c * v for c, v in zip(row, x)) > b:
            return False
    for v, low in zip(x, lo):
        if low is not None and v < low:
            return False
    for v, high in zip(x, hi):
        if high is not None and v > high:
            return False
    return True


def _derive_bounds(rows, rhs, lo, hi):
    """Fill missing variable bounds from the LP relaxation, exactly.

    Returns (lo, hi) lists, None when the relaxation is empty, or raises
    InputError when some variable is unbounded.  With no bound missing,
    ``lo`` and ``hi`` come back as given and no LP is built.  Otherwise the
    bounds are derived one side at a time on one tableau, each rounded
    bound tightening it in place before the next side is optimized.  Phase
    1 runs again before each optimization, so None comes back exactly when
    some side's relaxation, under the bounds derived before it, is empty.
    """
    if None not in lo and None not in hi:
        return lo, hi
    lo, hi = list(lo), list(hi)
    lp = ExactLp(rows, rhs, lo=lo, hi=hi)
    for j in range(lp.n):
        for side, sense in ((0, "min"), (1, "max")):
            if (lo[j] if side == 0 else hi[j]) is not None:
                continue
            if not lp.find_feasible():
                return None
            c = [0] * lp.n
            c[j] = 1
            status, value = lp.optimize(c, sense)
            if status == UNBOUNDED:
                raise InputError(
                    f"variable {j} is unbounded; supply explicit bounds")
            if side == 0:
                lo[j] = rat_ceil(value)
            else:
                hi[j] = rat_floor(value)
            lp.set_var_bounds(j, lo[j], hi[j])
    return lo, hi


def ilp_feasible(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                 lo: Optional[Sequence] = None,
                 hi: Optional[Sequence] = None) -> IlpResult:
    """Find an integer point of ``{x in Z^n : rows x <= rhs, lo <= x <= hi}``
    or certify there is none.

    Equalities are paired inequalities, and a ``lo``/``hi`` entry may be
    None (unknown; derived from the relaxation).  The coefficients and
    right-hand sides are read once through ``rational.integer_rows``,
    which refuses ragged rows and a right-hand side count that is not the
    rows'; an empty program or one without variables is an ``InputError``.
    A bound per variable and the bounds' integrality are checked by the
    first ``ExactLp`` built from it, before any answer.
    """
    rows, rhs = integer_rows(rows, rhs)
    if not rows:
        raise InputError("a problem needs at least one constraint row")
    n = len(rows[0])
    if n < 1:
        raise InputError("at least one variable required")
    given = [[None] * n if b is None else sequence(b, "variable bound")
             for b in (lo, hi)]
    derived = _derive_bounds(rows, rhs, *given)
    if derived is None:
        return IlpResult(False, None, 0)
    lp = ExactLp(rows, rhs, lo=derived[0], hi=derived[1])
    if any(a > b for a, b in zip(*derived)):
        return IlpResult(False, None, 0)

    nodes = 0
    witness = None
    # depth-first stack of (parent snapshot or None, bound change)
    stack = [(None, None)]
    while stack:
        snap, bound = stack.pop()
        if snap is not None:
            lp.restore(snap)
        if bound is not None:
            lp.set_var_bounds(*bound)
        nodes += 1
        if nodes > DEFAULT_NODE_BUDGET:
            raise ResourceError("ilp node budget", DEFAULT_NODE_BUDGET)
        charge(node=True)
        if not lp.find_feasible():
            continue
        # the relaxation point x_j = n / d as floors n // d and remainders
        point = lp.point()
        floors = [n // d for n, d in point]
        rems = [n % d for n, d in point]
        if not any(rems):
            witness = tuple(floors)
            break
        # cheap rounding attempt before branching, halves rounded up; x lies
        # in the node's integer bounds, so the rounded point does too
        rounded = [f + (2 * r >= d)
                   for f, r, (_n, d) in zip(floors, rems, point)]
        if _satisfies(rows, rhs, *given, rounded):
            witness = tuple(rounded)
            break
        # branch on the fractional coordinate with the tightest domain
        # (indicator-style variables first), most fractional on ties
        lo, hi = lp.lo, lp.hi
        _, _, j = min((hi[j] - lo[j], Rat(-min(r, d - r), d), j)
                      for j, (r, (_n, d)) in enumerate(zip(rems, point)) if r)
        split = floors[j]
        # floor child explored first, on this node's tableau: push it last
        stack.append((lp.snapshot(), (j, split + 1, hi[j])))
        stack.append((None, (j, lo[j], split)))
    if witness is None:
        return IlpResult(False, None, nodes)
    if not _satisfies(rows, rhs, *given, witness):
        raise InternalError("witness fails exact constraint check")
    return IlpResult(True, witness, nodes)


# ---------------------------------------------------------------------------
# lattice basis reduction


def _metric_dot(M, u, v):
    acc = ZERO
    n = len(u)
    for i in range(n):
        if u[i] == 0:
            continue
        row = M[i]
        s = ZERO
        for j in range(n):
            if v[j] != 0:
                s += row[j] * v[j]
        acc += u[i] * s
    return acc


def lll_basis(rows: Sequence[Sequence[int]], n: int) -> list:
    """Unimodular basis of Z^n, LLL-reduced under the metric A^T A + I.

    ``n`` and every entry are read through ``rational.integer``; a
    negative ``n`` or a row without ``n`` entries raises ``InputError``.
    """
    n = integer(n, "dimension")
    if n < 0:
        raise InputError(f"dimension {n} is negative")
    rows = [integers(row, "row entry") for row in sequence(rows, "row entry")]
    for row in rows:
        if len(row) != n:
            raise InputError(f"row {row} has {len(row)} entries, not {n}")
    M = [[sum(row[i] * row[j] for row in rows) + (1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    basis = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    delta = Rat(3, 4)

    def gram():
        # exact Gram-Schmidt norms and mu coefficients under M
        star = []
        mu = [[ZERO] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = list(basis[i])
            for j in range(i):
                mu[i][j] = _metric_dot(M, basis[i], star[j]) / norms[j]
                v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
            star.append(v)
            norms.append(_metric_dot(M, v, v))
        return mu, norms

    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10_000:
            raise InternalError("basis reduction failed to terminate")
        mu, norms = gram()
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = rat_floor(q + Rat(1, 2))
            if r != 0:
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                mu, norms = gram()
        if norms[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(k - 1, 1)
    return [[as_int(v) for v in row] for row in basis]
