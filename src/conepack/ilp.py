"""Integer feasibility for small fixed-dimension systems ``Ax <= b``.

The solver is depth-first branch-and-bound over exact rational LP
relaxations: each node repairs feasibility of a warm-started simplex
tableau after a bound change, an integral relaxation point (or a
successful rounding of a fractional one) ends the search, and otherwise
the most fractional coordinate is split.  Every answer is exact; a node
cap per call and the request's ``budget.limit``, charged once per node,
turn pathological instances into a resource error, not a wrong result.

Variable bounds the problem leaves missing are derived first, one side at
a time, on one tableau of their own.  The branch and bound starts from a
fresh tableau under the derived bounds: its root vertex, and so the
witness, must not depend on the basis the derivation ended in.

The node tableau keeps the infeasibility proof of every node it finds
empty (``ExactLp``), and a later node whose bounds a stored proof still
refutes is pruned without a pivot.  Such a node is still counted and
charged as a node.  A pruned node leaves the tableau as it was, and the
next node starts from a ``restore``, so the nodes visited and the witness
are the ones a plain phase 1 would give.  The derivation stops at its
first empty verdict, so its proofs never answer anything.

``lll_basis`` computes an LLL-reduced unimodular basis of the coordinate
lattice under the metric ``A^T A + I``; the solver does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .budget import charge
from .errors import InputError, InternalError, ResourceError
from .exactmath import ExactLp, UNBOUNDED
from .rational import Rat, ZERO, ONE, rat_floor, rat_ceil, as_int

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class IlpProblem:
    """``{x in Z^n : rows * x <= rhs, lo <= x <= hi}`` with integer data.

    ``lo``/``hi`` entries may be None (unknown); equalities are encoded as
    paired inequalities by the caller.
    """

    rows: tuple
    rhs: tuple
    n: int
    lo: tuple = None
    hi: tuple = None

    @classmethod
    def build(cls, rows: Sequence[Sequence[int]], rhs: Sequence[int],
              lo: Optional[Sequence] = None,
              hi: Optional[Sequence] = None) -> "IlpProblem":
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        rhs = tuple(int(v) for v in rhs)
        if len(rows) != len(rhs):
            raise InputError(f"{len(rows)} rows but {len(rhs)} bounds")
        if not rows:
            raise InputError("a problem needs at least one constraint row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InputError("ragged constraint matrix")
        if n < 1:
            raise InputError("at least one variable required")

        def norm(bounds):
            if bounds is None:
                return tuple([None] * n)
            out = tuple(None if v is None else int(v) for v in bounds)
            if len(out) != n:
                raise InputError("bound vector length mismatch")
            return out

        return cls(rows, rhs, n, norm(lo), norm(hi))


@dataclass(frozen=True)
class IlpResult:
    feasible: bool
    witness: Optional[tuple]
    nodes: int


def _satisfies(problem: IlpProblem, x: Sequence[int]) -> bool:
    for row, b in zip(problem.rows, problem.rhs):
        if sum(c * v for c, v in zip(row, x)) > b:
            return False
    for v, lo in zip(x, problem.lo):
        if lo is not None and v < lo:
            return False
    for v, hi in zip(x, problem.hi):
        if hi is not None and v > hi:
            return False
    return True


def _derive_bounds(problem: IlpProblem):
    """Fill missing variable bounds from the LP relaxation, exactly.

    Returns (lo, hi) integer lists, None when the relaxation is empty, or
    raises InputError when some variable is unbounded.  The bounds are
    derived one side at a time on one tableau, each rounded bound
    tightening it in place before the next side is optimized.  Phase 1 runs
    again before each optimization, so None comes back exactly when some
    side's relaxation, under the bounds derived before it, is empty.
    """
    lo = list(problem.lo)
    hi = list(problem.hi)
    lp = None
    for j in range(problem.n):
        for side, sense in ((0, "min"), (1, "max")):
            if (lo[j] if side == 0 else hi[j]) is not None:
                continue
            if lp is None:
                lp = ExactLp(problem.rows, problem.rhs, lo=lo, hi=hi)
            if not lp.find_feasible():
                return None
            c = [0] * problem.n
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


def ilp_feasible(problem: IlpProblem) -> IlpResult:
    """Find an integer point of the system or certify there is none."""
    derived = _derive_bounds(problem)
    if derived is None:
        return IlpResult(False, None, 0)
    lo, hi = derived
    if any(a > b for a, b in zip(lo, hi)):
        return IlpResult(False, None, 0)

    lp = ExactLp(problem.rows, problem.rhs, lo=lo, hi=hi)
    nodes = 0
    witness = None
    # explicit depth-first stack; "restore" entries rewind the warm-started
    # tableau to the state a node saw before its sibling's bound change
    stack = [("node", tuple(lo), tuple(hi), None)]
    while stack:
        entry = stack.pop()
        if entry[0] == "restore":
            lp.restore(entry[1])
            continue
        _kind, lo_cur, hi_cur, bound = entry
        if bound is not None:
            j, a, b = bound
            lp.set_var_bounds(j, a, b)
        nodes += 1
        if nodes > DEFAULT_NODE_BUDGET:
            raise ResourceError("ilp node budget", DEFAULT_NODE_BUDGET)
        charge(node=True)
        if not lp.find_feasible():
            continue
        x = lp.values()
        fracs = [v - rat_floor(v) for v in x]
        if all(f == 0 for f in fracs):
            witness = tuple(as_int(v) for v in x)
            break
        # cheap rounding attempt before branching
        rounded = []
        for v, a, b in zip(x, lo_cur, hi_cur):
            r = rat_floor(v) if (v - rat_floor(v)) < Rat(1, 2) else rat_ceil(v)
            rounded.append(min(max(r, a), b))
        if _satisfies(problem, rounded):
            witness = tuple(rounded)
            break
        # branch on the fractional coordinate with the tightest domain
        # (indicator-style variables first), most fractional on ties
        best_j, best_score = None, None
        for j, f in enumerate(fracs):
            if f == 0:
                continue
            score = (hi_cur[j] - lo_cur[j], -min(f, 1 - f), j)
            if best_score is None or score < best_score:
                best_j, best_score = j, score
        j = best_j
        split = rat_floor(x[j])
        snap = lp.snapshot()
        # floor child explored first: push it last
        if split + 1 <= hi_cur[j]:
            stack.append(("restore", snap))
            stack.append(("node", _replace(lo_cur, j, split + 1), hi_cur,
                          (j, split + 1, hi_cur[j])))
        if split >= lo_cur[j]:
            stack.append(("restore", snap))
            stack.append(("node", lo_cur, _replace(hi_cur, j, split),
                          (j, lo_cur[j], split)))
    if witness is None:
        return IlpResult(False, None, nodes)
    if not _satisfies(problem, witness):
        raise InternalError("witness fails exact constraint check")
    return IlpResult(True, tuple(int(v) for v in witness), nodes)


def _replace(tup, j, v):
    out = list(tup)
    out[j] = v
    return tuple(out)


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
    """Unimodular basis of Z^n, LLL-reduced under the metric A^T A + I."""
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
