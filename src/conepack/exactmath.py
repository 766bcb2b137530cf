"""Exact rational linear algebra and linear programming.

Everything here computes over exact rationals (``rational.Rat``); there are
no tolerances anywhere.  The two public entry points are

* ``solve_linear_system`` -- Gaussian elimination returning either the
  unique solution or ``singular`` (covers rank deficiency *and*
  inconsistency, i.e. "no unique solution exists"),
* ``lp_optimize`` / ``lp_feasible_point`` -- a two-phase primal simplex on
  the bounded-variable model ``A x (<=|==) b``, ``lo <= x <= hi`` with
  Bland's rule for the entering variable and lowest-index tie-breaking for
  the leaving variable, which makes every answer deterministic and the
  method provably terminating.

The underlying ``ExactLp`` class is exposed for the branch-and-bound solver:
it supports in-place variable bound changes with warm restarts (the basis is
kept and repaired by the phase-1 routine) and cheap snapshot/restore, which
is what makes exact branch and bound affordable.  Its tableau holds no
rationals: each row is a list of Python ints over one positive int
denominator, updated by integer-preserving (Edmonds/Bareiss) elimination
on the non-zero entries of the pivot row only, with every division exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import InputError, InternalError, ResourceError
from .rational import Rat, ZERO, dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

UNIQUE = "unique"
SINGULAR = "singular"

DEFAULT_PIVOT_BUDGET = 500_000

_BASIC = 0
_AT_LO = 1
_AT_UP = 2
_FREE = 3


@dataclass(frozen=True)
class LinearSolveResult:
    status: str  # 'unique' | 'singular'
    solution: Optional[tuple] = None


@dataclass(frozen=True)
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    value: Optional[Rat] = None
    vertex: Optional[tuple] = None


def solve_linear_system(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolveResult:
    """Solve ``M x = rhs`` exactly.

    Returns ``unique`` with the solution when the system is consistent and
    has full column rank; ``singular`` otherwise (underdetermined square
    systems and inconsistent overdetermined systems both land here).
    """
    m = len(matrix)
    if m != len(rhs):
        raise InputError(f"system has {m} rows but rhs has {len(rhs)} entries")
    n = len(matrix[0]) if m else 0
    rows = [[Rat(v) for v in row] + [Rat(rhs[i])] for i, row in enumerate(matrix)]
    for row in rows:
        if len(row) != n + 1:
            raise InputError("ragged matrix")

    rank = 0
    pivot_cols = []
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        if inv != 1:
            rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                prow = rows[rank]
                rows[r] = [v - f * p for v, p in zip(rows[r], prow)]
        pivot_cols.append(col)
        rank += 1

    for r in range(rank, m):
        if rows[r][n] != 0:
            return LinearSolveResult(SINGULAR)
    if rank < n:
        return LinearSolveResult(SINGULAR)
    sol = [ZERO] * n
    for r, col in enumerate(pivot_cols):
        sol[col] = rows[r][n]
    return LinearSolveResult(UNIQUE, tuple(sol))


def _integer_row(values):
    """``values`` (``Rat``) as ``(ints, den)``: plain ints over the lcm of
    their denominators, which leaves the row in lowest terms."""
    dens = [int(v.denominator) for v in values]
    d = lcm(*dens)
    return [int(v.numerator) * (d // q) for v, q in zip(values, dens)], d


def _eliminate(tgt: list, d: int, f: int, piv: int, nz: list):
    """Clear entry ``f`` of the integer row ``tgt / d`` against a pivot row.

    The pivot row is ``row / piv`` with ``row[col] == piv > 0``; ``nz``
    lists its non-zero ``(column, entry)`` pairs and ``f`` is
    ``tgt[col]``.  Returns the new ``(row, den)``: ``tgt * p - f' * row``
    over ``d * p``, where ``f' / p`` is ``f / piv`` in lowest terms, then
    divided by the gcd of its entries and denominator.  Every division is
    exact, so the rational entries are those Gauss-Jordan would give.
    ``tgt`` itself may be updated in place.
    """
    g = gcd(f, piv)
    p = piv // g
    f //= g
    if p != 1:
        tgt = [a * p for a in tgt]
        d *= p
    for j, a in nz:
        tgt[j] -= f * a
    g = gcd(d, *tgt)
    if g != 1:
        tgt = [a // g for a in tgt]
        d //= g
    return tgt, d


class ExactLp:
    """Bounded-variable exact simplex working set.

    Model: ``A x + s = b`` where each row's slack ``s_i`` has bounds
    ``[0, +inf)`` for a ``<=`` row and ``[0, 0]`` for a ``==`` row.
    Structural variables carry arbitrary (possibly absent) bounds.

    The tableau ``B^-1 [A | I]`` is held as integer rows: entry ``(i, j)``
    is ``tab[i][j] / den[i]`` with ``den[i] > 0`` and the row divided by
    the gcd of its entries and ``den[i]``.  A pivot touches only the rows
    with a non-zero entry in the pivot column, and subtracts only on the
    pivot row's non-zero columns.  The basic values ``xb``, the nonbasic
    values ``val`` and the bounds stay rationals.  The rational tableau is
    the one a ``Rat`` Gauss-Jordan pivot would hold, so Bland's rule makes
    the same choices either way.

    The object is mutable: variable bounds may be tightened or restored
    between solves and the simplex restarts from the current basis, which
    is the cheap path exercised by branch and bound.
    """

    def __init__(self, rows, rhs, senses=None, lo=None, hi=None):
        m = len(rows)
        n = len(rows[0]) if m else 0
        for row in rows:
            if len(row) != n:
                raise InputError("ragged constraint matrix")
        if len(rhs) != m:
            raise InputError(f"{m} rows but {len(rhs)} right-hand sides")
        if senses is None:
            senses = ["<="] * m
        if len(senses) != m:
            raise InputError("senses length mismatch")
        for name, bound in (("lo", lo), ("hi", hi)):
            if bound is not None and len(bound) != n:
                raise InputError(
                    f"{n} variables but {len(bound)} {name} bounds")
        self.m = m
        self.n = n
        self.ncols = n + m
        self.pivots_used = 0
        self.lo: list = [None] * self.ncols
        self.hi: list = [None] * self.ncols
        if lo is not None:
            for j, v in enumerate(lo):
                self.lo[j] = None if v is None else Rat(v)
        if hi is not None:
            for j, v in enumerate(hi):
                self.hi[j] = None if v is None else Rat(v)
        for i, sense in enumerate(senses):
            if sense == "<=":
                self.lo[n + i], self.hi[n + i] = ZERO, None
            elif sense == "==":
                self.lo[n + i], self.hi[n + i] = ZERO, ZERO
            else:
                raise InputError(f"unsupported row sense {sense!r} (use '<=' or '==')")
        self.state = [0] * self.ncols
        self.val = [ZERO] * self.ncols  # meaningful for nonbasic vars
        for j in range(n):
            if self.lo[j] is not None:
                self.state[j], self.val[j] = _AT_LO, self.lo[j]
            elif self.hi[j] is not None:
                self.state[j], self.val[j] = _AT_UP, self.hi[j]
            else:
                self.state[j], self.val[j] = _FREE, ZERO
        self.basis = list(range(n, n + m))
        for i in range(m):
            self.state[n + i] = _BASIC
        # integer tableau rows [A_i * den_i | den_i e_i] over den_i
        self.tab = []
        self.den = []
        self.xb = []
        moved = [(j, v) for j, v in enumerate(self.val[:n]) if v != 0]
        for i in range(m):
            row = [Rat(v) for v in rows[i]]
            acc = Rat(rhs[i])
            for j, vj in moved:
                if row[j] != 0:
                    acc -= row[j] * vj
            self.xb.append(acc)
            irow, d = _integer_row(row)
            irow += [0] * m
            irow[n + i] = d
            self.tab.append(irow)
            self.den.append(d)

    # -- bookkeeping ----------------------------------------------------

    def snapshot(self):
        return (
            [row[:] for row in self.tab],
            self.den[:],
            self.basis[:],
            self.state[:],
            self.val[:],
            self.xb[:],
            self.lo[:],
            self.hi[:],
        )

    def restore(self, snap) -> None:
        tab, den, basis, state, val, xb, lo, hi = snap
        self.tab = [row[:] for row in tab]
        self.den = den[:]
        self.basis = basis[:]
        self.state = state[:]
        self.val = val[:]
        self.xb = xb[:]
        self.lo = lo[:]
        self.hi = hi[:]

    def set_var_bounds(self, j: int, lo, hi) -> None:
        """Replace the bounds of structural variable ``j`` in place."""
        if not 0 <= j < self.n:
            raise InputError(f"variable index {j} out of range")
        self.lo[j] = None if lo is None else Rat(lo)
        self.hi[j] = None if hi is None else Rat(hi)
        if self.state[j] == _BASIC:
            return  # phase 1 repairs any violation on the next solve
        old = self.val[j]
        if self.lo[j] is not None and (self.state[j] == _AT_LO or self.hi[j] is None):
            new_state, new_val = _AT_LO, self.lo[j]
        elif self.hi[j] is not None:
            new_state, new_val = _AT_UP, self.hi[j]
        elif self.lo[j] is not None:
            new_state, new_val = _AT_LO, self.lo[j]
        else:
            new_state, new_val = _FREE, ZERO
        if new_val != old:
            delta = new_val - old
            for i in range(self.m):
                coef = self.tab[i][j]
                if coef != 0:
                    self.xb[i] -= delta * coef / self.den[i]
        self.state[j], self.val[j] = new_state, new_val

    def values(self) -> tuple:
        """Current values of the structural variables."""
        out = [ZERO] * self.n
        for j in range(self.n):
            if self.state[j] != _BASIC:
                out[j] = self.val[j]
        for i, b in enumerate(self.basis):
            if b < self.n:
                out[b] = self.xb[i]
        return tuple(out)

    def _charge_pivot(self) -> None:
        self.pivots_used += 1
        if self.pivots_used > DEFAULT_PIVOT_BUDGET:
            raise ResourceError("simplex pivot budget", DEFAULT_PIVOT_BUDGET)

    def _pivot(self, r: int, col: int) -> None:
        """Make column ``col`` basic in row ``r`` (the objective row too)."""
        self._charge_pivot()
        tab, den = self.tab, self.den
        row = tab[r]
        piv = row[col]
        if piv == 0:
            raise InternalError("pivot on zero element")
        if piv < 0:
            row = [-a for a in row]
            piv = -piv
        g = gcd(*row)
        if g != 1:
            row = [a // g for a in row]
            piv //= g
        tab[r] = row
        den[r] = piv
        nz = [(j, a) for j, a in enumerate(row) if a]
        for i in range(self.m):
            if i != r:
                f = tab[i][col]
                if f:
                    tab[i], den[i] = _eliminate(tab[i], den[i], f, piv, nz)
        z = self._zrow
        if z is not None and z[col]:
            self._zrow, self._zden = _eliminate(z, self._zden, z[col], piv, nz)

    # -- ratio test -----------------------------------------------------

    def _step(self, j: int, direction: int, phase1: bool):
        """Move nonbasic ``j`` in ``direction``; returns False on unbounded ray.

        Chooses the exact blocking step, performs either a bound flip or a
        pivot.  In phase 1, a basic variable that is currently outside its
        box is blocked at the *near* bound it is approaching (at which point
        it turns feasible); feasible basics are blocked at whichever of
        their bounds they would exit through.
        """
        own_t = None
        if direction > 0:
            if self.hi[j] is not None:
                own_t = self.hi[j] - self.val[j]
        else:
            if self.lo[j] is not None:
                own_t = self.val[j] - self.lo[j]

        # per unit step of ``j`` in ``direction``, basic ``i`` moves by
        # ``rate / den[i]``, where ``rate`` is an integer
        best_t = None
        block_rows = []
        for i in range(self.m):
            coef = self.tab[i][j]
            if coef == 0:
                continue
            rate = -coef if direction > 0 else coef
            b = self.basis[i]
            xb = self.xb[i]
            lo_b, hi_b = self.lo[b], self.hi[b]
            t_i = None
            if phase1 and lo_b is not None and xb < lo_b:
                if rate > 0:
                    t_i = (lo_b - xb) * self.den[i] / rate
            elif phase1 and hi_b is not None and xb > hi_b:
                if rate < 0:
                    t_i = (xb - hi_b) * self.den[i] / (-rate)
            else:
                if rate > 0:
                    if hi_b is not None:
                        t_i = (hi_b - xb) * self.den[i] / rate
                else:
                    if lo_b is not None:
                        t_i = (xb - lo_b) * self.den[i] / (-rate)
            if t_i is None:
                continue
            if best_t is None or t_i < best_t:
                best_t = t_i
                block_rows = [i]
            elif t_i == best_t:
                block_rows.append(i)

        if best_t is None and own_t is None:
            return False  # unbounded ray

        flip = own_t is not None and (best_t is None or own_t <= best_t)
        t = own_t if flip else best_t
        if t != 0:
            for i in range(self.m):
                coef = self.tab[i][j]
                if coef != 0:
                    rate = -coef if direction > 0 else coef
                    self.xb[i] += t * rate / self.den[i]
            self.val[j] = self.val[j] + t if direction > 0 else self.val[j] - t

        if flip:
            self.state[j] = _AT_UP if direction > 0 else _AT_LO
            return True

        # pivot: leaving row with lowest basic-variable index among blockers
        r = min(block_rows, key=lambda i: self.basis[i])
        leave = self.basis[r]
        if self.lo[leave] is not None and self.xb[r] == self.lo[leave]:
            self.state[leave] = _AT_LO
        elif self.hi[leave] is not None and self.xb[r] == self.hi[leave]:
            self.state[leave] = _AT_UP
        else:
            raise InternalError("leaving variable did not stop on a bound")
        self.val[leave] = self.xb[r]
        entering_value = self.val[j]
        self._pivot(r, j)
        self.basis[r] = j
        self.state[j] = _BASIC
        self.xb[r] = entering_value
        return True

    # -- phase 1 ---------------------------------------------------------

    def _infeasible_rows(self):
        bad = []
        for i in range(self.m):
            b = self.basis[i]
            if self.lo[b] is not None and self.xb[i] < self.lo[b]:
                bad.append((i, -1))
            elif self.hi[b] is not None and self.xb[i] > self.hi[b]:
                bad.append((i, 1))
        return bad

    def find_feasible(self) -> bool:
        """Phase 1: repair the current basis to primal feasibility.

        Returns True when a feasible point is reached, False when the
        constraints admit none.  Deterministic (Bland's rule).
        """
        for j in range(self.n):
            lo, hi = self.lo[j], self.hi[j]
            if lo is not None and hi is not None and lo > hi:
                return False
        self._zrow = None
        while True:
            bad = self._infeasible_rows()
            if not bad:
                return True
            # phase-1 reduced cost for nonbasic j:
            #   d_j = sum(tab[i][j] / den[i] for rows below lo)
            #       - sum(tab[i][j] / den[i] for rows above hi)
            # only its sign is read, so it is taken times the lcm of those
            # den[i], which keeps it an integer
            common = lcm(*(self.den[i] for i, _side in bad))
            weighted = [(self.tab[i], -side * (common // self.den[i]))
                        for i, side in bad]
            enter = -1
            direction = 0
            for j in range(self.ncols):
                st = self.state[j]
                if st == _BASIC:
                    continue
                if self.lo[j] is not None and self.lo[j] == self.hi[j]:
                    continue  # fixed variable, no freedom
                d = 0
                for row, w in weighted:
                    coef = row[j]
                    if coef:
                        d += w * coef
                if d == 0:
                    continue
                if st == _AT_LO and d < 0:
                    enter, direction = j, 1
                elif st == _AT_UP and d > 0:
                    enter, direction = j, -1
                elif st == _FREE:
                    enter, direction = j, (1 if d < 0 else -1)
                if enter >= 0:
                    break
            if enter < 0:
                return False
            if not self._step(enter, direction, phase1=True):
                raise InternalError("phase 1 found an unbounded improving ray")

    # -- phase 2 ---------------------------------------------------------

    def optimize(self, objective, sense: str = "max"):
        """Optimize ``objective`` (structural costs) from a feasible basis.

        Returns ``(status, value)`` where status is 'optimal' or 'unbounded'.
        Call ``values()`` afterwards for the optimal point.
        """
        if sense not in ("max", "min"):
            raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
        cost = [Rat(c) for c in objective]
        if len(cost) != self.n:
            raise InputError("objective length mismatch")
        if sense == "max":
            cost = [-c for c in cost]
        if self._infeasible_rows():
            raise InternalError("optimize() requires a primal-feasible basis")
        # reduced-cost row, held like a tableau row: z[j] / zden
        z, zden = _integer_row(cost)
        z += [0] * self.m
        for i in range(self.m):
            cb = z[self.basis[i]]
            if cb:
                row = self.tab[i]
                nz = [(j, a) for j, a in enumerate(row) if a]
                z, zden = _eliminate(z, zden, cb, self.den[i], nz)
        self._zrow, self._zden = z, zden
        while True:
            z = self._zrow  # only the signs of the reduced costs are read
            enter = -1
            direction = 0
            for j in range(self.ncols):
                st = self.state[j]
                if st == _BASIC:
                    continue
                if self.lo[j] is not None and self.lo[j] == self.hi[j]:
                    continue  # fixed variable, no freedom
                rc = z[j]
                if st == _AT_LO and rc < 0:
                    enter, direction = j, 1
                elif st == _AT_UP and rc > 0:
                    enter, direction = j, -1
                elif st == _FREE and rc != 0:
                    enter, direction = j, (1 if rc < 0 else -1)
                if enter >= 0:
                    break
            if enter < 0:
                break
            if not self._step(enter, direction, phase1=False):
                self._zrow = None
                return UNBOUNDED, None
        self._zrow = None
        vals = self.values()
        value = dot([Rat(c) for c in objective], vals)
        return OPTIMAL, value

    _zrow = None


def lp_optimize(rows, rhs, objective, sense: str = "max",
                senses=None, lo=None, hi=None) -> LpResult:
    """Exact LP solve: optimize ``objective`` over ``rows . x (<=|==) rhs``.

    Variables are free unless ``lo``/``hi`` are given.  Returns an
    ``LpResult`` whose ``vertex`` is an exact basic optimal solution.
    """
    lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    if not lp.find_feasible():
        return LpResult(INFEASIBLE)
    status, value = lp.optimize(objective, sense)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    return LpResult(OPTIMAL, value=value, vertex=lp.values())


def lp_feasible_point(rows, rhs, senses=None, lo=None, hi=None) -> Optional[tuple]:
    """Exact feasibility check; returns a feasible point or None."""
    lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    if not lp.find_feasible():
        return None
    return lp.values()
