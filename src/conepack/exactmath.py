"""Exact rational linear algebra and linear programming.

Everything here is exact; there are no tolerances anywhere.  Inputs and
answers are exact rationals (``rational.Rat``) or ints.  The two public
entry points are

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
is what makes exact branch and bound affordable.  It holds no rationals:
each constraint row is cleared together with its right-hand side into
plain ints, each tableau row is a list of Python ints over one positive
int denominator, updated by integer-preserving (Edmonds/Bareiss)
elimination on the non-zero entries of the pivot row only, with every
division exact.  Variable bounds are integers, so each basic value is an
int over its row's denominator, carried through the same elimination, and
the nonbasic values and bounds are ints; the ratio test and phase 1
compare ints by cross-multiplication.

An ``ExactLp`` also keeps the infeasibility proof of every phase 1 that
fails: the weighted sum of the violated tableau rows, an inequality
``phi . x <= c`` that every solution meets, although the least value of
``phi . x`` over that call's bounds exceeds ``c`` (a Farkas certificate
read off the phase-1 row).  The rows and right-hand sides never
change, only bounds do, so a proof stays valid for the object's life,
across ``snapshot``/``restore`` too.  Each later ``find_feasible`` first
tries the stored proofs on the current bounds and, when one still
refutes them, returns False with no pivot and the tableau untouched.  This
is conflict learning from infeasible LPs (Achterberg, *Conflict analysis
in mixed integer programming*, 2007), kept exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .budget import charge
from .errors import InputError, InternalError, ResourceError
from .rational import Rat, ZERO, integer

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
    """``values`` as ``(ints, den)``: plain ints over the lcm of their
    denominators, which leaves the row in lowest terms."""
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [Rat(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _bound(value):
    """A variable bound as an int (None stays None); an ``InputError``
    unless it is integral."""
    return None if value is None else integer(value, "variable bound")


def _eliminate(tgt: list, d: int, f: int, piv: int, nz: list, b: int, pb: int):
    """Clear entry ``f`` of the integer row ``tgt / d`` against a pivot row.

    The pivot row is ``row / piv`` with ``row[col] == piv > 0``; ``nz``
    lists its non-zero ``(column, entry)`` pairs and ``f`` is
    ``tgt[col]``.  ``b`` and ``pb`` are the two rows' constant terms,
    carried through the same elimination.  Returns the new ``(row, den,
    b)``: ``tgt * p - f' * row`` over ``d * p``, where ``f' / p`` is
    ``f / piv`` in lowest terms, then divided by the gcd of its entries
    and denominator.  Every division is exact, so the rational entries
    are those Gauss-Jordan would give.  ``tgt`` itself may be updated in
    place.
    """
    g = gcd(f, piv)
    p = piv // g
    f //= g
    if p != 1:
        tgt = [a * p for a in tgt]
        d *= p
        b *= p
    for j, a in nz:
        tgt[j] -= f * a
    b -= f * pb
    g = gcd(d, *tgt)
    if g != 1:
        tgt = [a // g for a in tgt]
        d //= g
        b //= g
    return tgt, d, b


class ExactLp:
    """Bounded-variable exact simplex working set.

    Model: ``A x + s = b`` where each row's slack ``s_i`` has bounds
    ``[0, +inf)`` for a ``<=`` row and ``[0, 0]`` for a ``==`` row.
    Structural variables carry integer (possibly absent) bounds.  A row
    with rationals is multiplied, right-hand side included, by the lcm of
    its denominators; its slack is scaled by the same positive factor,
    which keeps its bounds.

    Nothing here is a rational.  The tableau ``B^-1 [A | I]`` is held as
    integer rows: entry ``(i, j)`` is ``tab[i][j] / den[i]`` with
    ``den[i] > 0``, and every row starts at ``den[i] = 1``.  The basic
    variable of row ``i`` has the value ``bn[i] / den[i]``; nonbasic
    values ``val`` and bounds ``lo``/``hi`` are ints.  Each row is divided
    by the gcd of its entries and ``den[i]``.  That gcd divides ``bn[i]``
    too, because ``bn[i]`` is the row's slack entries times the integer
    right-hand sides and its nonbasic entries times their integer values.
    A pivot touches only the rows with a non-zero entry in the pivot
    column, and subtracts only on the pivot row's non-zero columns.  The
    rational tableau and values are the ones a ``Rat`` Gauss-Jordan pivot
    on the cleared rows would hold, so Bland's rule makes the same choices
    either way.  ``point`` is the one reader of the values, as int pairs;
    ``Rat`` is built only by ``values`` and by ``optimize``'s result.

    The object is mutable: variable bounds may be tightened or restored
    between solves and the simplex restarts from the current basis, which
    is the cheap path exercised by branch and bound and by the bound
    derivations.

    Each phase 1 that fails stores its proof (``_keep_proof``), and each
    ``find_feasible`` tries the stored proofs before it pivots
    (``_refuted``).  A proof is implied by the rows alone, so it holds
    under any later bounds, whatever basis or snapshot the object is in;
    it refutes them when its least value over them still exceeds its
    right-hand side.  A refuted call returns False and leaves the tableau,
    basis and values as they were.  The list is not capped: a proof is
    stored only when no stored one refutes the bounds, and no tableau of
    the benchmark catalogues keeps more than 11 (on ``sched-np``; at most
    1 elsewhere).

    ``DEFAULT_PIVOT_BUDGET`` caps the pivots of one object over all its
    solves, so a tableau shared by several questions shares one cap: all
    the LPs of one bound derivation, or all the nodes of one branch and
    bound.  Every pivot is also charged once to the request's
    ``budget.limit``.  Both count real pivots only; a refuted call spends
    neither.
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
        self._proofs = []  # (coefs, c) per failed phase 1; see _keep_proof
        self.lo: list = [_bound(v) for v in lo or [None] * n] + [0] * m
        self.hi: list = [_bound(v) for v in hi or [None] * n] + [None] * m
        for i, sense in enumerate(senses):
            if sense == "==":
                self.hi[n + i] = 0
            elif sense != "<=":
                raise InputError(f"unsupported row sense {sense!r} (use '<=' or '==')")
        self.state = [_BASIC] * self.ncols
        self.val = [0] * self.ncols  # meaningful for nonbasic vars
        for j in range(n):
            if self.lo[j] is not None:
                self.state[j], self.val[j] = _AT_LO, self.lo[j]
            elif self.hi[j] is not None:
                self.state[j], self.val[j] = _AT_UP, self.hi[j]
            else:
                self.state[j] = _FREE
        self.basis = list(range(n, n + m))
        # integer tableau rows [D_i A_i | e_i] over 1, where D_i clears the
        # row and its right-hand side, and the slack values D_i (b_i - A_i x)
        self.tab = []
        self.den = [1] * m
        self.bn = []
        moved = [(j, v) for j, v in enumerate(self.val[:n]) if v]
        for i in range(m):
            irow, _d = _integer_row([*rows[i], rhs[i]])
            b = irow.pop()
            for j, v in moved:
                b -= irow[j] * v
            irow += [0] * m
            irow[n + i] = 1
            self.tab.append(irow)
            self.bn.append(b)

    # -- bookkeeping ----------------------------------------------------

    def snapshot(self):
        return (
            [row[:] for row in self.tab],
            self.den[:],
            self.bn[:],
            self.basis[:],
            self.state[:],
            self.val[:],
            self.lo[:],
            self.hi[:],
        )

    def restore(self, snap) -> None:
        tab, den, bn, basis, state, val, lo, hi = snap
        self.tab = [row[:] for row in tab]
        self.den = den[:]
        self.bn = bn[:]
        self.basis = basis[:]
        self.state = state[:]
        self.val = val[:]
        self.lo = lo[:]
        self.hi = hi[:]

    def _shift(self, j: int, delta: int) -> None:
        """Move nonbasic ``j`` by ``delta``; the basics follow."""
        self.val[j] += delta
        bn = self.bn
        for i, row in enumerate(self.tab):
            coef = row[j]
            if coef:
                bn[i] -= delta * coef

    def set_var_bounds(self, j: int, lo, hi) -> None:
        """Replace the integer bounds of structural variable ``j`` in place."""
        if not 0 <= j < self.n:
            raise InputError(f"variable index {j} out of range")
        self.lo[j], self.hi[j] = _bound(lo), _bound(hi)
        if self.state[j] == _BASIC:
            return  # phase 1 repairs any violation on the next solve
        if self.lo[j] is not None and (self.state[j] == _AT_LO or self.hi[j] is None):
            new_state, new_val = _AT_LO, self.lo[j]
        elif self.hi[j] is not None:
            new_state, new_val = _AT_UP, self.hi[j]
        elif self.lo[j] is not None:
            new_state, new_val = _AT_LO, self.lo[j]
        else:
            new_state, new_val = _FREE, 0
        if new_val != self.val[j]:
            self._shift(j, new_val - self.val[j])
        self.state[j] = new_state

    def point(self) -> list:
        """Current values of the structural variables as ``(num, den)``
        int pairs with ``den > 0``, not necessarily in lowest terms."""
        out = [(v, 1) for v in self.val[:self.n]]
        for i, b in enumerate(self.basis):
            if b < self.n:
                out[b] = (self.bn[i], self.den[i])
        return out

    def values(self) -> tuple:
        """Current values of the structural variables."""
        return tuple(Rat(num, den) for num, den in self.point())

    def _charge_pivot(self) -> None:
        self.pivots_used += 1
        if self.pivots_used > DEFAULT_PIVOT_BUDGET:
            raise ResourceError("simplex pivot budget", DEFAULT_PIVOT_BUDGET)
        charge()

    def _pivot(self, r: int, col: int, bound: int) -> None:
        """Make column ``col`` basic in row ``r`` (the objective row too).

        The leaving variable becomes nonbasic at ``bound``.
        Each row's constant first takes in the entering variable's old
        value, so that it holds the terms of the nonbasics that stay; the
        elimination carries it with its row, and the leaving variable's
        term at ``bound`` then comes out of it.
        """
        self._charge_pivot()
        tab, den, bn = self.tab, self.den, self.bn
        entering = self.val[col]
        leave = self.basis[r]
        row = tab[r]
        piv = row[col]
        if piv == 0:
            raise InternalError("pivot on zero element")
        b = bn[r] + piv * entering
        if piv < 0:
            row = [-a for a in row]
            piv = -piv
            b = -b
        g = gcd(*row)
        if g != 1:
            row = [a // g for a in row]
            piv //= g
            b //= g
        tab[r] = row
        den[r] = piv
        bn[r] = b - row[leave] * bound
        nz = [(j, a) for j, a in enumerate(row) if a]
        for i in range(self.m):
            if i != r:
                f = tab[i][col]
                if f:
                    new, den[i], c = _eliminate(tab[i], den[i], f, piv, nz,
                                                bn[i] + f * entering, b)
                    tab[i] = new
                    bn[i] = c - new[leave] * bound
        z = self._zrow
        if z is not None and z[col]:
            self._zrow, self._zden, _ = _eliminate(z, self._zden, z[col], piv,
                                                   nz, 0, 0)

    # -- ratio test -----------------------------------------------------

    def _step(self, j: int, direction: int):
        """Move nonbasic ``j`` in ``direction``; returns False on unbounded ray.

        Chooses the exact blocking step, performs either a bound flip or a
        pivot.  A basic variable that is currently outside its box (only
        in phase 1) is blocked at the *near* bound it is approaching (at
        which point it turns feasible); feasible basics are blocked at
        whichever of their bounds they would exit through.
        """
        lo, hi, bn, den, basis = self.lo, self.hi, self.bn, self.den, self.basis
        own = None
        if direction > 0:
            if hi[j] is not None:
                own = hi[j] - self.val[j]
        elif lo[j] is not None:
            own = self.val[j] - lo[j]

        # per unit step of ``j`` in ``direction``, basic ``i`` moves by
        # ``rate / den[i]``; row ``i`` blocks at the step ``num / q``,
        # with ``q > 0``, and steps compare crosswise
        best_num = best_q = None
        block_rows = []
        for i, row in enumerate(self.tab):
            coef = row[j]
            if not coef:
                continue
            rate = -coef if direction > 0 else coef
            b = basis[i]
            x = bn[i]
            d = den[i]
            lo_b, hi_b = lo[b], hi[b]
            num = None
            if lo_b is not None and x < lo_b * d:
                if rate > 0:
                    num, q = lo_b * d - x, rate
            elif hi_b is not None and x > hi_b * d:
                if rate < 0:
                    num, q = x - hi_b * d, -rate
            elif rate > 0:
                if hi_b is not None:
                    num, q = hi_b * d - x, rate
            elif lo_b is not None:
                num, q = x - lo_b * d, -rate
            if num is None:
                continue
            if best_num is None:
                best_num, best_q, block_rows = num, q, [i]
                continue
            diff = num * best_q - best_num * q
            if diff < 0:
                best_num, best_q, block_rows = num, q, [i]
            elif diff == 0:
                block_rows.append(i)

        if best_num is None and own is None:
            return False  # unbounded ray

        if own is not None and (best_num is None or own * best_q <= best_num):
            if own:
                self._shift(j, own if direction > 0 else -own)
            self.state[j] = _AT_UP if direction > 0 else _AT_LO
            return True

        # pivot: leaving row with lowest basic-variable index among blockers;
        # its value after the step is ``reached / at``
        r = min(block_rows, key=basis.__getitem__)
        leave = basis[r]
        coef = self.tab[r][j]
        rate = -coef if direction > 0 else coef
        reached = bn[r] * best_q + best_num * rate
        at = den[r] * best_q
        if lo[leave] is not None and reached == lo[leave] * at:
            state, bound = _AT_LO, lo[leave]
        elif hi[leave] is not None and reached == hi[leave] * at:
            state, bound = _AT_UP, hi[leave]
        else:
            raise InternalError("leaving variable did not stop on a bound")
        self._pivot(r, j, bound)
        self.state[leave], self.val[leave] = state, bound
        basis[r] = j
        self.state[j] = _BASIC
        return True

    # -- phase 1 ---------------------------------------------------------

    def _infeasible_rows(self):
        bad = []
        lo, hi, bn, den = self.lo, self.hi, self.bn, self.den
        for i, b in enumerate(self.basis):
            if lo[b] is not None and bn[i] < lo[b] * den[i]:
                bad.append((i, -1))
            elif hi[b] is not None and bn[i] > hi[b] * den[i]:
                bad.append((i, 1))
        return bad

    def find_feasible(self) -> bool:
        """Phase 1: repair the current basis to primal feasibility.

        Returns True when a feasible point is reached, False when the
        constraints admit none.  Deterministic (Bland's rule).  A stored
        proof that refutes the current bounds answers False first, with
        no pivot and no change to the tableau.
        """
        for j in range(self.n):
            lo, hi = self.lo[j], self.hi[j]
            if lo is not None and hi is not None and lo > hi:
                return False
        if self._refuted():
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
            enter, direction = self._entering(weighted)
            if enter < 0:
                self._keep_proof(weighted, bad)
                return False
            if not self._step(enter, direction):
                raise InternalError("phase 1 found an unbounded improving ray")

    def _entering(self, weighted):
        """Bland's rule: the first nonbasic column that improves, with the
        direction it moves in, or ``(-1, 0)``.  Column ``j``'s reduced cost
        is ``sum(w * row[j])`` over the ``(row, w)`` pairs of ``weighted``;
        only its sign is read."""
        state, lo, hi = self.state, self.lo, self.hi
        for j in range(self.ncols):
            st = state[j]
            if st == _BASIC:
                continue
            if lo[j] is not None and lo[j] == hi[j]:
                continue  # fixed variable, no freedom
            d = 0
            for row, w in weighted:
                coef = row[j]
                if coef:
                    d += w * coef
            if d == 0:
                continue
            if st == _AT_LO and d < 0:
                return j, 1
            if st == _AT_UP and d > 0:
                return j, -1
            if st == _FREE:
                return j, (1 if d < 0 else -1)
        return -1, 0

    def _keep_proof(self, weighted, bad) -> None:
        """Store the proof of a failed phase 1 as ``(coefs, c)``.

        Phase 1's sum of the violated tableau rows, ``weighted``, is a row
        ``phi`` over all ``n + m`` columns ``z``.  Tableau rows are
        equations of the system, so every solution has ``phi . z == c``,
        its value at the current basic point.  Phase 1 found no column to
        enter, so on every slack ``phi`` is >= 0 or the slack is an
        equality's, fixed at 0; slacks are never negative.  So every
        solution has ``phi . x <= c`` over the structural columns ``x``,
        kept as the sparse ``coefs``, while the least value of ``phi . x``
        over the current bounds exceeds ``c``.
        """
        phi = [sum(w * row[j] for row, w in weighted) for j in range(self.n)]
        # phi . z at the current point: phi is w * den[i] on the basic
        # column of bad row i and 0 on the other basics, and nonbasic
        # slacks sit at 0
        c = sum(w * self.bn[i] for (i, _side), (_row, w) in zip(bad, weighted))
        c += sum(a * v for a, v, st in zip(phi, self.val, self.state)
                 if a and st != _BASIC)
        self._proofs.append(([(j, a) for j, a in enumerate(phi) if a], c))

    def _refuted(self) -> bool:
        """True when a stored proof shows the current bounds admit no
        point: ``phi . x`` exceeds ``c`` at its minimum over the bounds.
        A proof that needs a missing bound says nothing."""
        lo, hi = self.lo, self.hi
        for coefs, c in self._proofs:
            least = 0
            for j, a in coefs:
                bound = lo[j] if a > 0 else hi[j]
                if bound is None:
                    break
                least += a * bound
            else:
                if least > c:
                    return True
        return False

    # -- phase 2 ---------------------------------------------------------

    def optimize(self, objective, sense: str = "max"):
        """Optimize ``objective`` (structural costs) from a feasible basis.

        Returns ``(status, value)`` where status is 'optimal' or 'unbounded'.
        Call ``point()`` afterwards for the optimal point.
        """
        if sense not in ("max", "min"):
            raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
        if len(objective) != self.n:
            raise InputError("objective length mismatch")
        if self._infeasible_rows():
            raise InternalError("optimize() requires a primal-feasible basis")
        # reduced-cost row, held like a tableau row: z[j] / zden
        cost, cden = _integer_row(objective)
        z = [-c for c in cost] if sense == "max" else cost[:]
        zden = cden
        z += [0] * self.m
        for i in range(self.m):
            cb = z[self.basis[i]]
            if cb:
                row = self.tab[i]
                nz = [(j, a) for j, a in enumerate(row) if a]
                z, zden, _ = _eliminate(z, zden, cb, self.den[i], nz,
                                        0, 0)
        self._zrow, self._zden = z, zden
        while True:
            # only the signs of the reduced costs z[j] / zden are read
            enter, direction = self._entering([(self._zrow, 1)])
            if enter < 0:
                break
            if not self._step(enter, direction):
                self._zrow = None
                return UNBOUNDED, None
        self._zrow = None
        num, den = 0, 1
        for c, (v, d) in zip(cost, self.point()):
            if c:
                lcd = lcm(den, d)
                num, den = num * (lcd // den) + c * v * (lcd // d), lcd
        return OPTIMAL, Rat(num, den * cden)

    _zrow = None


def lp_optimize(rows, rhs, objective, sense: str = "max",
                senses=None, lo=None, hi=None) -> LpResult:
    """Exact LP solve: optimize ``objective`` over ``rows . x (<=|==) rhs``.

    Variables are free unless integer ``lo``/``hi`` are given.  Returns an
    ``LpResult`` whose ``vertex`` is an exact basic optimal solution.
    """
    lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    if not lp.find_feasible():
        return LpResult(INFEASIBLE)
    status, value = lp.optimize(objective, sense)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    return LpResult(OPTIMAL, value=value, vertex=lp.values())


def lp_feasible_point(rows, rhs) -> Optional[tuple]:
    """Exact feasibility check of ``rows . x <= rhs`` over free variables;
    returns a feasible point or None."""
    lp = ExactLp(rows, rhs)
    if not lp.find_feasible():
        return None
    return lp.values()
