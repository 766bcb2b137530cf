"""Exact solvers for integer-cone intersection, bin packing, and cutting stock.

``int_cone_intersect`` decides whether some non-negative integer combination
of a polytope's lattice points lands in a target polytope, in two modes:

* ``faithful``: guess a small set of cover parallelepipeds (their vertices
  may carry arbitrary weights) plus a handful of free lattice points, and
  solve one small integer program per guess, cheapest guesses first.  A
  hit is returned immediately; otherwise the joint program settles the
  answer.
* ``joint``: one integer program with a weight variable per cover vertex
  and a 0/1 variable per remaining lattice point.  Decisive in both
  directions because every solvable target admits a witness of exactly
  this shape.

``bin_packing`` lifts patterns by a unit coordinate that counts bins;
``cutting_stock`` and the machine-assignment problems reduce to
``multi_polytope_select``, which couples several candidate polytopes with
selector and cost coordinates into one lifted intersection problem.  Every
optimiser, here and in ``scheduling``, finds its objective with
``least_feasible``: a bisection that asks one such intersection question
per probed bound.  The four covering searches (bin packing, cutting stock
and the two machine assignments) bisect inside the window of their
configuration LP, ``configuration_window``, which is less than d times the
dearest cost wide; so their number of probes depends on d and the costs,
not on the multiplicities.  Every returned solution is re-verified exactly
before it is surfaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations as _combinations
from typing import Optional, Sequence

from .errors import InfeasibleError, InputError, InternalError
from .exactmath import ExactLp
from .geometry import (
    Polytope,
    box_polytope,
    coordinate_bounds,
    lattice_points,
)
from .ilp import IlpProblem, ilp_feasible
from .rational import Rat, ONE, integer, rat_ceil, rat_floor, dot
from .structure import (
    Combination,
    StructureSet,
    combo_sum,
    compute_structure_set,
    normalize_combination,
)

DEFAULT_GUESS_BUDGET = 64


# ---------------------------------------------------------------------------
# instances and solutions


def _multiplicities(values) -> tuple:
    out = tuple(integer(a, "multiplicity") for a in values)
    if any(a < 0 for a in out):
        raise InputError("multiplicities must be non-negative")
    return out


class BinPackingInstance:
    """Item sizes in (0, 1] with integer multiplicities."""

    def __init__(self, sizes: Sequence, multiplicities: Sequence[int]):
        self.sizes = tuple(Rat(s) for s in sizes)
        self.multiplicities = _multiplicities(multiplicities)
        if len(self.sizes) != len(self.multiplicities):
            raise InputError("sizes and multiplicities must align")
        if not self.sizes:
            raise InputError("at least one item type required")
        for s in self.sizes:
            if s <= 0:
                raise InputError(f"item size {s} must be positive")
            if s > 1:
                raise InputError(f"item size {s} exceeds the bin capacity 1")
        self.dim = len(self.sizes)

    def __repr__(self):
        return f"BinPackingInstance(sizes={self.sizes}, a={self.multiplicities})"


class CuttingStockInstance:
    """Bin packing with several bin types of given capacity and cost."""

    def __init__(self, sizes: Sequence, multiplicities: Sequence[int],
                 bin_types: Sequence):
        self.sizes = tuple(Rat(s) for s in sizes)
        self.multiplicities = _multiplicities(multiplicities)
        if len(self.sizes) != len(self.multiplicities):
            raise InputError("sizes and multiplicities must align")
        for s in self.sizes:
            if s <= 0:
                raise InputError(f"item size {s} must be positive")
        self.bin_types = tuple((Rat(w), integer(c, "bin cost"))
                               for w, c in bin_types)
        if not self.bin_types:
            raise InputError("at least one bin type required")
        for w, c in self.bin_types:
            if w <= 0:
                raise InputError(f"bin capacity {w} must be positive")
            if c < 1:
                raise InputError(f"bin cost {c} must be a positive integer")
        self.dim = len(self.sizes)


@dataclass(frozen=True)
class PackingSolution:
    """Patterns with bin types and multiplicities, plus the exact objective.

    ``guess_record`` documents how the witness was found: a tuple of the
    special-point subset size and the number of free points for the
    faithful mode, or None for the joint mode.
    """

    patterns: tuple            # ((pattern, bin_type_index, multiplicity), ...)
    objective: int
    guess_record: Optional[tuple] = None


@dataclass(frozen=True)
class IntConeResult:
    found: bool
    target: Optional[tuple]            # the reached point y
    combination: Optional[Combination]
    mode_used: str = ""
    guesses_tried: int = 0
    guess: Optional[tuple] = None      # (special points used, free points)


@dataclass(frozen=True)
class SelectResult:
    found: bool
    target: Optional[tuple]
    part_combinations: tuple = ()      # one Combination per part
    total_cost: Optional[int] = None


# ---------------------------------------------------------------------------
# the objective search


def least_feasible(probe, lo: int, hi: int, cost):
    """Least objective value in ``[lo, hi]`` whose probe succeeds.

    ``probe(v)`` looks for a solution of objective at most ``v`` and returns
    a result with a ``found`` flag; ``cost(res)`` reads the objective of a
    found solution, which may undercut ``v``.  The probe must be monotone
    and ``probe(hi)`` must succeed.  Returns ``(best, optimum)``: the last
    successful probe's result and the least feasible objective.
    """
    best = probe(hi)
    if not best.found:
        raise InternalError(f"no solution within the upper bound {hi}")
    hi = cost(best)
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(mid)
        if res.found:
            best = res
            hi = min(mid, cost(res))
        else:
            lo = mid + 1
    return best, hi


def configuration_window(parts: Sequence, a: Sequence[int]) -> tuple:
    """The window ``(lo, hi)`` of a covering search from its configuration LP.

    ``parts`` lists ``(points, cost)``: the non-negative integer points of
    a down-closed set (patterns, schedulable vectors) and the cost of one
    copy.  Solves min sum c_p l_p subject to sum l_p p = a and l >= 0
    (Gilmore & Gomory 1961).  Every exact cover of ``a`` is a solution, so
    ``lo`` is the optimum rounded up.  A basic optimum has at most
    ``len(a)`` non-zero weights; rounding each up covers at least ``a``,
    and down-closure trims that to exactly ``a``.  So ``hi = sum c_p
    ceil(l_p)`` is the cost of a cover, and ``hi - lo < len(a) * max c``.
    """
    columns, costs = [], []
    for points, cost in parts:
        for p in points:
            if any(p):
                columns.append(p)
                costs.append(cost)
    d = len(a)
    lp = ExactLp([[p[j] for p in columns] for j in range(d)], list(a),
                 senses=["=="] * d, lo=[0] * len(columns))
    if not lp.find_feasible():
        raise InfeasibleError("no combination of the parts meets the demand")
    _status, value = lp.optimize(costs, sense="min")
    hi = sum(c * rat_ceil(w) for c, w in zip(costs, lp.values()))
    return rat_ceil(value), hi


# ---------------------------------------------------------------------------
# shared ILP plumbing


def _check_y_bounds(target: Polytope, y_bounds) -> None:
    if y_bounds is not None and len(y_bounds) != target.dim:
        raise InputError(f"{len(y_bounds)} y_bounds for a target of "
                         f"dimension {target.dim}")


def _target_box(target: Polytope, y_bounds):
    """Integer bounds for each target coordinate, honoring overrides."""
    _check_y_bounds(target, y_bounds)
    bounds = coordinate_bounds(target)
    if bounds is None:
        return None
    out = []
    for j, (lo, hi) in enumerate(bounds):
        olo = ohi = None
        if y_bounds is not None and y_bounds[j] is not None:
            olo, ohi = y_bounds[j]
        lo = lo if lo is not None else olo
        hi = hi if hi is not None else ohi
        if lo is None or hi is None:
            raise InputError(
                f"target unbounded in coordinate {j}; supply y_bounds")
        out.append((rat_ceil(lo), rat_floor(hi)))
    return out


def _combination_rows(generators, target, box, extra_free=0,
                      source=None):
    """Rows of 'sum of weighted generators (+ free points) lies in target'.

    Variables: one weight per generator, then ``extra_free`` blocks of
    ``d`` coordinates each (free lattice points of ``source``).  Equality
    targets are expressed through the target rows themselves plus the box.
    """
    d = target.dim
    n = len(generators)
    nf = extra_free * d
    rows, rhs = [], []
    columns = [[g[i] for g in generators] for i in range(d)]

    def sum_coeffs(q):
        # coefficients of q . (sum lambda_g g + sum w_t) over all variables;
        # target and box rows are mostly unit rows, so skip q's zeros
        coeff = [0] * n
        for qi, column in zip(q, columns):
            if qi:
                coeff = [c + qi * v for c, v in zip(coeff, column)]
        for _ in range(extra_free):
            coeff.extend(q)
        return coeff

    for q, qb in zip(target.A, target.b):
        rows.append(sum_coeffs(q))
        rhs.append(qb)
    for j, (lo, hi) in enumerate(box):
        unit = [0] * d
        unit[j] = 1
        coeff = sum_coeffs(unit)
        rows.append(coeff)
        rhs.append(hi)
        rows.append([-v for v in coeff])
        rhs.append(-lo)
    if extra_free:
        if source is None:
            raise InternalError("free points need their source polytope")
        for t in range(extra_free):
            off = n + t * d
            for a_row, b in zip(source.A, source.b):
                row = [0] * (n + nf)
                for i, v in enumerate(a_row):
                    row[off + i] = v
                rows.append(row)
                rhs.append(b)
    return rows, rhs


def _run_combination_ilp(generators, target, box, gen_hi=None,
                         extra_free=0, source=None, free_box=None,
                         cap=None):
    """Solve for generator weights (and free points); None when infeasible.

    ``cap`` is an optional row ``(coefficients, bound)`` on the generator
    weights, appended after the rows of ``_combination_rows``.  Returns one
    ``(point, weight)`` pair per generator, in order, then each free point
    with weight 1.
    """
    n = len(generators)
    d = target.dim
    rows, rhs = _combination_rows(generators, target, box,
                                  extra_free=extra_free, source=source)
    lo = [0] * n
    hi = list(gen_hi) if gen_hi is not None else [None] * n
    for _ in range(extra_free):
        for a, b in free_box:
            lo.append(a)
            hi.append(b)
    if cap is not None:
        coefficients, bound = cap
        rows.append(list(coefficients) + [0] * (extra_free * d))
        rhs.append(bound)
    problem = IlpProblem.build(rows, rhs, lo=lo, hi=hi)
    try:
        res = ilp_feasible(problem)
    except InputError as exc:
        raise InputError(
            f"cannot bound the combination program ({exc}); "
            "bound the target") from exc
    if not res.feasible:
        return None
    x = res.witness
    return list(zip(generators, x)) + [
        (x[n + t * d:n + (t + 1) * d], 1) for t in range(extra_free)]


class _Relaxation:
    """Rational relaxations of one probe's combination programs.

    ``feasible(special, k)`` decides whether non-negative rational weights
    on ``special``, a subset of ``generators``, plus ``k`` free points of
    ``source`` can reach the target within ``box``.  Two tableaux over all
    the generators answer every call; each is built on first use from
    ``_combination_rows`` and then only has variable bounds moved.

    * ``k == 0``: one weight column per generator.
    * ``k > 0``: the generator columns, one free point ``w`` and its count
      ``mu``, with the source rows read as ``A w - mu b <= 0`` and ``mu``
      fixed at ``k``.  A sum of ``k`` points of a convex set is a point of
      ``k`` times that set, so this is the program with ``k`` free points.

    A generator outside ``special`` is fixed at 0.  A call moves only the
    columns whose bounds changed since the tableau's last call, then runs
    phase 1 from its current basis: the answer is a verdict, not a vertex,
    so the pivot path may depend on earlier calls.  Most guesses are
    Empty, and each tableau keeps the infeasibility proof of every Empty
    verdict (``ExactLp``).  A proof ``phi . x <= c`` still refutes a later
    guess that switches on no generator with a negative coefficient in
    ``phi``, and such a guess is answered without a pivot.  A row that
    repeats an earlier one exactly, right-hand side included, is dropped;
    a box target's rows repeat the box.
    """

    def __init__(self, generators, target, box, source):
        self._generators = generators
        self._target, self._box, self._source = target, box, source
        self._column = {g: i for i, g in enumerate(generators)}
        self._lps = {}   # free points or not -> tableau
        self._on = {}    # free points or not -> generator columns switched on
        self._count = 0  # the k at which the free-point tableau fixes mu

    def _build(self, free):
        n = len(self._generators)
        rows, rhs = _combination_rows(self._generators, self._target,
                                      self._box, extra_free=int(free),
                                      source=self._source)
        lo = [0] * n
        if free:
            m = self._source.m
            rows = [row + [0] for row in rows[:-m]] + \
                [row + [-b] for row, b in zip(rows[-m:], self._source.b)]
            rhs = rhs[:-m] + [0] * m
            lo += [None] * (self._target.dim + 1)
        unique = dict.fromkeys(zip(map(tuple, rows), rhs))
        self._lps[free] = ExactLp([row for row, _b in unique],
                                  [b for _row, b in unique], lo=lo)
        self._on[free] = set(range(n))

    def feasible(self, special, k=0):
        free = k > 0
        if free not in self._lps:
            self._build(free)
        lp, was = self._lps[free], self._on[free]
        on = {self._column[g] for g in special}
        for j in was - on:
            lp.set_var_bounds(j, 0, 0)
        for j in on - was:
            lp.set_var_bounds(j, 0, None)
        self._on[free] = on
        if free and k != self._count:
            lp.set_var_bounds(lp.n - 1, k, k)
            self._count = k
        return lp.find_feasible()


# ---------------------------------------------------------------------------
# the intersection solver


def int_cone_intersect(source: Polytope, target: Polytope,
                       mode: str = "faithful",
                       y_bounds: Optional[Sequence] = None,
                       structure: Optional[StructureSet] = None) -> IntConeResult:
    """Find a point of the target reachable as an integer combination.

    Searches for ``y = sum_x lambda_x x`` with non-negative integer weights
    over the source's lattice points and ``y`` inside the target, returning
    the witness combination (normalized: support at most ``2^{2d+1}``) or a
    decisive Empty.  ``y_bounds`` supplies (lo, hi) pairs for target
    coordinates the target rows leave unbounded.

    The rational relaxation over all generators is a prefilter: when it is
    infeasible the answer is Empty without an integer program.  Its
    ``_Relaxation`` then checks each guess of the faithful search.
    """
    if source.dim != target.dim:
        raise InputError("source and target dimensions differ")
    if mode not in ("faithful", "joint"):
        raise InputError(f"unknown mode {mode!r}")
    _check_y_bounds(target, y_bounds)
    if target.contains_int((0,) * target.dim):
        return IntConeResult(True, (0,) * target.dim,
                             Combination(dim=source.dim), mode, 0)
    box = _target_box(target, y_bounds)
    if box is None or any(a > b for a, b in box):
        return IntConeResult(False, None, None, mode, 0)
    lattice = lattice_points(source)
    generators = [p for p in lattice if any(v != 0 for v in p)]
    if not generators:
        return IntConeResult(False, None, None, mode, 0)
    relax = _Relaxation(generators, target, box, source)
    if not relax.feasible(generators):
        return IntConeResult(False, None, None, mode, 0)
    sset = structure if structure is not None \
        else compute_structure_set(source)
    lattice_set = set(lattice)

    def finish(pairs, mode_used, guesses, guess=None):
        combo = Combination(pairs, dim=source.dim)
        y = combo_sum(combo)
        for p in combo.weights:
            if p not in lattice_set:
                raise InternalError(f"witness point {p} is not a generator")
        if not target.contains_int(y):
            raise InternalError("witness sum escapes the target")
        normal = normalize_combination(combo, sset)
        if combo_sum(normal) != y:
            raise InternalError("normalization changed the reached point")
        if len(normal.weights) > 2 ** (2 * source.dim + 1):
            raise InternalError("normalized support exceeds its bound")
        return IntConeResult(True, y, normal, mode_used, guesses, guess)

    guesses = 0
    if mode == "faithful":
        status, guesses, pairs, guess = _faithful_search(
            sset, generators, target, box, relax)
        if status == "found":
            return finish(pairs, "faithful", guesses, guess)
        # Exhausted or out of budget: either way the joint program below
        # settles the answer.  Guessed subsets span only the vertices of a
        # few parallelepipeds, and a reachable target may normalize onto
        # vertices outside every such span, so exhaustion alone cannot
        # certify Empty.

    pairs = _joint_program(sset, generators, target, box)
    if pairs is None:
        return IntConeResult(False, None, None, "joint", guesses)
    return finish(pairs, "joint", guesses)


def _faithful_search(sset, generators, target, box, relax):
    """Guess-driven search.

    Each guess is first checked by the probe's ``_Relaxation``, ``relax``;
    only a guess whose relaxation is feasible gets its integer program.

    Returns (status, guesses, pairs, guess) where status is "found",
    "exhausted" or "budget"; pairs and guess are set only on a hit.
    """
    d = sset.polytope.dim
    cover = sset.cover
    pp_cap = min(1 << d, len(cover))
    k_cap = 1 << (2 * d)
    genset = set(generators)
    source = sset.polytope
    src_bounds = coordinate_bounds(source)
    free_box = [(rat_ceil(lo), rat_floor(hi)) for lo, hi in src_bounds]
    guesses = 0
    for total in range(1, pp_cap + k_cap + 1):
        for size in range(0, min(total, pp_cap) + 1):
            k = total - size
            if k > k_cap:
                continue
            for subset in _combinations(range(len(cover)), size):
                guesses += 1
                if guesses > DEFAULT_GUESS_BUDGET:
                    return ("budget", guesses - 1, None, None)
                special = sorted({v for i in subset
                                  for v in cover[i].vertices()
                                  if v in genset})
                if not special and k == 0:
                    continue
                if not relax.feasible(special, k):
                    continue
                pairs = _run_combination_ilp(
                    special, target, box, extra_free=k, source=source,
                    free_box=free_box)
                if pairs is not None:
                    return ("found", guesses, pairs, (len(special), k))
    return ("exhausted", guesses, None, None)


def _joint_program(sset, generators, target, box):
    """One decisive program over all generators.

    Cover vertices get unbounded integer weights; every other lattice point
    gets a 0/1 variable, which is enough because any reachable target has a
    normalized witness of that shape.
    """
    special = sset.special_set
    gens = sorted(generators)
    hi = [None if g in special else 1 for g in gens]
    return _run_combination_ilp(gens, target, box, gen_hi=hi)


# ---------------------------------------------------------------------------
# bin packing


def _pattern_polytope(sizes, capacity, a, counter=False) -> Polytope:
    """Patterns of one bin: {x >= 0 : s.x <= capacity, x <= a}.

    The box x <= a is added: patterns exceeding the demand can never appear
    in an exact decomposition of a.  ``counter`` appends a unit coordinate
    that counts bins: {(x, 1)}.
    """
    d = len(sizes)
    width = d + 1 if counter else d
    rows = [list(sizes) + [0] * (width - d)]
    rhs = [capacity]
    for j in range(d):
        unit = [0] * width
        unit[j] = -1
        rows.append(unit)
        rhs.append(0)
        rows.append([-v for v in unit])
        rhs.append(a[j])
    if counter:
        rows += [[0] * d + [1], [0] * d + [-1]]
        rhs += [1, -1]
    return Polytope.from_rational(rows, rhs)


def bin_packing(inst: BinPackingInstance,
                mode: str = "faithful") -> PackingSolution:
    """Minimum number of unit bins packing all items, exactly.

    Binary search on the bin count b: b bins suffice iff the lifted pattern
    polytope reaches {a} x [0, b].  The window comes from the configuration
    LP over the same patterns (``configuration_window``): it is less than d
    bins wide, so the number of probes does not grow with the multiplicities.
    """
    a = inst.multiplicities
    if all(v == 0 for v in a):
        return PackingSolution((), 0, None)
    source = _pattern_polytope(inst.sizes, 1, a, counter=True)
    sset = compute_structure_set(source)
    lo, hi = configuration_window(
        [([p[:-1] for p in lattice_points(source)], 1)], a)

    def probe(b):
        return int_cone_intersect(source,
                                  box_polytope(list(a) + [0], list(a) + [b]),
                                  mode=mode, structure=sset)

    best, opt = least_feasible(probe, lo, hi,
                               lambda res: res.combination.total_weight)
    solution = _packing_solution_from(best.combination, bin_type=0,
                                      record=best.guess)
    verify_solution(inst, solution)
    if solution.objective != opt:
        raise InternalError("objective drifted from the binary search bound")
    return solution


def _packing_solution_from(combo: Combination, bin_type: int,
                           record) -> PackingSolution:
    patterns = []
    for point, w in sorted(combo.weights.items()):
        patterns.append((point[:-1], bin_type, w))
    objective = combo.total_weight
    return PackingSolution(tuple(patterns), objective, record)


# ---------------------------------------------------------------------------
# multi-polytope selection


def multi_polytope_select(parts: Sequence, target: Polytope, budget: int,
                          mode: str = "faithful") -> SelectResult:
    """Reach the target with copies drawn from several candidate polytopes.

    ``parts`` is a list of (Polytope over the target's dimension, positive
    integer cost); a copy of a lattice point of part i costs ``c_i`` and the
    total cost must stay within ``budget``.  Implemented by coupling the
    parts into one lifted polytope with a cost coordinate and one selector
    coordinate per part, then intersecting its integer cone with
    ``target x [0, budget] x (free selectors)``.  The lifted lattice is
    assembled from the parts' lattices and the lifted target's bounds from
    the target's, so no enumeration box spans the cost range, and costs
    may be as large as their binary encoding allows.
    """
    n = len(parts)
    if n == 0:
        raise InputError("at least one part required")
    d = target.dim
    costs = []
    polys = []
    for poly, cost in parts:
        if poly.dim != d:
            raise InputError("every part must match the target dimension")
        if not isinstance(cost, int) or cost < 1:
            raise InputError(f"part cost {cost!r} must be a positive integer")
        polys.append(poly)
        costs.append(cost)
    if budget < 0:
        return SelectResult(False, None)

    part_bounds = []
    for poly in polys:
        bounds = coordinate_bounds(poly)
        if bounds is None:
            part_bounds.append(None)
            continue
        if any(lo is None or hi is None for lo, hi in bounds):
            raise InputError("every part must be bounded")
        part_bounds.append([(rat_ceil(lo), rat_floor(hi)) for lo, hi in bounds])
    if all(b is None for b in part_bounds):
        return SelectResult(False, None)
    glo = [min(b[j][0] for b in part_bounds if b is not None) for j in range(d)]
    ghi = [max(b[j][1] for b in part_bounds if b is not None) for j in range(d)]

    D = d + 1 + n  # x coords, cost coord, selector coords
    rows, rhs = [], []

    def pad(row_x=None, cost=0, sel=None):
        row = list(row_x) if row_x is not None else [0] * d
        row.append(cost)
        row.extend(sel if sel is not None else [0] * n)
        return row

    cmax = max(costs)
    for i, poly in enumerate(polys):
        for a_row, b in zip(poly.A, poly.b):
            # a.x <= b + M(1 - z_i), with M the worst violation on the box
            worst = sum(v * (ghi[j] if v > 0 else glo[j])
                        for j, v in enumerate(a_row))
            M = max(0, worst - b)
            sel = [0] * n
            sel[i] = M
            rows.append(pad(a_row, 0, sel))
            rhs.append(b + M)
        # cost coordinate pinned to c_i when z_i = 1:
        # sign=+1 relaxes to the global cap, sign=-1 to the global floor
        for sign in (1, -1):
            bound = cmax if sign > 0 else 0
            gap = (bound - costs[i]) if sign > 0 else (costs[i] - bound)
            sel = [0] * n
            sel[i] = gap
            row = pad(None, sign, sel)
            rows.append(row)
            rhs.append(sign * costs[i] + gap)
    # exactly one selector on, each in [0,1]
    rows.append(pad(None, 0, [1] * n))
    rhs.append(1)
    rows.append(pad(None, 0, [-1] * n))
    rhs.append(-1)
    for i in range(n):
        sel = [0] * n
        sel[i] = 1
        rows.append(pad(None, 0, sel))
        rhs.append(1)
        rows.append(pad(None, 0, [-v for v in sel]))
        rhs.append(0)
    # global box keeps the lift bounded
    for j in range(d):
        unit = [0] * d
        unit[j] = 1
        rows.append(pad(unit, 0, None))
        rhs.append(ghi[j])
        rows.append(pad([-v for v in unit], 0, None))
        rhs.append(-glo[j])
    rows.append(pad(None, 1, None))
    rhs.append(cmax)
    rows.append(pad(None, -1, None))
    rhs.append(0)
    lifted = Polytope(rows, rhs)
    # its integer points are exactly (x, c_i, e_i) for x in part i: the one
    # selector on pins the cost, and M relaxes the other parts' rows on the
    # box; the enumeration box would hold the whole cost range instead
    lifted._lattice = sorted(
        x + (costs[i],) + tuple(int(i == t) for t in range(n))
        for i, poly in enumerate(polys) for x in lattice_points(poly))

    target_bounds = coordinate_bounds(target)
    if target_bounds is None:
        return SelectResult(False, None)
    t_rows, t_rhs = [], []
    for q, qb in zip(target.A, target.b):
        t_rows.append(pad(q, 0, None))
        t_rhs.append(qb)
    t_rows.append(pad(None, 1, None))
    t_rhs.append(budget)
    t_rows.append(pad(None, -1, None))
    t_rhs.append(0)
    lifted_target = Polytope(t_rows, t_rhs)
    # the target, cost and selector blocks share no row, so these are the
    # LP bounds
    lifted_target._bounds = (list(target_bounds) + [(Rat(0), Rat(budget))]
                             + [(None, None)] * n)

    y_bounds = [None] * d + [None] + [(0, budget)] * n
    res = int_cone_intersect(lifted, lifted_target, mode=mode,
                             y_bounds=y_bounds)
    if not res.found:
        return SelectResult(False, None)
    picks = []
    for point, w in res.combination.weights.items():
        x, gamma = point[:d], point[d]
        sel = point[d + 1:]
        if sum(sel) != 1 or any(v not in (0, 1) for v in sel):
            raise InternalError(f"lifted point {point} has a broken selector")
        i = sel.index(1)
        if gamma != costs[i]:
            raise InternalError(f"lifted point {point} mislabels its cost")
        if not polys[i].contains_int(x):
            raise InternalError(f"pattern {x} escapes part {i}")
        picks.append((i, x, w))
    return _selection(picks, costs, target, budget)


def select_from_generators(groups: Sequence, costs: Sequence[int],
                           target: Polytope, budget: int) -> SelectResult:
    """Selection over explicitly listed generator points per part.

    The integer-projection variant of ``multi_polytope_select``: each group
    is a finite list of integer points in the target's dimension (already
    projected from whatever auxiliary space defined them), a copy from
    group i costs ``c_i``, and the weighted sum must land in the target
    with total cost at most ``budget``.  One joint integer program decides:
    the combination program over all generators, capped by their costs.
    """
    if len(groups) != len(costs):
        raise InputError("groups and costs must align")
    d = target.dim
    box = _target_box(target, None)
    if box is None or any(a > b for a, b in box):
        return SelectResult(False, None)
    if budget < 0:
        return SelectResult(False, None)
    tagged = []
    for i, group in enumerate(groups):
        if not isinstance(costs[i], int) or costs[i] < 0:
            raise InputError(f"cost {costs[i]!r} must be a non-negative integer")
        for g in group:
            pt = tuple(int(v) for v in g)
            if len(pt) != d:
                raise InputError("generator dimension mismatch")
            if all(v == 0 for v in pt):
                continue  # contributes nothing; dropping keeps answers
            tagged.append((i, pt))
    if not tagged:
        # the empty sum is the only reachable point
        if target.contains_int((0,) * d) and \
                all(lo <= 0 <= hi for lo, hi in box):
            return _selection([], costs, target, budget)
        return SelectResult(False, None)
    owners = [i for i, _pt in tagged]
    pairs = _run_combination_ilp([pt for _i, pt in tagged], target, box,
                                 cap=([costs[i] for i in owners], budget))
    if pairs is None:
        return SelectResult(False, None)
    return _selection([(i, pt, w) for i, (pt, w) in zip(owners, pairs) if w],
                      costs, target, budget)


def _selection(picks, costs, target: Polytope, budget: int) -> SelectResult:
    """The verified result of ``(part, point, copies)`` picks.

    One ``Combination`` per part, in the order of ``costs``; raises
    InternalError when the picks overspend the budget or miss the target.
    """
    d = target.dim
    per_part = [dict() for _ in costs]
    total_cost = 0
    reached = [0] * d
    for i, x, w in picks:
        per_part[i][x] = per_part[i].get(x, 0) + w
        total_cost += costs[i] * w
        for j in range(d):
            reached[j] += w * x[j]
    if total_cost > budget:
        raise InternalError("selection exceeds the cost budget")
    if not target.contains_int(tuple(reached)):
        raise InternalError("selection misses the target")
    return SelectResult(True, tuple(reached),
                        tuple(Combination(p, dim=d) for p in per_part),
                        total_cost)


# ---------------------------------------------------------------------------
# cutting stock


def cutting_stock(inst: CuttingStockInstance,
                  mode: str = "faithful") -> PackingSolution:
    """Cheapest multiset of bins (by type) packing all items exactly.

    Binary search on the total cost through ``multi_polytope_select``, in
    the window of the configuration LP over every bin type's patterns
    (``configuration_window``), which is less than d times the dearest
    bin's cost wide.
    """
    a = inst.multiplicities
    if all(v == 0 for v in a):
        return PackingSolution((), 0, None)
    for j, (s, aj) in enumerate(zip(inst.sizes, a)):
        if aj and all(s > w for w, _c in inst.bin_types):
            raise InfeasibleError(
                f"item type {j} (size {s}) fits no bin type")
    parts = [(_pattern_polytope(inst.sizes, w, a), c)
             for w, c in inst.bin_types]
    target = box_polytope(a, a)
    lo, hi = configuration_window(
        [(lattice_points(poly), c) for poly, c in parts], a)

    def probe(delta):
        return multi_polytope_select(parts, target, delta, mode=mode)

    best, opt = least_feasible(probe, lo, hi, lambda res: res.total_cost)
    patterns = []
    for i, combo in enumerate(best.part_combinations):
        for point, w in sorted(combo.weights.items()):
            patterns.append((point, i, w))
    solution = PackingSolution(tuple(patterns), best.total_cost, None)
    verify_solution(inst, solution)
    if solution.objective != opt:
        raise InternalError("objective drifted from the binary search bound")
    return solution


def verify_solution(inst, sol: PackingSolution) -> None:
    """Exact validity check of a packing solution; InternalError on failure.

    Bin packing is checked as cutting stock with one bin type of capacity 1
    and cost 1, so its objective counts the bins.
    """
    if isinstance(inst, BinPackingInstance):
        bin_types = ((ONE, 1),)
    elif isinstance(inst, CuttingStockInstance):
        bin_types = inst.bin_types
    else:
        raise InputError(f"cannot verify solutions for {type(inst).__name__}")
    d = inst.dim
    total = [0] * d
    cost = 0
    for pattern, bt, mult in sol.patterns:
        if len(pattern) != d:
            raise InternalError(f"pattern {pattern} has {len(pattern)} "
                                f"entries for {d} item types")
        if mult < 1:
            raise InternalError("non-positive multiplicity in solution")
        if bt not in range(len(bin_types)):
            raise InternalError(f"pattern {pattern} names no bin type {bt!r}")
        w, c = bin_types[bt]
        load = dot(inst.sizes, [Rat(v) for v in pattern])
        if load > w:
            raise InternalError(f"pattern {pattern} overfills bin type {bt}")
        if any(v < 0 for v in pattern):
            raise InternalError(f"negative pattern {pattern}")
        for j in range(d):
            total[j] += mult * pattern[j]
        cost += c * mult
    if tuple(total) != inst.multiplicities:
        raise InternalError("solution does not meet the demand exactly")
    if cost != sol.objective:
        raise InternalError("objective does not add up")
