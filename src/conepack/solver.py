"""Exact solvers for integer-cone intersection, bin packing, and cutting stock.

One private decider, ``_decide``, answers every probe over polytopes:
is some non-negative integer combination of the lattice points of one
or more groups (polytopes in the target's dimension) in a target
polytope, within an optional cost row?  ``int_cone_intersect`` is the
decider over one group with no cost row, and ``multi_polytope_select``
the decider over one group per part with the cost row as the cap.  It
has two modes:

* ``faithful``: one guess of cover parallelepipeds, whose vertices may
  carry arbitrary weights, and one small integer program over them.  The
  guess is the cover elements that hold the support of the rational
  prefilter's point.  A hit is returned immediately; a miss goes to the
  joint program, which settles the answer.
* ``joint``: one integer program with a weight variable per cover vertex
  of each group and a 0/1 variable per remaining lattice point.
  Decisive in both directions because every solvable target admits a
  witness of exactly this shape: normalizing one group's weights keeps
  their sum and their count, and so their cost.

Every combination program here comes after one screen, ``_screen``:
the early answers (an empty target, a negative budget, a target holding
the origin, no non-zero point), the prefilter LP and the pointedness
check.  It is written as its rows by ``_run_combination_ilp``, over
``(group, point)`` columns, and solved by ``ilp_feasible``.  A witness
combination is one ``{point: weight}`` dict per group, from the integer
program's weights through ``normalize_combination`` to
``IntConeResult.combination`` or the picks.

Bin packing is cutting stock with the one bin type ``(1, 1)``.  Every
optimiser, here and in ``scheduling``, is one ``cheapest_cover`` call:
the four covering searches are cutting stock, the two machine
assignments and the tardy penalty.  A selection is its ``(part, point,
copies)`` picks; ``multi_polytope_select`` finds one over candidate
polytopes, and ``select_from_generators`` one over listed ``(points,
cost)`` parts, the parts ``configuration_window`` takes, with one
program after the decider's screen, by the decider's writer and decoder.
``_listed`` is the one reader of listed parts: every point goes through
``rational.integer`` into a tuple of ints, at the window and at every
``select_from_generators`` probe.
``cheapest_cover`` bisects with ``least_feasible``, the one bisection,
over the multiples of the costs' gcd inside the window of their
configuration LP, ``configuration_window``, which solves that LP by its
own revised simplex in ints from the parts' unit vectors.  Cutting
stock and the preemptive assignment cover with down-closed parts, given
as their load rows: ``_polytope_cover`` lists each part's points from
its rows and the demand box, ``geometry.down_closed_lattice``, and builds
the parts' polytopes only when a probe runs.  The
LP's basic weights, rounded up and trimmed, are a cover that answers at
the window's top, so a probe runs only below that cover's cost, and a
closed window runs none.  An open window is first decided, where it can
be, by Gomory's group relaxation at the LP's optimal basis,
``_group_bound``: a shortest path over the det(B) elements of
Z^d / B Z^d, whose work does not depend on the multiplicities.  Its
bound raises the window's low end, and when its path is a cover, that
cover is optimal and answers with no probe.  The group is skipped when
det(B) exceeds ``GROUP_STATE_CAP``.  The window is less than d times the
dearest cost wide, so the number of probes depends on d and the costs,
not on the multiplicities.  Every returned solution is re-verified
exactly: its counts are read through ``rational.integer`` and packing
loads are compared in ints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .budget import charge
from .errors import InfeasibleError, InputError, InternalError, ResourceError
from .exactmath import DEFAULT_PIVOT_BUDGET, ExactLp
from .geometry import (
    Polytope,
    box_polytope,
    down_closed_lattice,
    down_closed_polytope,
    in_convex_hull,
    integer_box,
    lattice_points,
)
from .ilp import ilp_feasible
from .rational import Rat, ONE, integer
from .structure import compute_structure_set, normalize_combination

# The largest basis determinant whose group ``cheapest_cover`` searches.
# The search settles at most that many states; above it the window is
# bisected by probes alone.
GROUP_STATE_CAP = 1024

# ---------------------------------------------------------------------------
# instances and solutions


def _multiplicities(values) -> tuple:
    out = tuple(integer(a, "multiplicity") for a in values)
    if any(a < 0 for a in out):
        raise InputError("multiplicities must be non-negative")
    return out


class CuttingStockInstance:
    """Bin packing with several bin types of given capacity and cost."""

    def __init__(self, sizes: Sequence, multiplicities: Sequence[int],
                 bin_types: Sequence):
        self.sizes = tuple(Rat(s) for s in sizes)
        self.multiplicities = _multiplicities(multiplicities)
        if len(self.sizes) != len(self.multiplicities):
            raise InputError("sizes and multiplicities must align")
        if not self.sizes:
            raise InputError("at least one item type required")
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


class BinPackingInstance(CuttingStockInstance):
    """Item sizes in (0, 1] with integer multiplicities: cutting stock with
    the one bin type of capacity 1 and cost 1, so the cost counts bins."""

    def __init__(self, sizes: Sequence, multiplicities: Sequence[int]):
        super().__init__(sizes, multiplicities, [(ONE, 1)])
        for s in self.sizes:
            if s > 1:
                raise InputError(f"item size {s} exceeds the bin capacity 1")

    def __repr__(self):
        return f"BinPackingInstance(sizes={self.sizes}, a={self.multiplicities})"


@dataclass(frozen=True)
class PackingSolution:
    """Patterns with bin types and multiplicities, plus the exact objective."""

    patterns: tuple            # ((pattern, bin_type_index, multiplicity), ...)
    objective: int


@dataclass(frozen=True)
class IntConeResult:
    found: bool
    target: Optional[tuple]            # the reached point y
    combination: Optional[dict]        # {point: weight}, normalized
    mode_used: str = ""
    guesses_tried: int = 0             # 0 or 1: whether the lead guess ran


@dataclass(frozen=True)
class SelectResult:
    found: bool
    target: Optional[tuple]            # the reached point
    picks: tuple = ()                  # sorted (part, point, copies)
    total_cost: Optional[int] = None


class WindowBasis(NamedTuple):
    """The optimal basis B of ``configuration_window``'s LP, in ints.

    ``rows`` are the demanded types and ``columns`` the LP's
    ``(part index, point)`` columns; ``basis`` holds the basic column of
    each row, ``tableau`` the rows ``[adj(B) | adj(B) a]`` over the
    demanded types, ``det`` is D = det(B) > 0, and ``dual`` is the dual
    row ``[y | y . a]`` times D, so ``c_q D - dual . q`` is column q's
    reduced cost times D.  The lists are the window's own, not copies.
    """

    rows: list
    columns: list
    basis: list
    tableau: list
    det: int
    dual: list


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


def _costed(parts: Sequence) -> list:
    """The parts as ``(points, cost)`` pairs, or ``(Polytope, cost)``, with
    each cost read through ``rational.integer``; InputError names the first
    part that is not a pair, and refuses a negative cost."""
    out = []
    for i, part in enumerate(parts):
        try:
            first, cost = part
        except (TypeError, ValueError):
            raise InputError(f"part {i} is not a pair") from None
        out.append((first, integer(cost, "part cost")))
    if any(c < 0 for _first, c in out):
        raise InputError("part costs must be non-negative")
    return out


def _listed(parts: Sequence, d: int) -> list:
    """The listed ``(points, cost)`` parts as ``_costed`` reads them, each
    point read through ``rational.integer`` into a tuple of ``d`` ints: the
    one reader of listed parts.  InputError names the part of a point that
    is not integral or whose length is not ``d``."""
    out = []
    for i, (points, cost) in enumerate(_costed(parts)):
        what = f"part {i} coordinate"
        points = [tuple(integer(v, what) for v in p) for p in points]
        for p in points:
            if len(p) != d:
                raise InputError(f"point {p} of part {i} has {len(p)} "
                                 f"coordinates, not {d}")
        out.append((points, cost))
    return out


def _cost_gcd(parts: Sequence) -> int:
    """The gcd of the costs of the ``(points, cost)`` parts that hold a
    non-zero point (1 if none): every cover costs a multiple of it."""
    return gcd(*(c for points, c in parts if any(map(any, points)))) or 1


def configuration_window(parts: Sequence, a: Sequence[int]) -> tuple:
    """The window ``(lo, hi, cover, basis)`` of a covering search from its
    configuration LP.

    ``parts`` lists ``(points, cost)``: non-negative integer points
    (patterns, schedulable vectors, tardy machines and drops) and the cost
    of one copy.  Every exact cover of ``a`` is a solution of min sum
    c_p l_p subject to sum l_p p = a and l >= 0 (Gilmore & Gomory 1961)
    whose cost is a multiple of ``_cost_gcd(parts)``, so ``lo`` is that
    LP's optimum rounded up to such a multiple.

    The LP is solved by a revised simplex over the demanded types.  Its
    rows are those types and its columns the non-zero points with nothing
    on an undemanded type, in part order.  The basis starts from each
    demanded type's cheapest unit vector, the first of equal cost, so no
    phase 1 runs.  The parts must hold ``e_j`` for each demanded type j,
    as down-closed parts do; else InternalError names ``j``.  The state
    is ints over ``D = det(B) > 0``: the rows ``[adj(B) | adj(B) a]``,
    whose last entries are the basic weights, and the dual row
    ``[y | y . a]`` with ``y = c_B adj(B)``, whose last entry is the LP's
    value.  No rational is built.  Bland's rule enters the first column
    ``q`` with ``c_q D < y . q``, and the ratio test breaks ties by the
    lowest column.  With ``w = adj(B) q``, and ``y . q - c_q D`` as the
    dual row's ``w``, each pivot on row ``r`` updates every other row, the
    dual row too, by Edmonds' rule ``T_i <- (T_i w_r - w_i T_r) / D``, then
    ``D <- w_r``; every division is exact.  Pivots are charged to
    ``budget.charge`` and capped per call at ``DEFAULT_PIVOT_BUDGET``, as
    in ``ExactLp``.

    A basic optimum has at most ``len(a)`` non-zero weights; ``ceil(l_p)``
    copies of each cover at least ``a``.  Only copies that hold excess are
    peeled off, a batch at a time, and trimmed coordinate by coordinate; a
    copy trimmed to zero is dropped, and one that is no point of its part
    (a tardy machine copy trimmed in its marker) is re-covered by the unit
    columns the simplex started from.  So the work is bounded by the
    excess and the dimension, never by the weights.  ``cover`` lists the
    resulting ``(part index, point, copies)`` picks and ``hi`` is their
    cost.  Down-closed parts need no re-cover, so ``hi`` is at most
    ``sum c_p ceil(l_p)`` and ``hi - lo < len(a) * max c``.  The re-cover
    adds at most one machine's vector per excess marker copy, and there
    are fewer of those than basic columns, so the width still does not
    grow with the multiplicities.

    ``basis`` is the LP's final basis as a ``WindowBasis``: the state
    above, the columns and the demanded types, from which ``_group_bound``
    raises ``lo`` without a probe.

    The demand is read through ``rational.integer`` and the parts through
    ``_listed``, and a negative demand or cost raises InputError naming its
    field (multiplicities or part costs), as does a point with a negative
    entry, naming its part.  A demanded coordinate that no point covers
    raises InfeasibleError naming it.  Zero demand gives the window ``(0,
    0, [])`` and an empty basis with D = 1.
    """
    a = _multiplicities(a)
    parts = _listed(parts, len(a))
    rows = [j for j, aj in enumerate(a) if aj]
    idle = [j for j, aj in enumerate(a) if not aj]
    columns = []
    for i, (points, _c) in enumerate(parts):
        for p in points:
            if min(p, default=0) < 0:
                raise InputError(f"point {p} of part {i} has a negative "
                                 f"count")
            if any(p) and not any(p[j] for j in idle):
                columns.append((i, p))
    qs = ([tuple(p[j] for j in rows) for _i, p in columns] if idle
          else [p for _i, p in columns])
    cs = [parts[i][1] for i, _p in columns]
    m = len(rows)
    basis = [None] * m
    for k, q in enumerate(qs):
        if sum(q) == 1:  # points are non-negative
            r = q.index(1)
            if basis[r] is None or cs[k] < cs[basis[r]]:
                basis[r] = k
    if None in basis:
        for j in rows:
            if not any(p[j] for points, _c in parts for p in points):
                raise InfeasibleError(f"type {j} fits no machine or bin type")
        raise InternalError(f"no part holds the unit vector of type "
                            f"{rows[basis.index(None)]}; parts must hold "
                            f"the unit vector of every demanded type")
    units = list(zip(basis, rows))
    tab = [[0] * m + [a[j]] for j in rows]
    for r, row in enumerate(tab):
        row[r] = 1
    dual = [cs[k] for k in basis]
    dual.append(sum(map(mul, dual, (a[j] for j in rows))))
    D, pivots = 1, 0
    while True:
        # each map over q stops at the last type, before the constant
        for k, q in enumerate(qs):
            yq = sum(map(mul, dual, q))
            if cs[k] * D < yq:
                break
        else:
            break
        w = [sum(map(mul, row, q)) for row in tab]
        r = -1
        for i, wi in enumerate(w):
            if wi > 0:
                if r < 0:
                    r = i
                    continue
                left, right = tab[i][m] * w[r], tab[r][m] * wi
                if left < right or left == right and basis[i] < basis[r]:
                    r = i
        pivots += 1
        if pivots > DEFAULT_PIVOT_BUDGET:
            raise ResourceError("simplex pivot budget", DEFAULT_PIVOT_BUDGET)
        charge()
        wr, pivot_row = w[r], tab[r]
        w0 = yq - cs[k] * D
        for i, wi in enumerate(w):
            if i != r:
                tab[i] = [(t * wr - wi * s) // D
                          for t, s in zip(tab[i], pivot_row)]
        dual = [(t * wr - w0 * s) // D for t, s in zip(dual, pivot_row)]
        D = wr
        basis[r] = k
    rounded = [(*columns[k], -(-row[m] // D))
               for k, row in sorted(zip(basis, tab)) if row[m]]
    excess = [-v for v in a]
    for _i, p, n in rounded:
        excess = [e + n * v for e, v in zip(excess, p)]
    cover, members = [], {}
    for i, p, n in rounded:
        while n and any(e and v for e, v in zip(excess, p)):
            # k copies trimmed alike: as many as the excess empties in
            # every shared coordinate, or else one, trimmed to what is left
            k = min([n] + [e // v for e, v in zip(excess, p) if e and v]) or 1
            cut = [min(e, v) for e, v in zip(excess, p)]
            excess = [e - k * c for e, c in zip(excess, cut)]
            n -= k
            q = tuple(v - c for v, c in zip(p, cut))
            if any(q):
                if i not in members:
                    members[i] = set(parts[i][0])
                if q in members[i]:
                    cover.append((i, q, k))
                else:  # re-covered by the start basis's unit columns
                    cover += [(*columns[u], k * q[j]) for u, j in units
                              if q[j]]
        if n:
            cover.append((i, p, n))
    hi = sum(parts[i][1] * n for i, _p, n in cover)
    g = _cost_gcd(parts)
    return (-(-dual[m] // (D * g)) * g, hi, cover,
            WindowBasis(rows, columns, basis, tab, D, dual))


def _group_bound(basis: WindowBasis, parts: Sequence):
    """Gomory's group relaxation of the covering search at ``basis``:
    ``(bound, cover)``, or None when D exceeds ``GROUP_STATE_CAP``.

    Every exact cover x costs ``y . a + sum r_q x_q`` over the non-basic
    columns q, with r_q = c_q - y . q >= 0, and ``B x_B = a - N x_N`` has
    an integral ``x_B``.  Dropping ``x_B >= 0`` leaves the group problem
    (Gomory 1965): the least ``sum r_q x_q`` with ``N x_N = a`` modulo the
    lattice B Z^d, a shortest path from 0 to ``a`` in the group
    Z^d / B Z^d of D elements.  An element v is ``adj(B) v mod D``; each
    non-basic column with a non-zero image is an edge of weight
    ``c_q D - y . q`` in ints, the cheapest column kept per image.  A
    Dijkstra from 0 stops when it settles the image of ``a``, at the
    path's weight L.  Its work depends on D and the columns, never on
    the multiplicities; each settled state spends one ``budget.charge``
    unit, as a pivot does, so at most D units.

    ``bound`` is ``y . a + L/D`` rounded up: no cover costs less.
    ``cover`` lists the path's ``(part index, point, copies)`` picks with
    the basic weights ``x_B = (adj(B) a - sum x_q adj(B) q) / D``, which
    cost exactly that bound and so are optimal, when every ``x_B`` is
    non-negative; otherwise it is None.  InternalError when the target is
    unreachable or a division is inexact.
    """
    D = basis.det
    if D > GROUP_STATE_CAP:
        return None
    rows, tableau, dual = basis.rows, basis.tableau, basis.dual
    columns = basis.columns
    basic = set(basis.basis)
    edges = {}
    for k, (i, p) in enumerate(columns):
        if k in basic:
            continue
        q = [p[j] for j in rows]
        # each map over q stops at the last type, before the constant
        image = tuple(sum(map(mul, row, q)) % D for row in tableau)
        if any(image):
            reduced = parts[i][1] * D - sum(map(mul, dual, q))
            if image not in edges or reduced < edges[image][0]:
                edges[image] = (reduced, k)
    weights = [row[-1] for row in tableau]
    target = tuple(v % D for v in weights)
    start = (0,) * len(rows)
    heap, best, came = [(0, start)], {start: 0}, {start: None}
    while heap:
        length, u = heappop(heap)
        if length > best[u]:
            continue  # superseded by a shorter path to u
        charge()
        if u == target:
            break
        # weights are reduced costs, so never negative: a settled state
        # is never relaxed again
        for image, (w, k) in edges.items():
            v = tuple((s + t) % D for s, t in zip(u, image))
            if v not in best or length + w < best[v]:
                best[v] = length + w
                came[v] = u, k
                heappush(heap, (length + w, v))
    else:
        raise InternalError("the group misses the demand's image")
    bound = -(-(dual[-1] + length) // D)
    copies = {}
    while came[u] is not None:
        u, k = came[u]
        copies[k] = copies.get(k, 0) + 1
    for k, n in copies.items():
        q = [columns[k][1][j] for j in rows]
        weights = [v - n * sum(map(mul, row, q))
                   for v, row in zip(weights, tableau)]
    if any(v % D for v in weights):
        raise InternalError("the group's path leaves a fractional basis")
    if any(v < 0 for v in weights):
        return bound, None
    cover = [(*columns[k], v // D)
             for k, v in zip(basis.basis, weights) if v]
    cover += [(*columns[k], n) for k, n in sorted(copies.items())]
    return bound, cover


def cheapest_cover(a: Sequence[int], parts: Sequence, select):
    """The cheapest selection that reaches the demand ``a`` exactly.

    ``parts`` lists ``(points, cost)`` as ``configuration_window`` takes
    them, and ``select(target, budget)`` returns a ``SelectResult`` that
    reaches ``target`` at total cost at most ``budget``, or is not found.
    The window's cover, whose picks must reach ``a`` at cost ``hi``,
    answers at its top, and a closed window answers with it at once.  An
    open window first runs ``_group_bound`` at the window's basis, unless
    its determinant exceeds ``GROUP_STATE_CAP``: ``lo`` rises to the
    group's bound, rounded up to a multiple of ``g = _cost_gcd(parts)``,
    and when the group's path is a cover, that cover meets the bound and
    answers with no probe.  Otherwise ``select`` runs only below ``hi``,
    on one target ``box_polytope(a, a)`` that a window still open builds
    for the request: ``least_feasible`` bisects over the budgets ``v * g``
    inside the raised window.  Zero demand returns the empty selection at
    cost 0.  The window reads the parts, so a malformed one raises
    InputError before any probe.  InternalError when a check fails.
    """
    parts = _costed(parts)
    lo, hi, cover, basis = configuration_window(parts, a)
    costs = [c for _points, c in parts]
    top = _selection(cover, costs, hi, len(a))
    if top.target != tuple(a):
        raise InternalError("the window's cover misses the demand")
    g = _cost_gcd(parts)
    group = _group_bound(basis, parts) if lo < hi else None
    if group is not None:
        bound, path = group
        lo = max(lo, -(-bound // g) * g)
        if lo > hi:
            raise InternalError("the group's bound exceeds the window's cover")
        if path is not None:
            best = _selection(path, costs, lo, len(a))
            if best.target != tuple(a) or best.total_cost != lo:
                raise InternalError("the group's cover misses its bound")
            return best
    target = box_polytope(a, a) if lo < hi else None
    best, opt = least_feasible(
        lambda v: top if v * g >= hi else select(target, v * g),
        lo // g, hi // g, lambda res: res.total_cost // g)
    if best.total_cost != opt * g:
        raise InternalError("objective drifted from the binary search bound")
    return best


def _polytope_cover(a: Sequence[int], parts: Sequence, mode: str):
    """``cheapest_cover`` over down-closed parts ``(rows, rhs, cost)``, each
    ``{x : rows x <= rhs, 0 <= x <= a}``.  The window reads the points that
    ``down_closed_lattice`` lists; the first probe builds each part's
    ``down_closed_polytope`` once for the request, and ``lattice_points``
    lists it again.  Each probe looks ``multi_polytope_select`` up when it
    runs, so a patch sees it."""
    polys = []

    def probe(target, budget):
        if not polys:
            polys.extend((down_closed_polytope(rows, rhs, a), c)
                         for rows, rhs, c in parts)
        return multi_polytope_select(polys, target, budget, mode=mode)
    return cheapest_cover(a, [(down_closed_lattice(rows, rhs, a), c)
                              for rows, rhs, c in parts], probe)


# ---------------------------------------------------------------------------
# shared ILP plumbing


def _check_mode(mode):
    """InputError unless ``mode`` names a search mode of
    ``int_cone_intersect``.  Every entry that takes a mode checks it here
    first, so an unknown one is refused even when no probe would run."""
    if mode not in ("faithful", "joint"):
        raise InputError(f"unknown mode {mode!r}")


def _combination_rows(tagged, target, cap):
    """Rows of 'the sum of weighted points lies in target', over one
    weight per ``(group, point)`` of ``tagged``.  Equality targets are
    expressed through the target rows themselves.  A ``cap = (costs,
    budget)`` appends the row ``sum costs[group] * weight <= budget``."""
    n = len(tagged)
    rows = []
    columns = [[p[i] for _g, p in tagged] for i in range(target.dim)]
    for q in target.A:
        # coefficients of q . (sum lambda_g g); target rows are mostly unit
        # rows, so skip q's zeros
        coeff = [0] * n
        for qi, column in zip(q, columns):
            if qi:
                coeff = [c + qi * v for c, v in zip(coeff, column)]
        rows.append(coeff)
    rhs = list(target.b)
    if cap is not None:
        costs, budget = cap
        rows.append([costs[g] for g, _p in tagged])
        rhs.append(budget)
    return rows, rhs


def _run_combination_ilp(tagged, target, cap, hi=None):
    """The picks ``(group, point, weight)`` of one integer program over
    ``tagged`` (``_combination_rows``), non-zero weights only and in the
    order of ``tagged``; None when it is infeasible.  ``hi`` bounds the
    weights one by one, None leaving a weight unbounded above.

    Every weight is bounded, as ``ilp_feasible`` needs: each caller runs
    ``_screen`` first, which refuses unbounded targets and points that are
    not pointed unless a cost caps them, and a bounded target bounds
    pointed weights (Gordan).
    """
    rows, rhs = _combination_rows(tagged, target, cap)
    res = ilp_feasible(rows, rhs, lo=[0] * len(tagged), hi=hi)
    if not res.feasible:
        return None
    return [(g, p, w) for (g, p), w in zip(tagged, res.witness) if w]


# ---------------------------------------------------------------------------
# the intersection solver


def _screen(tagged, target, cap):
    """The answers that come before every combination program, in order,
    and the program's columns: ``(columns, prefilter)``, or None for
    Empty.

    An empty target or a negative budget in the ``cap = (costs, budget)``
    row answers Empty before ``tagged``, which iterates ``(group, point)``
    pairs, is read.  Its non-zero points are the columns.  A target that
    holds the origin answers the empty combination, ``([], None)``, and no
    column answers Empty.  One LP over non-negative rational weights on
    the columns, with the cap row, is a prefilter: when it is infeasible
    the answer is Empty.  Then the points that no cost caps (every point
    without a cap, else those of zero-cost groups) must be pointed: when 0
    is a convex combination of them their weights are unbounded (Gordan),
    and ``InputError`` says the source is not pointed.  A bounded target
    bounds the weights of pointed points, so every program the caller runs
    next is bounded.
    """
    if integer_box(target) is None or cap is not None and cap[1] < 0:
        return None
    tagged = [(g, p) for g, p in tagged if any(p)]
    d = target.dim
    if target.contains_int((0,) * d):
        return [], None
    if not tagged:
        return None
    rows, rhs = _combination_rows(tagged, target, cap)
    prefilter = ExactLp(rows, rhs, lo=[0] * len(tagged))
    if not prefilter.find_feasible():
        return None
    free = [p for g, p in tagged if cap is None or not cap[0][g]]
    if free and in_convex_hull((0,) * d, free):
        raise InputError(
            "the source is not pointed: 0 is a convex combination of its "
            "non-zero points that no cost caps, so the combination weights "
            "are unbounded")
    return tagged, prefilter


def _decide(polys, target, cap, mode: str) -> IntConeResult:
    """The one decider of the probes over polytopes, in the modes the
    module describes: is some non-negative integer combination of the
    groups' non-zero lattice points in the target, within the ``cap =
    (costs, budget)`` row when one is given?

    Returns an ``IntConeResult`` whose ``combination`` lists one
    normalized ``{point: weight}`` dict per group of ``polys``.  The
    ``_screen`` over every group's lattice answers first; the lattices are
    listed only once the target's box is read.  Each group then gets its
    own ``compute_structure_set``, in the target's dimension.

    The lead guess is the cover elements that hold the prefilter's
    support.  Each support point is a convex combination of its element's
    vertices, lattice points of its group, so the prefilter's point is a
    non-negative rational combination of the guess's non-zero vertices:
    their relaxation is feasible by construction.  A miss does not
    certify Empty (a reachable target may normalize onto vertices outside
    that span), so it goes to the joint program.  A witness is checked
    against the groups' lattices and the target, then normalized group by
    group.
    """
    d = target.dim
    screen = _screen(((g, p) for g, poly in enumerate(polys)
                      for p in lattice_points(poly)), target, cap)
    if screen is None:
        return IntConeResult(False, None, None, mode, 0)
    tagged, prefilter = screen
    if not tagged:
        return IntConeResult(True, (0,) * d, [{} for _ in polys], mode, 0)
    ssets = [compute_structure_set(poly) for poly in polys]
    guesses, picks, mode_used = 0, None, "joint"
    if mode == "faithful":
        guesses = 1
        support = [t for t, (n, _d) in zip(tagged, prefilter.point()) if n]
        special = sorted({(g, v) for g, p in support
                          for v in ssets[g].cover[ssets[g].locator[p]]
                          .vertices() if any(v)})
        picks = _run_combination_ilp(special, target, cap)
        if picks is not None:
            mode_used = "faithful"
    if picks is None:
        picks = _run_combination_ilp(
            tagged, target, cap,
            [None if p in ssets[g].special_set else 1 for g, p in tagged])
        if picks is None:
            return IntConeResult(False, None, None, "joint", guesses)
    combos = [{} for _ in polys]
    y = [0] * d
    for g, p, w in picks:
        if p not in ssets[g].locator:
            raise InternalError(f"witness point {p} is not a generator")
        combos[g][p] = w
        y = [a + w * v for a, v in zip(y, p)]
    if not target.contains_int(y):
        raise InternalError("witness sum escapes the target")
    # normalize_combination checks the sum and the support bound
    return IntConeResult(True, tuple(y),
                         [normalize_combination(combo, sset)
                          for combo, sset in zip(combos, ssets)],
                         mode_used, guesses)


def int_cone_intersect(source: Polytope, target: Polytope,
                       mode: str = "faithful") -> IntConeResult:
    """Find a point of the target reachable as an integer combination.

    Searches for ``y = sum_x lambda_x x`` with non-negative integer weights
    over the source's lattice points and ``y`` inside the target, returning
    the witness combination (normalized: support at most ``2^{2d+1}``) or a
    decisive Empty: ``_decide`` over the one group of the source, with no
    cap.  The target must be bounded, since its rows bound the program's
    sum: ``integer_box`` raises ``InputError`` at an unbounded coordinate,
    even when the target holds the origin.

    The source must be pointed: no non-negative combination of its
    non-zero lattice points may sum to 0.  Otherwise 0 lies in their
    convex hull, the weights reaching the target are unbounded (Gordan's
    theorem), and a probe whose prefilter passes raises ``InputError``
    naming the source, in either mode.
    """
    _check_mode(mode)
    if source.dim != target.dim:
        raise InputError("source and target dimensions differ")
    res = _decide([source], target, None, mode)
    if res.found:
        res = replace(res, combination=res.combination[0])
    return res


# ---------------------------------------------------------------------------
# multi-polytope selection


def multi_polytope_select(parts: Sequence, target: Polytope, budget: int,
                          mode: str = "faithful") -> SelectResult:
    """Reach the target with copies drawn from several candidate polytopes.

    ``parts`` is a list of (Polytope over the target's dimension,
    non-negative integer cost); a copy of a lattice point of part i costs
    ``c_i`` and the total cost must stay within ``budget``.  ``_decide``
    over one group per part, with the cost row as the cap: each part's
    weights are normalized on its own structure set, which keeps their sum
    and their count, and so their cost.  No enumeration box spans the
    budget, so costs may be as large as their binary encoding allows.  The
    target's box is read before a negative budget answers.  When no part
    holds a non-zero lattice point, the empty selection is the only one,
    as in ``select_from_generators``.  A part that is not a pair raises
    ``InputError`` naming its index, and zero-cost parts that are not
    pointed raise ``InputError`` when a probe's prefilter passes.
    """
    _check_mode(mode)
    if not parts:
        raise InputError("at least one part required")
    d = target.dim
    costs = []
    polys = []
    for poly, cost in _costed(parts):
        if poly.dim != d:
            raise InputError("every part must match the target dimension")
        polys.append(poly)
        costs.append(cost)
    budget = integer(budget, "budget")
    res = _decide(polys, target, (costs, budget), mode)
    if not res.found:
        return SelectResult(False, None)
    res = _selection([(i, x, w) for i, combo in enumerate(res.combination)
                      for x, w in combo.items()], costs, budget, d)
    if not target.contains_int(res.target):
        raise InternalError("selection misses the target")
    return res


def select_from_generators(parts: Sequence, target: Polytope,
                           budget: int) -> SelectResult:
    """Selection over explicitly listed generator points per part.

    The integer-projection variant of ``multi_polytope_select``: ``parts``
    lists ``(points, cost)`` as ``cheapest_cover`` takes them, each point
    an integer point in the target's dimension (already projected from
    whatever auxiliary space defined it), a copy of a point of part i
    costs ``c_i``, and the weighted sum must land in the target with total
    cost at most ``budget``.  Every part is read by ``_listed`` and the
    budget through ``rational.integer`` before anything is answered.  The
    ``_screen`` that ``_decide`` runs answers first, over every ``(part,
    point)`` column with the cost row, and so refuses zero-cost points
    that are not pointed; then one joint integer program decides.
    """
    d = target.dim
    parts = _listed(parts, d)
    costs = [c for _points, c in parts]
    cap = costs, integer(budget, "budget")
    screen = _screen(((i, p) for i, (points, _c) in enumerate(parts)
                      for p in points), target, cap)
    if screen is None:
        return SelectResult(False, None)
    tagged, _prefilter = screen
    picks = _run_combination_ilp(tagged, target, cap) if tagged else []
    if picks is None:
        return SelectResult(False, None)
    res = _selection(picks, costs, cap[1], d)
    if not target.contains_int(res.target):
        raise InternalError("selection misses the target")
    return res


def _selection(picks, costs, budget: int, d: int) -> SelectResult:
    """The selection of ``(part, point, copies)`` picks in ``d`` dimensions:
    merged per ``(part, point)``, sorted, and summed and priced in ints.
    InternalError when they overspend ``budget``; each caller checks the
    reached point against its own target."""
    merged = {}
    for i, x, w in picks:
        merged[i, x] = merged.get((i, x), 0) + w
    picks = tuple(sorted((i, x, w) for (i, x), w in merged.items()))
    reached = [0] * d
    total_cost = 0
    for i, x, w in picks:
        reached = [r + w * v for r, v in zip(reached, x)]
        total_cost += costs[i] * w
    if total_cost > budget:
        raise InternalError("selection exceeds the cost budget")
    return SelectResult(True, tuple(reached), picks, total_cost)


# ---------------------------------------------------------------------------
# bin packing and cutting stock


def _pattern_rows(sizes, capacity) -> tuple:
    """The load row of one bin's patterns, {x >= 0 : s.x <= capacity}, as
    ``([row], [rhs])``: the size row scaled to ints by the lcm of its
    denominators and the capacity's.  Sizes are positive, so clipped to
    the demand box x <= a, which no pattern of an exact decomposition of
    a exceeds, the part is down-closed."""
    scale = lcm(*(v.denominator for v in (*sizes, capacity)))
    row = [s.numerator * (scale // s.denominator) for s in sizes]
    return [row], [capacity.numerator * (scale // capacity.denominator)]


def bin_packing(inst: BinPackingInstance,
                mode: str = "faithful") -> PackingSolution:
    """Minimum number of unit bins packing all items, exactly: the cutting
    stock problem with the one bin type ``(1, 1)``."""
    if not isinstance(inst, BinPackingInstance):
        raise InputError(f"bin packing needs a BinPackingInstance, "
                         f"not {type(inst).__name__}")
    return cutting_stock(inst, mode)


def cutting_stock(inst: CuttingStockInstance,
                  mode: str = "faithful") -> PackingSolution:
    """Cheapest multiset of bins (by type) packing all items exactly.

    ``_polytope_cover`` over the bin types' pattern rows:
    ``cheapest_cover``, each probe a ``multi_polytope_select``.
    """
    _check_mode(mode)
    a = inst.multiplicities
    parts = [(*_pattern_rows(inst.sizes, w), c) for w, c in inst.bin_types]
    best = _polytope_cover(a, parts, mode)
    solution = PackingSolution(
        tuple((point, i, w) for i, point, w in best.picks), best.total_cost)
    verify_solution(inst, solution)
    return solution


def verify_solution(inst, sol: PackingSolution) -> None:
    """Exact validity check of a packing solution; InternalError on failure.

    Every pattern entry, bin type and multiplicity is read through
    ``rational.integer``, so a non-integral one fails naming its pattern.
    Loads are compared in ints: sizes and capacities are scaled once by
    the lcm of all their denominators."""
    if not isinstance(inst, CuttingStockInstance):
        raise InputError(f"cannot verify solutions for {type(inst).__name__}")
    scale = lcm(*(s.denominator for s in inst.sizes),
                *(w.denominator for w, _c in inst.bin_types))
    sizes = [s.numerator * (scale // s.denominator) for s in inst.sizes]
    caps = [w.numerator * (scale // w.denominator) for w, _c in inst.bin_types]
    d = inst.dim
    total = [0] * d
    cost = 0
    for pattern, bt, mult in sol.patterns:
        try:
            counts = [integer(v, "pattern entry") for v in pattern]
            bt, mult = integer(bt, "bin type"), integer(mult, "multiplicity")
        except InputError as exc:
            raise InternalError(f"pattern {pattern}: {exc}") from exc
        if len(counts) != d:
            raise InternalError(f"pattern {pattern} has {len(counts)} "
                                f"entries for {d} item types")
        if mult < 1:
            raise InternalError("non-positive multiplicity in solution")
        if bt not in range(len(inst.bin_types)):
            raise InternalError(f"pattern {pattern} names no bin type {bt!r}")
        if sum(map(mul, sizes, counts)) > caps[bt]:
            raise InternalError(f"pattern {pattern} overfills bin type {bt}")
        if any(v < 0 for v in counts):
            raise InternalError(f"negative pattern {pattern}")
        for j in range(d):
            total[j] += mult * counts[j]
        cost += inst.bin_types[bt][1] * mult
    if tuple(total) != inst.multiplicities:
        raise InternalError("solution does not meet the demand exactly")
    if cost != sol.objective:
        raise InternalError("objective does not add up")
