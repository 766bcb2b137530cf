"""Rational polytopes, their lattice points, and parallelepiped covers.

A ``Polytope`` is ``{x : A x <= b}`` with integer ``A`` and ``b``.  On
top of it:

* exact coordinate bounds and their inward rounding to an integer box
  (``integer_box``, which rejects an unbounded coordinate), and
  lattice-point enumeration, one integer interval of admitted values per
  depth, over the box that the axis rows (one non-zero coefficient) give
  without an LP; over ``integer_box`` when those rows leave a side
  unbounded or give a box over ``DEFAULT_LATTICE_BUDGET`` points, so the
  cap is then measured on the LP box.  Either box implies the axis rows,
  so only the other rows are tested, and the last depth's intervals are
  kept beside the points as column runs.  A down-closed polytope's
  points are listed from its load rows and exact box alone
  (``down_closed_lattice``), with no polytope built; it reads them
  through ``rational.integer``, as ``Polytope`` does.  No other module
  touches a polytope's cached lattice, runs or bounds, and only
  ``lattice_points`` caches a lattice, always with its runs,
* exact convex-hull machinery in any small dimension over column runs
  (only run ends that sit midway between two points along no other axis
  are candidates: a polytope's integer hull reads the enumerator's runs,
  any other sorted point set is read into runs in one pass; then
  beneath-beyond on integer determinants for 3-d points of rank 3, a
  monotone chain for rank-2 point sets, beneath-beyond on chart
  coordinates for rank 3 below the ambient dimension, vertex filtering
  by exact LP above),
* the slack-interval grid that groups lattice points into cells whose
  slacks agree within ``1 + 1/d^2``, in signature order; when the leading
  axis rows separate every coordinate over the axis box, the cells are
  single points in one sort of the lattice, decided from the rows alone,
* minimum-volume enclosing ellipsoid contact points (Khachiyan's
  iteration on plain Python floats, stopped once two consecutive steps
  give the same contacts and at most ``MVEE_ITERATION_CAP`` steps,
  answers re-verified exactly, with a sound fallback), and
* ``parallelepiped_cover``: integral parallelepipeds that cover all lattice
  points of the polytope while staying inside it (a one-point cell by
  the point itself, built straight from the lattice's order).

Apart from the ellipsoid's float weights, linear algebra on points and
directions runs in integers only: one fraction-free (Bareiss)
elimination, ``_Frame``, picks independent vectors and keeps the
adjugate and determinant of a nonsingular pivot block.  A
``Parallelepiped`` is such a frame over its directions scaled to
integers, and tests membership as ``|adj . (L p - L c)| <= det`` plus an
integer affine-span check.  ``Parallelepiped.point`` builds a lattice
point's ``k = 0`` element by setting its centre alone.

Everything user-visible is deterministic: lattice points and hull vertices
come back lexicographically sorted, covers are built cell by cell in
signature order.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalError, ResourceError
from .exactmath import ExactLp
from .rational import Rat, ONE, ZERO, rat_ceil, rat_floor, as_int, integer

DEFAULT_LATTICE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _denominator_lcm(values) -> int:
    """Least common multiple of the denominators of exact rationals."""
    scale = 1
    for v in values:
        if type(v) is not int:
            scale = math.lcm(scale, int(Rat(v).denominator))
    return scale


def _scaled(value, scale: int) -> int:
    """``value * scale`` as a plain int; the product must be integral."""
    if type(value) is int:
        return value * scale
    return as_int(Rat(value) * scale)


class _Frame:
    """Independent integer vectors and an exact integer solve against them.

    Built by fraction-free Gauss-Jordan elimination (Bareiss 1968): the
    input vectors are taken in order, and each is kept iff it is
    independent of those kept before it, until ``limit`` are kept.  For
    the ``k`` kept vectors ``vecs``, ``pivots`` names ``k`` coordinates
    whose ``k x k`` block is nonsingular, ``det > 0`` is the absolute value
    of its determinant and ``adj`` the matching adjugate, stored so that
    ``sum_j mu_j vecs[j] = r`` has, if any, the one solution
    ``mu_j = (adj[j] . r[pivots]) / det``.  Every value is a plain int.
    """

    __slots__ = ("vecs", "pivots", "adj", "det")

    def __init__(self, vectors: Iterable[Sequence[int]],
                 limit: Optional[int] = None):
        kept, pivots, reduced, trans = [], [], [], []
        det = 1
        # invariant: reduced = trans . kept, and reduced[t] is det at
        # pivots[t] and 0 at every other pivot
        for vec in vectors:
            if len(kept) == limit:
                break
            vec = tuple(vec)
            coef = [vec[c] for c in pivots]
            row = [det * v for v in vec]
            aug = [0] * len(kept)
            for f, red, tr in zip(coef, reduced, trans):
                if f:
                    row = [a - f * b for a, b in zip(row, red)]
                    aug = [a - f * b for a, b in zip(aug, tr)]
            col = next((i for i, v in enumerate(row) if v), None)
            if col is None:
                continue  # dependent on the kept vectors
            aug.append(det)
            p = row[col]
            # every entry stays a minor of the kept vectors, so the
            # division by the previous determinant is exact
            for t, (red, tr) in enumerate(zip(reduced, trans)):
                f = red[col]
                reduced[t] = [(p * a - f * b) // det for a, b in zip(red, row)]
                trans[t] = [(p * a - f * b) // det for a, b in zip(tr + [0], aug)]
            kept.append(vec)
            pivots.append(col)
            reduced.append(row)
            trans.append(aug)
            det = p
        sign = 1 if det > 0 else -1
        self.vecs = tuple(kept)
        self.pivots = tuple(pivots)
        self.adj = tuple(tuple(sign * tr[j] for tr in trans)
                         for j in range(len(kept)))
        self.det = sign * det

    def solve(self, r: Sequence[int],
              bound: Optional[int] = None) -> Optional[list]:
        """Integers ``num`` with ``sum_j num_j vecs[j] = det * r``, or None.

        Also None as soon as some ``|num_j|`` exceeds ``bound``.
        """
        rp = [r[i] for i in self.pivots]
        num = []
        for row in self.adj:
            v = sum(map(operator.mul, row, rp))
            if bound is not None and abs(v) > bound:
                return None
            num.append(v)
        rest = [self.det * v for v in r]
        for n, vec in zip(num, self.vecs):
            if n:
                rest = [a - n * b for a, b in zip(rest, vec)]
        return None if any(rest) else num


# ---------------------------------------------------------------------------
# polytopes


def _integer_rows(rows, rhs) -> tuple:
    """``(rows, rhs)`` as a list of int tuples and a tuple of ints, each
    value read through ``rational.integer``; ``InputError`` when their
    lengths differ."""
    if len(rows) != len(rhs):
        raise InputError(f"{len(rows)} rows but {len(rhs)} bounds")
    return ([tuple(integer(v, "constraint coefficient") for v in row)
             for row in rows],
            tuple(integer(v, "right-hand side") for v in rhs))


class Polytope:
    """``{x in R^d : A x <= b}`` with integer coefficient rows."""

    def __init__(self, rows: Sequence[Sequence[int]], rhs: Sequence[int]):
        self.A, self.b = _integer_rows(rows, rhs)
        if self.A:
            d = len(self.A[0])
            if any(len(r) != d for r in self.A):
                raise InputError("ragged constraint matrix")
            if d < 1:
                raise InputError("polytope dimension must be at least 1")
            self.dim = d
        else:
            raise InputError("a polytope needs at least one constraint row")
        self.m = len(self.A)
        self._bounds = None
        self._lattice = None
        self._runs = None

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.A == other.A and self.b == other.b

    def __hash__(self):
        return hash((tuple(self.A), self.b))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, rows={len(self.A)})"

    def contains_int(self, point: Sequence[int]) -> bool:
        """Exact membership for an integer point (pure integer arithmetic)."""
        if len(point) != self.dim:
            raise InputError(f"point has dim {len(point)}, polytope {self.dim}")
        for row, b in zip(self.A, self.b):
            if sum(c * x for c, x in zip(row, point)) > b:
                return False
        return True


def bounded_polytope(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                     lo: Sequence, hi: Sequence) -> Polytope:
    """``{x : A x <= b, lo <= x <= hi}``, a None bound leaving its side
    open.

    The rows come first, in the order given, then ``x_j <= hi_j`` and
    ``-x_j <= -lo_j`` for each ``j`` in turn; keep that order, since
    Bland's rule pivots by row index.  The rows and right-hand sides are
    read, and their lengths compared, before any bound row is added.
    ``InputError`` when ``lo`` and ``hi`` differ in length.
    """
    rows, rhs = _integer_rows(rows, rhs)
    if len(lo) != len(hi):
        raise InputError(f"box sides {tuple(lo)} and {tuple(hi)} differ in "
                         f"length")
    rhs = list(rhs)
    for j, (low, high) in enumerate(zip(lo, hi)):
        for sign, bound in ((1, high), (-1, low)):
            if bound is not None:
                unit = [0] * len(lo)
                unit[j] = sign
                rows.append(unit)
                rhs.append(sign * bound)
    return Polytope(rows, rhs)


def box_polytope(lo: Sequence[int], hi: Sequence[int]) -> Polytope:
    """The box ``lo <= x <= hi``, written by ``bounded_polytope`` with no
    other row.  A non-empty box knows its coordinate bounds, so
    ``coordinate_bounds`` solves no LP for it.
    """
    box = bounded_polytope([], [], lo, hi)
    if all(a <= b for a, b in zip(lo, hi)):
        box._bounds = [(Rat(a), Rat(b)) for a, b in zip(lo, hi)]
    return box


def down_closed_polytope(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                         box: Sequence[int]) -> Polytope:
    """``{x : A x <= b, 0 <= x <= box}`` for load rows with non-negative
    coefficients and right-hand sides, and a non-negative box; anything
    negative raises ``InternalError``.

    ``bounded_polytope`` writes it: the load rows in the order given, then
    ``x_j <= box_j`` and ``-x_j <= 0`` for each ``j`` in turn.  The
    polytope holds 0 and is down-closed in the orthant, so coordinate
    ``j`` ranges exactly over ``[0, min(box_j, min_i b_i / a_ij)]`` on the
    rows with ``a_ij > 0`` (the upper end is attained on the axis).  It
    knows those bounds, so ``coordinate_bounds`` solves no LP for it.
    """
    poly = bounded_polytope(rows, rhs, [0] * len(box), box)
    loads = len(rows)
    top = _least_ratios(poly.A[:loads], poly.b, poly.b[loads::2])
    poly._bounds = [(ZERO, Rat(*t)) for t in top]
    return poly


def _least_ratios(rows, rhs, box) -> list:
    """Per coordinate ``j`` of a down-closed part, the ``(b_i, a_ij)`` of
    least ratio over ``(box_j, 1)`` and the rows with ``a_ij > 0``;
    ``InputError`` when a row's length is not the box's, as ``Polytope``
    refuses a ragged matrix, and ``InternalError`` when the box, a row or
    its bound is negative."""
    if min(box, default=0) < 0:
        raise InternalError(f"down-closed polytope has box {tuple(box)}")
    top = [(v, 1) for v in box]
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) != len(top):
            raise InputError("ragged constraint matrix")
        if b < 0 or min(row) < 0:
            raise InternalError(f"row {i} of a down-closed polytope is "
                                f"{tuple(row)} <= {b}")
        for j, c in enumerate(row):
            if c and b * top[j][1] < top[j][0] * c:
                top[j] = (b, c)
    return top


def coordinate_bounds(poly: Polytope):
    """Exact per-coordinate ranges.

    Returns a list of ``(lo, hi)`` pairs of rationals, with ``None`` marking
    an unbounded side, or ``None`` altogether when the polytope is empty.
    Cached on the polytope.  One tableau serves every side: phase 1 runs
    once, then each objective is optimized from the last one's basis (an
    unbounded side leaves the basis as it was).  Optimal values are unique,
    so the bounds do not depend on the basis a solve starts from.
    """
    if poly._bounds is not None:
        return poly._bounds if poly._bounds != "empty" else None
    lp = ExactLp(poly.A, poly.b)
    if not lp.find_feasible():
        poly._bounds = "empty"
        return None
    out = []
    for j in range(poly.dim):
        c = [0] * poly.dim
        c[j] = 1
        # an unbounded side comes back as (UNBOUNDED, None)
        out.append(tuple(lp.optimize(c, sense)[1] for sense in ("min", "max")))
    poly._bounds = out
    return out


def integer_box(poly: Polytope):
    """``coordinate_bounds`` rounded inward to ``(lo, hi)`` int pairs.

    Returns ``None`` when the polytope is empty or when some coordinate's
    range holds no integer, so the polytope holds no lattice point.  Reads
    the coordinates in order and raises ``InputError`` at the first one
    that is unbounded.
    """
    bounds = coordinate_bounds(poly)
    if bounds is None:
        return None
    out = []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None or hi is None:
            raise InputError(f"polytope is unbounded in coordinate {j}")
        a, b = rat_ceil(lo), rat_floor(hi)
        if a > b:
            return None
        out.append((a, b))
    return out


def _axis_box(poly: Polytope):
    """The integer box that the polytope's axis rows give, or None.

    An axis row has exactly one non-zero coefficient.  For each
    coordinate ``j`` the tightest ``c x_j <= b`` of each sign is kept,
    rounded inward: ``b // c`` above for ``c > 0`` and ``-(b // -c)``
    below for ``c < 0``; a side no axis row bounds is None.  Returns None
    when some coordinate's sides cross, so the polytope holds no lattice
    point.  Every lattice point of the polytope lies in the box.
    """
    lo = [None] * poly.dim
    hi = [None] * poly.dim
    for row, b in zip(poly.A, poly.b):
        nonzero = [j for j, c in enumerate(row) if c]
        if len(nonzero) != 1:
            continue
        j = nonzero[0]
        c = row[j]
        if c > 0:
            v = b // c
            if hi[j] is None or v < hi[j]:
                hi[j] = v
        else:
            v = -(b // -c)
            if lo[j] is None or v > lo[j]:
                lo[j] = v
    if any(a is not None and z is not None and a > z for a, z in zip(lo, hi)):
        return None
    return list(zip(lo, hi))


def _box_size(box) -> Optional[int]:
    """The number of integer points of ``(lo, hi)`` pairs, or None when a
    side is unbounded (None)."""
    if any(None in side for side in box):
        return None
    return math.prod(b - a + 1 for a, b in box)


def lattice_points(poly: Polytope) -> list:
    """All integer points of a bounded polytope, lexicographically sorted.

    The enumeration box comes from the polytope's axis rows
    (``_axis_box``), with no LP.  When those rows leave some coordinate
    no integer, the answer is ``[]`` at once.  When they leave a side
    unbounded, or give a box of more than ``DEFAULT_LATTICE_BUDGET``
    points (read at call time), the box is the polytope's
    ``integer_box`` instead, which solves the exact bound LP unless the
    polytope knows its bounds.  So the cap is measured on that LP box
    whenever the axis box is over it: the call raises ``InputError`` on
    unbounded input, and ``ResourceError`` when the LP box holds more
    than ``DEFAULT_LATTICE_BUDGET`` points.  The points are cached on the
    polytope, so the cap applies to its first enumeration.

    Either box already implies every axis row (an axis row bounds only its
    own coordinate, and both boxes round those bounds inward), so only the
    other rows are tested.  The search fixes the coordinates in order,
    depth first.  At each depth a row ``i`` with coefficient ``c`` still
    admits the value ``v`` iff ``c v <= room``, where ``room`` is the
    row's slack after the fixed coordinates less the least the later
    coordinates can add over the box.  That test is linear in ``v``, so
    the admitted values form one integer interval: ``v <= room // c`` for
    ``c > 0``, ``v >= -(room // -c)`` for ``c < 0``, and nothing at all
    when ``c == 0`` and ``room < 0``.  Each depth intersects these
    intervals with the box range and descends into every value of the
    result, so no value that fails a row is tried, and the points come out
    sorted.  Each row is tested exactly at its last non-zero depth, so any
    box that holds the lattice gives the same points; a loose axis box is
    tightened through the other rows, depth by depth.

    The last depth admits one interval per prefix, a run along the last
    coordinate.  The runs are kept on the polytope beside the points, as
    ``(prefix, lo, hi)`` in the points' order, for ``integer_hull_vertices``.
    """
    if poly._lattice is not None:
        return poly._lattice
    box = _axis_box(poly)
    if box is not None:
        size = _box_size(box)
        if size is None or size > DEFAULT_LATTICE_BUDGET:
            box = integer_box(poly)
            if box is not None:
                _check_budget(_box_size(box))
    if box is None:
        poly._lattice, poly._runs = [], []
        return []
    # the rows the box does not imply: all but the axis rows
    poly._lattice, poly._runs = _interval_search(
        box, [(row, b) for row, b in zip(poly.A, poly.b)
              if len(row) - row.count(0) != 1])
    return poly._lattice


def _check_budget(size: int) -> None:
    """``ResourceError`` when an enumeration box of ``size`` points exceeds
    ``DEFAULT_LATTICE_BUDGET``, read at call time."""
    if size > DEFAULT_LATTICE_BUDGET:
        raise ResourceError("lattice enumeration budget",
                            DEFAULT_LATTICE_BUDGET,
                            f"bounding box holds {size} points")


def down_closed_lattice(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                        box: Sequence[int]) -> list:
    """The points that ``lattice_points(down_closed_polytope(rows, rhs,
    box))`` lists, with no polytope built.

    The rows, right-hand sides and box are read through
    ``rational.integer``, as ``Polytope`` reads them, and the same shape
    and non-negativity checks raise ``InputError`` and ``InternalError``.
    The box is the polytope's exact integer box, ``min(box_j, b_i //
    a_ij)`` over the rows with ``a_ij > 0``, so the same
    ``DEFAULT_LATTICE_BUDGET`` cap applies to it, and the search tests the
    load rows alone.
    """
    rows, rhs = _integer_rows(rows, rhs)
    box = [integer(v, "box side") for v in box]
    top = [b // c for b, c in _least_ratios(rows, rhs, box)]
    _check_budget(math.prod(v + 1 for v in top))
    return _interval_search([(0, v) for v in top], list(zip(rows, rhs)))[0]


def _interval_search(box, rows) -> tuple:
    """``(points, runs)``: the integer points of the box that meet every
    ``(row, b)`` of ``rows``, depth first as ``lattice_points`` describes,
    and their runs along the last coordinate."""
    d = len(box)
    # floor[i]: the least the coordinates from the current depth on can
    # add to row i over the box, filled from the last depth back; each
    # depth keeps (row, coefficient, floor after this depth) for its
    # nonzero coefficients
    floor = [0] * len(rows)
    active = [None] * d
    for depth in range(d - 1, -1, -1):
        lo, hi = box[depth]
        active[depth] = terms = []
        for i, (row, _b) in enumerate(rows):
            c = row[depth]
            if c:
                terms.append((i, c, floor[i]))
                floor[i] += c * lo if c > 0 else c * hi
    # the interval test skips a row where its coefficient is zero: the row
    # passed at its last earlier nonzero depth, whose floor covers this
    # one; a row whose leading coefficients are zero has no such depth,
    # so it is checked once here, at the root
    if any(b < f for (_row, b), f in zip(rows, floor)):
        return [], []
    out, runs = [], []
    last = d - 1

    def descend(depth, prefix, room):
        lo, hi = box[depth]
        terms = active[depth]
        for i, c, f in terms:
            r = room[i] - f
            if c > 0:
                top = r // c
                if top < hi:
                    hi = top
            else:
                bottom = -(r // -c)
                if bottom > lo:
                    lo = bottom
        if lo > hi:
            return
        if depth == last:
            runs.append((prefix, lo, hi))
            out.extend([prefix + (v,) for v in range(lo, hi + 1)])
            return
        for v in range(lo, hi + 1):
            left = list(room)
            for i, c, _f in terms:
                left[i] -= c * v
            descend(depth + 1, prefix + (v,), left)

    descend(0, (), [b for _row, b in rows])
    return out, runs


# ---------------------------------------------------------------------------
# exact convex hulls


def in_convex_hull(point: Sequence, points: Sequence[Sequence]) -> bool:
    """Exact test: is ``point`` a convex combination of ``points``?"""
    pts = list(points)
    if not pts:
        return False
    d = len(point)
    if any(len(p) != d for p in pts):
        raise InputError("dimension mismatch in hull membership test")
    rhs = list(point) + [1]
    n = len(pts)
    rows = [[p[k] for p in pts] for k in range(d)]
    rows.append([1] * n)
    lp = ExactLp(rows, rhs, senses=["=="] * (d + 1), lo=[0] * n)
    return lp.find_feasible()


def _chart(points):
    """Affine chart of integer points: the first point and a frame of the
    differences to it, kept in order until they span the affine hull."""
    base = points[0]
    diffs = (tuple(a - b for a, b in zip(p, base)) for p in points[1:])
    return base, _Frame(diffs, limit=len(base))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d_vertices(coords):
    """Vertices of the convex hull of exact 2-d points (monotone chain).

    Collinear boundary points are dropped: only true vertices remain.
    Returns indices into ``coords``.
    """
    order = sorted(range(len(coords)), key=lambda i: coords[i])
    # dedup identical coordinates
    uniq = []
    for i in order:
        if not uniq or coords[i] != coords[uniq[-1]]:
            uniq.append(i)
    if len(uniq) <= 2:
        return uniq
    lower = []
    for i in uniq:
        while len(lower) >= 2 and _cross(coords[lower[-2]], coords[lower[-1]], coords[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(uniq):
        while len(upper) >= 2 and _cross(coords[upper[-2]], coords[upper[-1]], coords[i]) <= 0:
            upper.pop()
        upper.append(i)
    return sorted(set(lower[:-1] + upper[:-1]))


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _hull_3d_vertices(coords):
    """Vertices of the convex hull of distinct 3-d integer points, or None
    when the points have rank below 3.

    Beneath-beyond (Preparata & Shamos 1985, ch. 3) on integer
    orientation determinants.  The points are inserted farthest from
    their centroid first, by the integer squared distance ``|m p - s|^2``
    for ``m`` points summing to ``s``, ties broken by index: the first
    points inserted are then mostly hull vertices, so the hull grows to
    nearly its final shape early and a later inner point sees no
    triangle.  The hull is kept as outward triangles
    ``(u, v, w, nx, ny, nz, h)``: ``n`` is the normal ``(v - u) x (w - u)``
    and the triangle's plane is ``n.x = h``.  It starts from the first
    four affinely independent points in insertion order, and there are
    none when the rank is below 3; each later point ``q`` removes the
    triangles that see it (``n.q > h``) and closes the hole with triangles
    from ``q`` to the horizon edges; both run inline on the coordinates,
    once per triangle.
    A triangle whose plane holds ``q`` stays, so a face may be split into
    several coplanar triangles.  At the end a point is a hull vertex iff
    its triangles lie on at least three distinct planes; on one it is
    inside a face, on two inside an edge.  The vertex set does not depend
    on the insertion order.  Returns sorted indices into ``coords``.
    """
    size = len(coords)
    sx, sy, sz = map(sum, zip(*coords))

    def spread(i):
        x, y, z = coords[i]
        return ((size * x - sx) ** 2 + (size * y - sy) ** 2
                + (size * z - sz) ** 2)

    # a stable sort, so ties keep their index order
    order = sorted(range(size), key=spread, reverse=True)
    c = [coords[i] for i in order]
    first = [0, 1]
    u = _sub(c[1], c[0])
    i = next((i for i in range(2, size)
              if any(_cross3(u, _sub(c[i], c[0])))), None)
    if i is None:
        return None  # collinear
    n = _cross3(u, _sub(c[i], c[0]))
    j = next((j for j in range(i + 1, size) if _dot3(n, _sub(c[j], c[0]))),
             None)
    if j is None:
        return None  # coplanar
    first += [i, j]

    def triangle(a, b, e):
        n = _cross3(_sub(c[b], c[a]), _sub(c[e], c[a]))
        return (a, b, e, *n, _dot3(n, c[a]))

    tris = []
    for a, b, e, o in ((first[0], first[1], first[2], first[3]),
                       (first[0], first[1], first[3], first[2]),
                       (first[0], first[2], first[3], first[1]),
                       (first[1], first[2], first[3], first[0])):
        t = triangle(a, b, e)
        tris.append(t if _dot3(t[3:6], c[o]) < t[6] else triangle(a, e, b))
    for q in range(len(c)):
        if q in first:
            continue
        px, py, pz = c[q]
        seen, kept = [], []
        for t in tris:
            (seen if t[3] * px + t[4] * py + t[5] * pz > t[6]
             else kept).append(t)
        if not seen:
            continue
        edges = {e for t in seen
                 for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))}
        for a, b in edges:
            if (b, a) in edges:
                continue
            ax, ay, az = c[a]
            bx, by, bz = c[b]
            ux, uy, uz = bx - ax, by - ay, bz - az
            vx, vy, vz = px - ax, py - ay, pz - az
            nx = uy * vz - uz * vy
            ny = uz * vx - ux * vz
            nz = ux * vy - uy * vx
            kept.append((a, b, q, nx, ny, nz, nx * ax + ny * ay + nz * az))
        tris = kept
    planes: dict = {}
    for a, b, e, nx, ny, nz, _h in tris:
        g = math.gcd(nx, ny, nz)
        n = (nx // g, ny // g, nz // g)
        for v in (a, b, e):
            planes.setdefault(v, set()).add(n)
    return sorted(order[v] for v, normals in planes.items()
                  if len(normals) >= 3)


def extreme_points(points: Iterable[Sequence[int]]) -> list:
    """Vertices of the convex hull of a finite integer point set.

    Exact in every dimension; a non-integral coordinate, or points of
    mixed dimension, raise ``InputError``.  The points are made distinct
    int tuples and sorted, then read as column runs (``_column_runs``)
    and handed to ``_hull_of_runs``.  Sorted lexicographically.
    """
    ptset = set(map(tuple, points))
    if len(set(map(len, ptset))) > 1:
        raise InputError("hull points of mixed dimension")
    if not set(map(type, chain.from_iterable(ptset))) <= {int}:
        ptset = {tuple(integer(v, "hull point coordinate") for v in p)
                 for p in ptset}
    pts = sorted(ptset)
    if not pts or not pts[0]:
        return pts  # no point, or the one 0-dimensional point
    return _hull_of_runs(_column_runs(pts))


def _column_runs(pts: list) -> list:
    """The column runs of sorted, distinct int tuples of one dimension
    ``d >= 1``: ``(prefix, lo, hi)`` for each ``(d - 1)``-prefix, with
    the least and greatest last coordinate under it, in the points'
    order.  A line meets a polytope in one interval, so for a polytope's
    lattice these are the runs that ``lattice_points`` keeps.  For any
    other set a run may skip values; a hull vertex never lies between
    two points of its run, so ``_hull_of_runs`` reads the ends alone."""
    runs = []
    for p in pts:
        head, v = p[:-1], p[-1]
        if runs and runs[-1][0] == head:
            runs[-1] = (head, runs[-1][1], v)
        else:
            runs.append((head, v, v))
    return runs


def _hull_of_runs(runs: list) -> list:
    """Vertices of the convex hull of the points that column runs span.

    ``runs`` are ``(prefix, lo, hi)`` in sorted order, one per prefix, as
    ``_column_runs`` or ``lattice_points`` gives them; ``prefix + (lo,)``
    and ``prefix + (hi,)`` are points, and only they can be vertices.  An
    end ``(prefix, v)`` is also pruned when, along some other axis ``t``,
    the runs at ``prefix - e_t`` and ``prefix + e_t`` both span ``v``: it
    is then the midpoint of ``prefix -+ e_t`` with ``v``, each in the hull
    of its run.  Each run looks its neighbours up once for both of its
    ends, from the last prefix axis back, until both ends are pruned.
    Dropping non-vertices keeps the hull, so the ends left keep every
    vertex, in sorted order, and go to ``_hull_of_candidates``.
    """
    span = {prefix: (lo, hi) for prefix, lo, hi in runs}
    cands = []
    for prefix, lo, hi in runs:
        keep_lo = keep_hi = True
        t = len(prefix)
        while t and (keep_lo or keep_hi):
            t -= 1
            x = prefix[t]
            head, tail = prefix[:t], prefix[t + 1:]
            below = span.get(head + (x - 1,) + tail)
            if below is None:
                continue
            above = span.get(head + (x + 1,) + tail)
            if above is None:
                continue
            (a, b), (c, e) = below, above
            if a <= lo <= b and c <= lo <= e:
                keep_lo = False
            if a <= hi <= b and c <= hi <= e:
                keep_hi = False
        if keep_lo:
            cands.append(prefix + (lo,))
        if keep_hi and hi != lo:
            cands.append(prefix + (hi,))
    return _hull_of_candidates(cands)


def _hull_of_candidates(pts: list) -> list:
    """Vertices of the convex hull of sorted, distinct int tuples that
    keep every vertex of their hull.

    Rank 1 takes the two ends.  Three-dimensional points go straight to
    ``_hull_3d_vertices``, which answers at full rank.  Otherwise rank 2
    runs a monotone chain and rank 3 ``_hull_3d_vertices``, on integer
    coordinates in the points' affine hull (``_chart``) below full rank.
    Higher ranks settle the candidates with exact LP membership tests.
    Sorted lexicographically.
    """
    if len(pts) <= 2:
        return pts
    if len(pts[0]) == 3:
        hull = _hull_3d_vertices(pts)
        if hull is not None:
            return [pts[i] for i in hull]
    base, frame = _chart(pts)
    k = len(frame.vecs)
    if k == 1:
        return [pts[0], pts[-1]]  # a line's points in lexicographic order
    if k <= 3:
        coords = pts
        if k < len(base):
            # chart coordinates times det > 0 keep every orientation
            coords = []
            for p in pts:
                num = frame.solve([a - b for a, b in zip(p, base)])
                if num is None:
                    raise InternalError("point escaped its own affine hull")
                coords.append(tuple(num))
        hull = _hull_2d_vertices if k == 2 else _hull_3d_vertices
        return [pts[i] for i in hull(coords)]
    # rank >= 4: iterative filtering, since removing a non-vertex never
    # changes the hull
    survivors = pts
    i = 0
    while i < len(survivors):
        p = survivors[i]
        others = survivors[:i] + survivors[i + 1:]
        if in_convex_hull(p, others):
            survivors.pop(i)
        else:
            i += 1
    return sorted(survivors)


def integer_hull_vertices(poly: Polytope) -> list:
    """Vertices of the convex hull of the polytope's lattice points (within
    the lattice cap of ``lattice_points``).

    The hull is read from the column runs that ``lattice_points`` keeps
    beside the points (``_hull_of_runs``).
    """
    lattice_points(poly)
    return _hull_of_runs(poly._runs)


# ---------------------------------------------------------------------------
# slack-interval grid and cells

# dim -> (ceilings of r^0, r^1, ..., the last power r^i itself)
_grid_cache: dict = {}


def slack_interval_index(slack: int, dim: int) -> int:
    """Index of the slack interval a nonnegative integer slack falls into.

    Interval endpoints: ``0, r^-1, 1, r, r^2, ...`` with ``r = 1 + 1/dim^2``.
    The index is the largest j with endpoint_j <= slack, so two integer
    slacks share an interval only if they agree within a factor r (slacks 0
    and 1 sit in intervals of their own).  For an integer slack,
    ``r^i <= slack`` iff ``ceil(r^i) <= slack``, so the search runs on the
    cached integer ceilings.  Both arguments are read through
    ``rational.integer``.
    """
    slack = integer(slack, "slack")
    dim = integer(dim, "dimension")
    if slack < 0:
        raise InputError("negative slack")
    if dim < 1:
        raise InputError("dimension must be positive")
    if slack == 0:
        return 0
    if slack == 1:
        return 2
    ceils, power = _grid_cache.get(dim, ([1], ONE))
    if ceils[-1] <= slack:
        r = Rat(dim * dim + 1, dim * dim)
        while ceils[-1] <= slack:
            power *= r
            ceils.append(int(rat_ceil(power)))
        _grid_cache[dim] = (ceils, power)
    # (largest i with ceil(r^i) <= slack) + 2
    return bisect_right(ceils, slack) + 1


class _SlackIndex(dict):
    """``slack -> slack_interval_index(slack, dim)``, filled on a miss."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, slack):
        self[slack] = j = slack_interval_index(slack, self.dim)
        return j


def cell_partition(poly: Polytope) -> list:
    """Group the lattice points by their slack-signature.

    Returns the cells as sorted tuples of lattice points, in ascending
    signature order, where a point's signature holds one interval index
    per constraint row.  Every lattice point lands in exactly one cell,
    and two points share a cell iff every one of their slacks falls in
    the same grid interval.

    When the leading axis rows separate every coordinate over the axis
    box, each point is a cell of its own, in the order ``_point_order``
    gives; otherwise ``_slack_cells`` folds the rows into keys.
    """
    pts = lattice_points(poly)  # sorted, so every cell's members are too
    if not pts:
        return []
    order = _point_order(poly, pts)
    if order is not None:
        return list(zip(order))
    return _slack_cells(poly, pts)


def _point_order(poly: Polytope, pts: list) -> Optional[list]:
    """The sorted lattice ``pts`` in signature order when every cell is a
    single point, decided from the rows and the axis box alone; else None.

    An axis row (one non-zero coefficient) separates its coordinate when
    its slacks over the coordinate's range in ``_axis_box`` fall in
    distinct intervals.  The index is monotone in the slack, so this is
    exact for any values the lattice takes, and neighbours suffice.  The
    rows are read in order, skipping those on separated coordinates; a
    cut row or a non-separating row first gives None.  The order is
    lexicographic in ``-x_j`` (positive coefficient) or ``x_j`` over the
    separating rows: ``pts`` reversed for ``x_0, x_1, ... <= b``.
    """
    box = _axis_box(poly)
    if box is None:
        return None
    index = _SlackIndex(poly.dim)
    pending = set(range(poly.dim))
    axes = []
    for row, b in zip(poly.A, poly.b):
        terms = [(j, c) for j, c in enumerate(row) if c]
        if len(terms) != 1:
            return None
        (j, c), = terms
        if j not in pending:
            continue
        lo, hi = box[j]
        if lo is None or hi is None:
            return None
        last = -1
        for x in (range(hi, lo - 1, -1) if c > 0 else range(lo, hi + 1)):
            i = index[b - c * x]
            if i == last:
                return None
            last = i
        pending.discard(j)
        axes.append((j, c))
        if not pending:
            break
    if pending:
        return None
    if ([j for j, _c in axes] == list(range(poly.dim))
            and all(c > 0 for _j, c in axes)):
        return pts[::-1]
    return sorted(pts, key=lambda p: tuple(
        -p[j] if c > 0 else p[j] for j, c in axes))


def _slack_cells(poly: Polytope, pts: list) -> list:
    """``cell_partition`` of the non-empty sorted lattice ``pts``.

    Each row's interval indices are folded into one int key per point in
    mixed radix, so the keys sort as the signatures do.  A row whose
    digit the earlier digits already fix moves no cell and no order.
    """
    index = _SlackIndex(poly.dim)
    keys = [0] * len(pts)
    for row, b in zip(poly.A, poly.b):
        column = [index[b - sum(map(operator.mul, row, p))] for p in pts]
        base = max(column) + 1
        keys = [k * base + g for k, g in zip(keys, column)]
    cells: dict = {}
    for k, p in zip(keys, pts):
        cells.setdefault(k, []).append(p)
    return [tuple(cells[k]) for k in sorted(cells)]


# ---------------------------------------------------------------------------
# parallelepipeds


class Parallelepiped(_Frame):
    """``{center + sum_i mu_i * dir_i : -1 <= mu_i <= 1}`` with integral vertices.

    The directions must be linearly independent and every one of the
    ``2^k`` vertices must be an integer point; both are validated on
    construction.  ``k = 0`` is the degenerate single-point case.

    Held in integers only: ``center`` and the directions are scaled by the
    lcm ``L`` of their denominators, and the frame of the scaled directions
    keeps the adjugate ``adj`` and determinant ``det > 0`` of a nonsingular
    ``k x k`` pivot block.  A point ``p`` is inside iff, with
    ``r = L p - L center`` and ``num = adj . r[pivots]``, every
    ``|num_j| <= det`` and ``sum_j num_j (L dir_j) = det * r`` on every
    coordinate (the affine-span test); then ``mu = num / det``.

    ``Parallelepiped.point`` builds the single-point element of a lattice
    point without the elimination or the checks, as a private subclass
    whose ``k = 0`` constants are class attributes.
    """

    __slots__ = ("_scale", "_center")

    def __init__(self, center: Sequence, directions: Sequence[Sequence]):
        center = tuple(center)
        directions = [tuple(d) for d in directions]
        for dvec in directions:
            if len(dvec) != len(center):
                raise InputError("direction dimension mismatch")
            if all(v == 0 for v in dvec):
                raise InputError("zero direction vector")
        scale = _denominator_lcm(chain(center, *directions))
        super().__init__(tuple(_scaled(v, scale) for v in d) for d in directions)
        if len(self.vecs) < len(directions):
            raise InputError("directions are linearly dependent")
        self._scale = scale
        self._center = tuple(_scaled(v, scale) for v in center)
        self.vertices()  # validates integrality eagerly

    @staticmethod
    def point(p: tuple) -> "Parallelepiped":
        """The ``k = 0`` element at the int tuple ``p``, taken as it is:
        ``L = det = 1`` and empty ``vecs``, ``pivots`` and ``adj``."""
        pp = object.__new__(_PointElement)
        pp._center = p
        return pp

    @property
    def center(self) -> tuple:
        return tuple(Rat(v, self._scale) for v in self._center)

    @property
    def directions(self) -> tuple:
        return tuple(tuple(Rat(v, self._scale) for v in d) for d in self.vecs)

    @property
    def k(self) -> int:
        return len(self.vecs)

    @property
    def dim(self) -> int:
        return len(self._center)

    def __eq__(self, other):
        return (isinstance(other, Parallelepiped)
                and self._scale == other._scale
                and self._center == other._center
                and self.vecs == other.vecs)

    def __hash__(self):
        return hash((self._scale, self._center, self.vecs))

    def __repr__(self):
        return f"Parallelepiped(center={self.center}, k={self.k})"

    def corner(self, signs: Sequence[int]) -> tuple:
        """The corner ``center + sum_i signs[i] * dir_i``, each sign +-1,
        as an integer tuple; ``InputError`` when it is not integral."""
        corner = list(self._center)
        for sign, dvec in zip(signs, self.vecs):
            for i, v in enumerate(dvec):
                corner[i] += sign * v
        scale = self._scale
        if any(x % scale for x in corner):
            raise InputError("non-integral parallelepiped vertex "
                             f"{tuple(Rat(x, scale) for x in corner)}")
        return tuple(x // scale for x in corner)

    def vertices(self) -> list:
        """All ``2^k`` sign-pattern corners as integer tuples, sorted."""
        if not self.vecs and self._scale == 1:
            return [self._center]
        return sorted({self.corner(signs)
                       for signs in product((1, -1), repeat=len(self.vecs))})

    def _numerators(self, point: Sequence) -> Optional[tuple]:
        """``(num, den)`` with ``mu = num / den`` if the point is inside."""
        if len(point) != self.dim:
            raise InputError("point dimension mismatch")
        q = _denominator_lcm(point)  # 1 for an integer point
        scale = q * self._scale
        r = [_scaled(x, scale) - q * c for x, c in zip(point, self._center)]
        den = q * self.det
        num = self.solve(r, den)
        return None if num is None else (num, den)

    def contains(self, point: Sequence) -> bool:
        """Exact membership test, in integer arithmetic."""
        return self._numerators(point) is not None


class _PointElement(Parallelepiped):
    """A ``Parallelepiped.point`` element: its ``k = 0`` constants are the
    class's, so an instance holds only ``_center``."""

    __slots__ = ()
    vecs = pivots = adj = ()
    det = _scale = 1


# ---------------------------------------------------------------------------
# ellipsoid contact points


@dataclass(frozen=True)
class EllipsoidResult:
    """Contact points of a centrally symmetric enclosing ellipsoid.

    ``contact_indices`` select input points such that the symmetric hull of
    ``center +- scale * (point - center)`` over the contacts provably
    contains every input point (verified with exact arithmetic).
    ``used_fallback`` reports that the float iteration's contact set failed
    exact verification and all points were kept instead.
    """

    contact_indices: tuple
    dim: int
    scale: int
    iterations: int
    used_fallback: bool


MVEE_TOLERANCE = 1e-9
MVEE_ITERATION_CAP = 1_000


def _ceil_sqrt(t: int) -> int:
    c = math.isqrt(t)
    return c if c * c >= t else c + 1


def _float_solve(m: list, rhs: list) -> Optional[list]:
    """``X`` with ``m X = rhs`` for a square float matrix ``m``, by
    Gauss-Jordan elimination with partial pivoting; None at a zero pivot."""
    t = len(m)
    aug = [list(row) + list(b) for row, b in zip(m, rhs)]
    for col in range(t):
        piv = max(range(col, t), key=lambda r: abs(aug[r][col]))
        if aug[piv][col] == 0.0:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        prow = aug[col] = [v / p for v in aug[col]]
        for r in range(t):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], prow)]
    return [row[t:] for row in aug]


def mvee_contact_points(points: Sequence[Sequence], center: Sequence) -> EllipsoidResult:
    """Contact points of the minimum-volume origin-symmetric enclosing ellipsoid.

    ``points`` must be integer points symmetric about the integer
    ``center`` (pairs ``center +- u``).  The ellipsoid's weights come from
    Khachiyan's iteration with the step of Todd and Yildirim, on plain
    Python floats.  The contacts are the heaviest points, at most
    ``dim (dim + 3) / 2`` of them.  The loop stops at the tolerance, once
    two consecutive steps give the same contacts, or after
    ``MVEE_ITERATION_CAP`` steps.  The returned contact set is certified
    exactly: every input point is re-verified to lie in the
    ``ceil(sqrt(dim))``-scaled symmetric hull of the contacts, and on any
    failure the full point set is returned as the (trivially sufficient)
    contact set.
    """
    pts = [tuple(integer(v, "point coordinate") for v in p) for p in points]
    ctr = tuple(integer(v, "center coordinate") for v in center)
    ptset = set(pts)
    for p in pts:
        mirror = tuple(2 * c - x for c, x in zip(ctr, p))
        if mirror not in ptset:
            raise InputError("point set is not symmetric about the center")
    diffs = [tuple(x - c for x, c in zip(p, ctr)) for p in pts]
    frame = _Frame((v for v in diffs if any(v)), limit=len(ctr))
    t = len(frame.vecs)
    scale = max(1, _ceil_sqrt(t))
    if t == 0:
        return EllipsoidResult((), 0, scale, 0, False)
    coords = []
    for v in diffs:
        num = frame.solve(v)
        if num is None:
            raise InternalError("symmetric point escaped its own span")
        coords.append(num)

    nz = [i for i, c in enumerate(coords) if any(c)]
    V = [[x / frame.det for x in coords[i]] for i in nz]
    VT = list(zip(*V))
    n = len(nz)
    w = [1.0 / n] * n
    max_contacts = t * (t + 3) // 2

    def chosen(w):
        # the heaviest points, at most max_contacts, in input order
        order = sorted(range(n), key=lambda i: (-w[i], i))
        return sorted([nz[i] for i in order if w[i] > 1e-8][:max_contacts])

    iterations = 0
    ok = True
    previous = None  # the contacts after the last step
    for iterations in range(1, MVEE_ITERATION_CAP + 1):
        M = [[sum(v[a] * (v[b] * wi) for v, wi in zip(V, w)) for b in range(t)]
             for a in range(t)]
        X = _float_solve(M, VT)
        if X is None:
            ok = False
            break
        g = [sum(v[a] * X[a][i] for a in range(t)) for i, v in enumerate(V)]
        kappa = max(g)
        kidx = g.index(kappa)
        if kappa <= t * (1.0 + MVEE_TOLERANCE):
            break
        beta = (kappa - t) / (t * (kappa - 1.0))
        if not (0.0 < beta < 1.0):
            ok = False
            break
        w = [wi * (1.0 - beta) for wi in w]
        w[kidx] += beta
        step_contacts = chosen(w)
        if step_contacts == previous:
            break
        previous = step_contacts

    contacts: list = []
    if ok:
        contacts = chosen(w)
        if not _verify_contact_hull(pts, ctr, contacts, scale):
            ok = False
    if not ok:
        contacts = sorted(nz)
        if not _verify_contact_hull(pts, ctr, contacts, scale):
            raise InternalError("full contact set failed hull verification")
        return EllipsoidResult(tuple(contacts), t, scale, iterations, True)
    return EllipsoidResult(tuple(contacts), t, scale, iterations, False)


def _verify_contact_hull(pts, ctr, contacts, scale) -> bool:
    if not contacts:
        return all(p == ctr for p in pts)
    gens = []
    for i in contacts:
        u = tuple(x - c for x, c in zip(pts[i], ctr))
        gens.append(tuple(c + scale * v for c, v in zip(ctr, u)))
        gens.append(tuple(c - scale * v for c, v in zip(ctr, u)))
    gens = sorted(set(gens))
    return all(in_convex_hull(p, gens) for p in pts)


# ---------------------------------------------------------------------------
# the cover construction


def _cell_parallelepipeds(poly: Polytope, members: tuple) -> list:
    """Cover a cell of two or more lattice points with integral
    parallelepipeds in P."""
    x0 = members[0]
    verts = _hull_of_runs(_column_runs(members))
    k = len(_chart(verts)[1].vecs)  # the vertices span the cell's affine hull
    if k == 1:
        e1, e2 = verts[0], verts[-1]
        center = tuple(Rat(a + b, 2) for a, b in zip(e1, e2))
        direction = tuple(Rat(b - a, 2) for a, b in zip(e1, e2))
        pp = Parallelepiped(center, (direction,))
        if not all(poly.contains_int(v) for v in pp.vertices()):
            raise InternalError("segment cover left the polytope")
        return [pp]

    scale = _ceil_sqrt(k)

    def directions_from(contact_points):
        dirs = []
        seen = set()
        for q in contact_points:
            u = tuple(a - b for a, b in zip(q, x0))
            if not any(u):
                continue
            canon = u if u > (0,) * len(u) else tuple(-v for v in u)
            if canon not in seen:
                seen.add(canon)
                dirs.append(canon)
        return dirs

    def try_cover(dirs):
        uncovered = set(members)
        kept = []
        for size in range(1, k + 1):
            if not uncovered:
                break
            for combo in combinations(range(len(dirs)), size):
                if not uncovered:
                    break
                chosen = [dirs[i] for i in combo]
                if len(_Frame(chosen).vecs) < size:
                    continue
                pp = None
                for c in range(scale, 0, -1):
                    cand_dirs = tuple(tuple(c * v for v in u) for u in chosen)
                    cand = Parallelepiped(x0, cand_dirs)
                    if all(poly.contains_int(v) for v in cand.vertices()):
                        pp = cand
                        break
                if pp is None:
                    continue
                newly = [m for m in uncovered if pp.contains(m)]
                if newly:
                    kept.append(pp)
                    uncovered.difference_update(newly)
        return kept, uncovered

    sym = {x0}
    for v in verts:
        sym.add(v)
        sym.add(tuple(2 * a - b for a, b in zip(x0, v)))
    sym = sorted(sym)
    ellip = mvee_contact_points(sym, x0)
    contact_pts = [sym[i] for i in ellip.contact_indices]

    kept, uncovered = try_cover(directions_from(contact_pts))
    if uncovered:
        kept, uncovered = try_cover(directions_from([v for v in verts]))
    if uncovered:
        raise InternalError(f"cell coverage failed for {len(uncovered)} points")
    return kept


def parallelepiped_cover(poly: Polytope) -> list:
    """Integral parallelepipeds inside ``poly`` covering all its lattice points.

    Construction: in dimension 1 all lattice points form one cell;
    otherwise they are grouped into slack cells.  A one-point cell is
    covered by ``Parallelepiped.point``, and when every cell is one point
    the cover is built in the order of ``_point_order``.  A larger cell is covered by
    parallelepipeds anchored at its lexicographically smallest member,
    with directions picked from ellipsoid contact points of the
    symmetrized cell hull (scaled by ``ceil(sqrt(dim))``), falling back to
    all hull vertices.  Containment in the polytope is enforced by exact
    vertex checks, shrinking the scale integrally when needed.  The points
    come from ``lattice_points``, under its cap.
    """
    pts = lattice_points(poly)
    if not pts:
        return []
    if poly.dim == 1:
        cells = [tuple(pts)]
    else:
        order = _point_order(poly, pts)
        if order is not None:
            point = Parallelepiped.point
            return [point(p) for p in order]
        cells = _slack_cells(poly, pts)
    cover = []
    for members in cells:
        if len(members) == 1:
            cover.append(Parallelepiped.point(members[0]))
        else:
            cover.extend(_cell_parallelepipeds(poly, members))
    return cover
