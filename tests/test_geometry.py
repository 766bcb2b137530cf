import importlib.util
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepack import cli, geometry
from conepack.errors import InputError, InternalError, ResourceError
from conepack.exactmath import INFEASIBLE, OPTIMAL, ExactLp, lp_optimize
from conepack.geometry import (
    Parallelepiped,
    Polytope,
    box_polytope,
    cell_partition,
    coordinate_bounds,
    extreme_points,
    in_convex_hull,
    integer_box,
    integer_hull_vertices,
    lattice_points,
    mvee_contact_points,
    parallelepiped_cover,
    slack_interval_index,
)
from conepack.rational import Rat, rat_ceil, rat_floor
from conepack.structure import compute_structure_set

from genutil import rand_bounded_polytope


def knapsack_fig() -> Polytope:
    # x >= 0, 13/100 x1 + 41/200 x2 <= 1, denominators cleared
    return Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200])


class TestCoordinateBounds:
    def test_knapsack_ranges(self):
        bounds = coordinate_bounds(knapsack_fig())
        assert bounds[0] == (0, Rat(100, 13))
        assert bounds[1] == (0, Rat(200, 41))

    def test_segment(self):
        poly = Polytope([[-1], [1]], [0, 5])
        assert coordinate_bounds(poly) == [(0, 5)]

    def test_halfline_unbounded_above(self):
        poly = Polytope([[-1]], [0])
        assert coordinate_bounds(poly) == [(0, None)]

    def test_empty_polytope(self):
        poly = Polytope([[1], [-1]], [0, -1])  # x <= 0 and x >= 1
        assert coordinate_bounds(poly) is None

    def test_cached(self):
        poly = Polytope([[-1], [1]], [0, 5])
        assert coordinate_bounds(poly) is coordinate_bounds(poly)

    @staticmethod
    def fresh_bounds(poly):
        """Reference: two fresh LPs per coordinate."""
        out = []
        for j in range(poly.dim):
            c = [int(i == j) for i in range(poly.dim)]
            sides = [lp_optimize(poly.A, poly.b, c, sense=sense)
                     for sense in ("min", "max")]
            if any(res.status == INFEASIBLE for res in sides):
                return None
            out.append(tuple(res.value if res.status == OPTIMAL else None
                             for res in sides))
        return out

    def test_one_tableau_matches_fresh_lps(self):
        rng = random.Random(40417)
        kinds = {"empty": 0, "unbounded": 0, "bounded": 0}
        for _ in range(300):
            d = rng.randint(1, 3)
            m = rng.randint(1, 3 * d + 3)
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
            rhs = [rng.randint(-3, 9) for _ in range(m)]
            expected = self.fresh_bounds(Polytope(rows, rhs))
            assert coordinate_bounds(Polytope(rows, rhs)) == expected
            if expected is None:
                kinds["empty"] += 1
            elif any(None in side for side in expected):
                kinds["unbounded"] += 1
            else:
                kinds["bounded"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_box_bounds_match_lp_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.randint(1, 4)
            lo = [rng.randint(-5, 5) for _ in range(d)]
            hi = [a + rng.randint(0, 4) for a in lo]
            box = box_polytope(lo, hi)
            assert box._bounds is not None  # seeded, no LP solved
            assert coordinate_bounds(box) == \
                coordinate_bounds(Polytope(box.A, box.b))
            assert coordinate_bounds(box) == self.fresh_bounds(box)

    def test_empty_box_has_no_bounds(self):
        assert coordinate_bounds(box_polytope([2], [1])) is None
        assert coordinate_bounds(box_polytope([0, 2], [3, 1])) is None


class TestIntegerBox:
    @staticmethod
    def fresh_box(poly):
        """Reference: fresh ``coordinate_bounds`` rounded inward, or
        "unbounded"."""
        bounds = coordinate_bounds(Polytope(poly.A, poly.b))
        if bounds is None:
            return None
        if any(None in side for side in bounds):
            return "unbounded"
        box = [(rat_ceil(lo), rat_floor(hi)) for lo, hi in bounds]
        return None if any(a > b for a, b in box) else box

    def box_or_unbounded(self, poly):
        try:
            return integer_box(poly)
        except InputError:
            return "unbounded"

    def test_matches_rounded_fresh_bounds(self):
        rng = random.Random(1313)
        kinds = {"none": 0, "unbounded": 0, "box": 0}
        for _ in range(200):
            d = rng.randint(1, 3)
            m = rng.randint(1, 3 * d + 3)
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
            rhs = [rng.randint(-3, 9) for _ in range(m)]
            poly = Polytope(rows, rhs)
            expected = self.fresh_box(poly)
            assert self.box_or_unbounded(poly) == expected
            kinds["box" if isinstance(expected, list) else
                  "none" if expected is None else expected] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_seeded_boxes_match_rounded_fresh_bounds(self):
        rng = random.Random(1314)
        for _ in range(50):
            d = rng.randint(1, 4)
            lo = [rng.randint(-5, 5) for _ in range(d)]
            hi = [a + rng.randint(-1, 4) for a in lo]
            box = box_polytope(lo, hi)
            assert integer_box(box) == self.fresh_box(box)

    def test_no_integer_in_a_range(self):
        third = Polytope([[3], [-3]], [2, -1])  # 1/3 <= x <= 2/3
        assert coordinate_bounds(third) == [(Rat(1, 3), Rat(2, 3))]
        assert integer_box(third) is None
        assert lattice_points(third) == []

    def test_empty_polytope(self):
        assert integer_box(Polytope([[1], [-1]], [0, -1])) is None
        assert integer_box(box_polytope([0, 2], [3, 1])) is None

    def test_names_the_unbounded_coordinate(self):
        # 0 <= x <= 2 and y >= x: bounded in x, not in y
        poly = Polytope([[1, 0], [-1, 0], [1, -1]], [2, 0, 0])
        with pytest.raises(InputError, match="unbounded in coordinate 1"):
            integer_box(poly)

    def test_box_polytope_solves_no_lp(self, monkeypatch):
        box = box_polytope([-1, 0], [2, 3])

        def no_lp(*args, **kwargs):
            raise AssertionError("solved an LP for a seeded box")

        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        assert integer_box(box) == [(-1, 2), (0, 3)]


def test_bounded_polytope_writes_the_rows_then_each_bound():
    # the rows in order, then x_j <= hi_j and -x_j <= -lo_j per j, with
    # each None side skipped; Bland's rule pivots by row index
    poly = geometry.bounded_polytope([[1, 1, 0], [2, -1, 0]], [5, 3],
                                     [0, None, -2], [3, 4, None])
    assert poly.A == [(1, 1, 0), (2, -1, 0), (1, 0, 0), (-1, 0, 0),
                      (0, 1, 0), (0, 0, -1)]
    assert poly.b == (5, 3, 3, 0, 4, 2)
    assert box_polytope([1, -2], [3, 4]) == geometry.bounded_polytope(
        [], [], [1, -2], [3, 4])


class TestDownClosed:
    @staticmethod
    def rand_down_closed(rng):
        """Seeded load rows with non-negative coefficients and right-hand
        sides, and a random non-negative box; now and then a coordinate
        has no positive load coefficient, so only its box side bounds it."""
        d = rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(d)]
                for _ in range(rng.randint(0, 4))]
        rhs = [rng.randint(0, 12) for _ in rows]
        box = [rng.randint(0, 6) for _ in range(d)]
        return rows, rhs, box

    def test_bounds_match_fresh_lps(self):
        rng = random.Random(55011)
        box_only = 0
        for _ in range(120):
            rows, rhs, box = self.rand_down_closed(rng)
            d = len(box)
            poly = geometry.down_closed_polytope(rows, rhs, box)
            # the load rows in order, then x_j <= box_j and -x_j <= 0 per j
            units = []
            for j in range(d):
                unit = tuple(int(i == j) for i in range(d))
                units += [unit, tuple(-v for v in unit)]
            assert poly.A == [tuple(r) for r in rows] + units
            assert poly.b == (*rhs, *(v for side in box for v in (side, 0)))
            expected = coordinate_bounds(Polytope(poly.A, poly.b))
            assert poly._bounds == expected
            assert expected == TestCoordinateBounds.fresh_bounds(poly)
            box_only += any(not any(r[j] for r in rows) for j in range(d))
        assert box_only >= 10

    def test_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("solved an LP for a down-closed polytope")

        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        poly = geometry.down_closed_polytope([[3, 2]], [12], [7, 5])
        assert coordinate_bounds(poly) == [(0, 4), (0, 5)]
        assert integer_box(poly) == [(0, 4), (0, 5)]

    @pytest.mark.parametrize("rows,rhs,box,error,match", [
        ([[1, -1]], [3], [2, 2], InternalError, r"row 0 .* is \(1, -1\)"),
        ([[1, 1], [1, 1]], [3, -1], [2, 2], InternalError, "row 1"),
        ([[1, 1]], [3], [2, -1], InternalError, r"box \(2, -1\)"),
        ([[1, 1]], [3], [2], InputError, "^ragged constraint matrix$"),
    ], ids=["mixed-sign", "negative-rhs", "negative-box", "short-box"])
    def test_rejects_other_rows(self, rows, rhs, box, error, match):
        with pytest.raises(error, match=match):
            geometry.down_closed_polytope(rows, rhs, box)
        with pytest.raises(error, match=match):
            geometry.down_closed_lattice(rows, rhs, box)

    def test_lister_matches_the_polytope(self):
        # the points that lattice_points lists on the built polytope, zero
        # box sides and zero coefficients included
        rng = random.Random(44044)
        zero_side = zero_coefficient = 0
        for _ in range(200):
            rows, rhs, box = self.rand_down_closed(rng)
            poly = geometry.down_closed_polytope(rows, rhs, box)
            assert geometry.down_closed_lattice(rows, rhs, box) == (
                lattice_points(poly))
            zero_side += 0 in box
            zero_coefficient += any(0 in row for row in rows)
        assert zero_side >= 20 and zero_coefficient >= 50

    def test_lister_caps_the_box(self, monkeypatch):
        # the box that the rows leave is capped, as lattice_points caps it
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 50)
        box = [9, 9]
        with pytest.raises(ResourceError, match="holds 70 points"):
            geometry.down_closed_lattice([[1, 0]], [6], box)
        with pytest.raises(ResourceError, match="holds 70 points"):
            lattice_points(geometry.down_closed_polytope([[1, 0]], [6], box))
        rows, rhs = [[1, 0], [0, 2]], [6, 9]
        assert len(geometry.down_closed_lattice(rows, rhs, box)) == 35


def box_scan(poly):
    """Reference lattice: the ``integer_box`` of a fresh copy (one exact
    LP), filtered by membership, or "unbounded"."""
    try:
        box = integer_box(Polytope(poly.A, poly.b))
    except InputError:
        return "unbounded"
    if box is None:
        return []
    ranges = [range(a, b + 1) for a, b in box]
    return [p for p in product(*ranges) if poly.contains_int(p)]


class TestLatticePoints:
    def test_knapsack_has_25_points(self):
        pts = lattice_points(knapsack_fig())
        assert len(pts) == 25
        assert pts == sorted(set(pts))
        # independent recount, column by column
        count = 0
        for x1 in range(0, 8):
            rem = Rat(200 - 26 * x1, 41)
            if rem >= 0:
                count += int(rem) + 1
        assert count == 25

    def test_origin_only(self):
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0])
        assert lattice_points(poly) == [(0, 0)]

    def test_simplex(self):
        poly = Polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        assert lattice_points(poly) == [(0, 0), (0, 1), (1, 0)]

    def test_empty(self):
        poly = Polytope([[1], [-1]], [0, -1])
        assert lattice_points(poly) == []

    def test_unbounded_rejected(self):
        poly = Polytope([[-1]], [0])
        with pytest.raises(InputError):
            lattice_points(poly)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 50)
        poly = Polytope([[-1], [1]], [0, 100])
        with pytest.raises(ResourceError) as err:
            lattice_points(poly)
        assert err.value.budget_name == "lattice enumeration budget"
        assert err.value.limit == 50

    def test_membership_filter_is_exact(self):
        poly = Polytope([[2, 3], [-1, 0], [0, -1]], [7, 0, 0])
        pts = lattice_points(poly)
        for p in pts:
            assert 2 * p[0] + 3 * p[1] <= 7
        assert (2, 1) in pts and (3, 1) not in pts

    @staticmethod
    def seeded_polytope(rng, d):
        """A box of side up to 6 and up to four cuts whose coefficients are
        often zero and often negative; a cut may come with its opposite,
        which makes an equality (or a slab one unit thick)."""
        rows, rhs = [], []
        for j in range(d):
            unit = [0] * d
            unit[j] = 1
            lo = rng.randint(-3, 2)
            rows += [unit, [-v for v in unit]]
            rhs += [lo + rng.randint(0, 6), -lo]
        for _ in range(rng.randint(0, 4)):
            row = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(d)]
            b = rng.randint(-6, 12)
            rows.append(row)
            rhs.append(b)
            if rng.random() < 0.35:
                rows.append([-v for v in row])
                rhs.append(rng.randint(0, 1) - b)
        return Polytope(rows, rhs)

    def test_matches_the_box_scan(self):
        rng = random.Random(6011)
        seen = {"points": 0, "empty": 0, "equality": 0, "zero": 0,
                "negative": 0}
        for case in range(400):
            poly = self.seeded_polytope(rng, 1 + case % 4)
            pts = lattice_points(poly)
            assert pts == box_scan(poly), (poly.A, poly.b)
            assert all(p < q for p, q in zip(pts, pts[1:]))
            seen["points" if pts else "empty"] += 1
            cuts = poly.A[2 * poly.dim:]
            seen["equality"] += any(tuple(-v for v in r) in cuts
                                    for r in cuts)
            seen["zero"] += any(0 in r for r in cuts)
            seen["negative"] += any(v < 0 for r in cuts for v in r)
        assert min(seen.values()) >= 40, seen

    def test_empty_with_a_non_empty_box(self):
        # 2x + 2y - 2z = 1 has no integer point, though every coordinate's
        # LP range is [0, 3]
        poly = Polytope([[2, 2, -2], [-2, -2, 2], [1, 0, 0], [-1, 0, 0],
                         [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                        [1, -1, 3, 0, 3, 0, 3, 0])
        assert integer_box(poly) == [(0, 3)] * 3
        assert lattice_points(poly) == []
        # y + z >= 1/2 with 0 <= y, z <= 1/2 rounds to y = z = 0, which
        # fails the one row that x does not touch
        poly = Polytope([[1, 0, 0], [-1, 0, 0], [0, 2, 0], [0, -1, 0],
                         [0, 0, 2], [0, 0, -1], [0, -2, -2]],
                        [3, 0, 1, 0, 1, 0, -1])
        assert integer_box(poly) == [(0, 3), (0, 0), (0, 0)]
        assert lattice_points(poly) == []

    @staticmethod
    def runs_spell(poly, pts):
        """The runs kept beside the points, one non-empty interval of the
        last coordinate per prefix, spell the points out in order."""
        runs = poly._runs
        assert all(lo <= hi for _prefix, lo, hi in runs)
        assert len({prefix for prefix, _lo, _hi in runs}) == len(runs)
        return [prefix + (v,) for prefix, lo, hi in runs
                for v in range(lo, hi + 1)] == pts

    def test_a_zero_row_with_a_negative_bound_is_empty(self):
        # 0 <= -1 fails everywhere in the box; 0 <= 0 holds everywhere
        rows = [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]]
        poly = Polytope(rows, [3, 0, 3, 0, -1])
        assert lattice_points(poly) == box_scan(poly) == []
        assert poly._runs == []
        poly = Polytope(rows, [3, 0, 3, 0, 0])
        pts = lattice_points(poly)
        assert pts == box_scan(poly)
        assert len(pts) == 16 and self.runs_spell(poly, pts)

    def test_a_box_from_the_lp_implies_the_axis_rows(self, monkeypatch):
        """The axis rows bound x to [2, 7] but leave y and z unbounded
        above, so the enumeration box is ``integer_box``; the axis rows
        are not tested, since that box implies them."""
        poly = Polytope([[1, 0, 0], [-2, 0, 0], [0, -1, 0], [0, 0, -1],
                         [1, 2, 3]], [7, -3, 0, 0, 12])
        boxes = []
        box = geometry.integer_box

        def recording(p):
            boxes.append(box(p))
            return boxes[-1]

        monkeypatch.setattr(geometry, "integer_box", recording)
        pts = lattice_points(poly)
        assert boxes == [[(2, 7), (0, 5), (0, 3)]]
        monkeypatch.undo()
        assert pts == box_scan(poly)
        assert pts[0] == (2, 0, 0) and pts[-1] == (7, 2, 0)
        assert self.runs_spell(poly, pts)

    def test_two_axis_rows_on_one_coordinate(self):
        # x <= 5 and 2x <= 7 above, -x <= 0 and -3x <= -2 below: 1 <= x <= 3
        poly = Polytope([[1, 0], [2, 0], [-1, 0], [-3, 0], [0, 1], [0, -1],
                         [1, 1]], [5, 7, 0, -2, 4, 0, 5])
        pts = lattice_points(poly)
        assert pts == box_scan(poly)
        assert pts == [(x, y) for x in (1, 2, 3) for y in range(min(5, 6 - x))]
        assert self.runs_spell(poly, pts)

    def test_budget_caps_the_box_not_the_points(self, monkeypatch):
        # the diagonal x = y of a 101 x 101 box: 101 points in a box of
        # 10,201
        poly = Polytope([[1, -1], [-1, 1], [1, 0], [-1, 0], [0, 1], [0, -1]],
                        [0, 0, 100, 0, 100, 0])
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 10_200)
        with pytest.raises(ResourceError) as err:
            lattice_points(poly)
        assert err.value.limit == 10_200
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 10_201)
        assert lattice_points(poly) == [(v, v) for v in range(101)]


class TestAxisBox:
    """``lattice_points`` enumerates over the box of the axis rows (one
    non-zero coefficient), and over the LP box only when that box is
    unbounded or over the cap."""

    @staticmethod
    def lattice_or_unbounded(poly):
        try:
            return lattice_points(poly)
        except InputError:
            return "unbounded"

    @staticmethod
    def axis_rows(rng, d, j, lo, hi):
        """Rows ``c x_j <= b`` whose tightest rounded sides are ``lo`` and
        ``hi`` (None: no row on that side), with a looser row now and
        then."""
        rows, rhs = [], []
        for side, sign in ((hi, 1), (lo, -1)):
            if side is None:
                continue
            for loose in range(rng.choice((1, 1, 2))):
                c = rng.randint(1, 3)
                unit = [0] * d
                unit[j] = sign * c
                rows.append(unit)
                # c x <= c side + r, 0 <= r < c, rounds to x <= side
                rhs.append(sign * c * side + rng.randint(0, c - 1)
                           + loose * c * rng.randint(1, 3))
        return rows, rhs

    @staticmethod
    def cuts(rng, d, count):
        rows = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(d)]
                for _ in range(count)]
        return rows, [rng.randint(-6, 12) for _ in rows]

    def seeded_polytope(self, rng, d, kind):
        rows, rhs = [], []
        if kind in ("every", "some", "loose"):
            wide = 25 if kind == "loose" else 5
            missing = set()
            if kind == "some":
                sides = [(j, s) for j in range(d) for s in (0, 1)]
                # in one dimension every row is an axis row: keep one
                missing = set(rng.sample(sides,
                                         rng.randint(1, len(sides) - (d == 1))))
            for j in range(d):
                lo = rng.randint(-wide, 2)
                hi = lo + rng.randint(0, 2 * wide)
                lo = None if (j, 0) in missing else lo
                hi = None if (j, 1) in missing else hi
                r, b = self.axis_rows(rng, d, j, lo, hi)
                rows += r
                rhs += b
            if kind != "every" and d > 1:
                # the cross-polytope |x_1| + ... + |x_d| <= radius bounds
                # every coordinate with rows that are not axis rows
                radius = rng.randint(0, 4 if kind == "loose" else 8)
                for signs in product((1, -1), repeat=d):
                    rows.append(list(signs))
                    rhs.append(radius)
            r, b = self.cuts(rng, d, rng.randint(0, 3))
        else:  # empty
            for j in range(d):
                r, b = self.axis_rows(rng, d, j, 0, rng.randint(0, 5))
                rows += r
                rhs += b
            if rng.random() < 0.5:
                # a coordinate whose range holds no integer: c x_j in
                # [1, c - 1]
                j, c = rng.randrange(d), rng.randint(2, 5)
                unit = [0] * d
                unit[j] = c
                r, b = [unit, [-v for v in unit]], [c - 1, -1]
            else:
                # the sum of non-negative coordinates below zero
                r, b = [[1] * d], [-rng.randint(1, 3)]
        rows += r
        rhs += b
        return Polytope(rows, rhs)

    def test_matches_the_lp_box_scan(self):
        rng = random.Random(30417)
        kinds = ("every", "some", "loose", "empty")
        seen = Counter()
        for case in range(480):
            d, kind = 1 + case % 3, kinds[case // 3 % 4]
            poly = self.seeded_polytope(rng, d, kind)
            expected = box_scan(poly)
            assert self.lattice_or_unbounded(poly) == expected, (poly.A,
                                                                 poly.b)
            outcome = ("unbounded" if expected == "unbounded" else
                       "points" if expected else "no points")
            seen[kind, outcome] += 1
            if kind == "loose" and expected:
                # the cuts cut the axis box down
                seen["tightened"] += (geometry._axis_box(poly)
                                      != integer_box(poly))
        assert seen.keys() == {
            ("every", "points"), ("every", "no points"),
            ("some", "points"), ("some", "no points"), ("some", "unbounded"),
            ("loose", "points"), ("loose", "no points"),
            ("empty", "no points"), "tightened"}
        assert min(seen.values()) >= 20, seen

    def test_loose_axis_box_over_the_cap_enumerates_the_lp_box(
            self, monkeypatch):
        # 0 <= x, y <= 100 and x + y <= 3: the axis box holds 10,201
        # points, the LP box [0, 3]^2 sixteen
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                        [100, 0, 100, 0, 3])
        built = []
        lp_init = ExactLp.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            lp_init(self, *args, **kwargs)

        monkeypatch.setattr(ExactLp, "__init__", counting)
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 100)
        expected = [(x, y) for x in range(4) for y in range(4 - x)]
        assert lattice_points(poly) == expected
        assert len(built) == 1  # the LP box was measured
        assert box_scan(poly) == expected
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 15)
        with pytest.raises(ResourceError) as err:
            lattice_points(Polytope(poly.A, poly.b))
        assert "holds 16 points" in str(err.value)

    def test_axis_box_under_the_cap_solves_no_lp(self, monkeypatch):
        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        poly = Polytope([[2, 0], [-3, 0], [0, 1], [0, -1], [1, 1]],
                        [9, 4, 7, 1, 5])
        # 2x <= 9, -3x <= 4, -1 <= y <= 7: x in [-1, 4], y in [-1, 7]
        assert geometry._axis_box(poly) == [(-1, 4), (-1, 7)]
        assert lattice_points(poly) == [
            (x, y) for x in range(-1, 5) for y in range(-1, 8) if x + y <= 5]

    def test_one_empty_side_solves_no_lp(self, monkeypatch):
        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        # 1/3 <= x <= 2/3 and 0 <= y <= 5
        assert lattice_points(Polytope([[3, 0], [-3, 0], [0, 1], [0, -1]],
                                       [2, -1, 5, 0])) == []
        # the same x, and y >= 0 unbounded above: still no lattice point
        assert lattice_points(Polytope([[3, 0], [-3, 0], [0, -1]],
                                       [2, -1, 0])) == []

    def test_two_empty_sides_do_not_trip_the_cap(self, monkeypatch):
        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 1_000)
        # 50 <= x <= 0 and 50 <= y <= 0: the lengths -49 multiply to 2,401
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]],
                        [0, -50, 0, -50])
        assert geometry._axis_box(poly) is None
        assert lattice_points(poly) == []


def slack_interval_endpoints(index, dim):
    """The exact rational endpoints ``[a, b]`` of grid interval ``index``:
    endpoint 0 is 0 and endpoint ``j >= 1`` is ``r^(j-2)``, with
    ``r = 1 + 1/dim^2``."""
    r = Rat(dim * dim + 1, dim * dim)

    def endpoint(j):
        return Rat(0) if j == 0 else r ** (j - 2)

    return endpoint(index), endpoint(index + 1)


def brute_extreme(points):
    """Definition-level vertex filter: p is extreme iff p not in conv(rest)."""
    pts = sorted(set(points))
    return [p for p in pts
            if not in_convex_hull(p, [q for q in pts if q != p])]


def _affine_rank(points):
    """Rank of the differences to the first point, by Fraction elimination."""
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points]
    rank = 0
    for col in range(len(points[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank3_set(rng, kind):
    """A seeded point set meant to have affine rank 3 (callers check).

    ``cube``: random points of a small cube; ``lift4d``: the same lifted
    onto a hyperplane of 4-space; ``planes``: points on two parallel
    planes; ``edges``: box corners plus points along the segments between
    them; ``polytope``: the lattice points of a random 3-d polytope;
    ``four``: four points.  Every set but ``four`` and ``polytope`` repeats
    a few of its points.
    """
    if kind == "four":
        return [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
    if kind == "polytope":
        rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                [0, 0, -1]]
        rhs = [rng.randint(1, 3), 0, rng.randint(1, 3), 0, rng.randint(1, 3), 0]
        for _ in range(rng.randint(0, 3)):
            rows.append([rng.randint(-3, 3) for _ in range(3)])
            rhs.append(rng.randint(0, 6))
        pts = lattice_points(Polytope(rows, rhs))
        return pts if len(pts) <= 40 else None
    n = rng.randint(4, 14)
    if kind in ("cube", "lift4d"):
        pts = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(n)]
        if kind == "lift4d":
            pts = [(x, y, z, 2 * x - y + z + 1) for x, y, z in pts]
    elif kind == "planes":
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((0, 2)))
               for _ in range(n)]
    else:
        corners = [tuple(rng.choice((0, 4)) for _ in range(3))
                   for _ in range(rng.randint(4, 8))]
        pts = list(corners)
        for _ in range(n):
            a, b = rng.sample(corners, 2)
            t = rng.randint(0, 4)
            pts.append(tuple(x + t * (y - x) // 4 for x, y in zip(a, b)))
    return pts + [rng.choice(pts) for _ in range(rng.randint(1, 3))]


def no_lp(*args):
    raise AssertionError("the hull ran an LP")


def no_chart(*args):
    raise AssertionError("the hull solved chart coordinates")


class TestHulls:
    def test_knapsack_hull_vertices(self):
        verts = integer_hull_vertices(knapsack_fig())
        assert verts == sorted([(0, 0), (7, 0), (6, 1), (1, 4), (0, 4)])

    def test_single_point(self):
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, -2, 3, -3])
        assert integer_hull_vertices(poly) == [(2, 3)]

    def test_collinear_interior_points_dropped(self):
        poly = Polytope([[-1, 0], [0, -1], [2, 2]], [0, 0, 5])
        assert integer_hull_vertices(poly) == sorted([(0, 0), (2, 0), (0, 2)])

    def test_extreme_points_rank1(self):
        assert extreme_points([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]) == [
            (0, 0, 0), (3, 3, 3)]

    def test_extreme_points_of_no_point_or_the_0d_point(self):
        assert extreme_points([]) == []
        assert extreme_points([(), ()]) == [()]

    def test_extreme_points_duplicates(self):
        assert extreme_points([(0, 0), (0, 0), (1, 0), (1, 0)]) == [(0, 0), (1, 0)]

    def test_extreme_points_3d_cube_with_center(self):
        cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        pts = cube + [(1, 1, 1)]
        assert extreme_points(pts) == sorted(cube)

    def test_random_sets_match_definition(self):
        rng = random.Random(20817)
        for _ in range(30):
            d = rng.randint(2, 4)
            n = rng.randint(3, 12)
            pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(n)]
            assert extreme_points(pts) == sorted(brute_extreme(pts))

    def test_rank3_hull_matches_definition_without_lps(self, monkeypatch):
        """The rank-3 path against the LP definition on 240 seeded sets: it
        must solve no LP, so ``in_convex_hull`` raises inside it.  Sets in
        3-space must not solve chart coordinates either; the ``lift4d`` sets
        in 4-space still go through the chart."""
        rng = random.Random(31337)
        kinds = ["cube", "lift4d", "planes", "edges", "polytope", "four"]
        seen = dict.fromkeys(kinds, 0)
        while min(seen.values()) < 40:
            kind = kinds[sum(seen.values()) % len(kinds)]
            pts = _rank3_set(rng, kind)
            if pts is None or _affine_rank(pts) != 3:
                continue
            seen[kind] += 1
            expected = sorted(brute_extreme(pts))
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "in_convex_hull", no_lp)
                if len(pts[0]) == 3:
                    # full rank: the hull runs on the points, not a chart
                    patch.setattr(geometry._Frame, "solve", no_chart)
                assert extreme_points(pts) == expected, (kind, pts)

    def test_rank3_hull_ignores_input_order(self):
        """``_hull_3d_vertices`` itself, on seeded 3-d sets with points
        inside faces and inside edges: boxes with such points added, and
        the lattice points of random polytopes.  Each set is shuffled, and
        the sorted indices that come back must name exactly the vertices
        ``brute_extreme`` gives, so no later sort can hide an order fault."""
        rng = random.Random(70913)
        inner = Counter()
        done = 0
        while done < 24:
            if done % 2 == 0:
                top = [rng.randint(1, 4) for _ in range(3)]
                pts = {(x, y, z) for x in (0, top[0]) for y in (0, top[1])
                       for z in (0, top[2])}
                for _ in range(rng.randint(4, 12)):
                    p = [rng.randint(0, t) for t in top]
                    # one coordinate at a bound: a face; two: an edge
                    for j in rng.sample(range(3), rng.choice((1, 2))):
                        p[j] = rng.choice((0, top[j]))
                    at_bound = sum(v in (0, t) for v, t in zip(p, top))
                    inner[at_bound] += 1
                    pts.add(tuple(p))
                pts = list(pts)
            else:
                pts = _rank3_set(rng, "polytope")
                if pts is None or _affine_rank(pts) != 3:
                    continue
            expected = brute_extreme(pts)
            for _ in range(3):
                rng.shuffle(pts)
                found = geometry._hull_3d_vertices(pts)
                assert found == sorted(found)
                assert sorted(pts[i] for i in found) == expected, pts
            done += 1
        assert inner[1] and inner[2]

    def test_rank2_plane_hull_matches_definition_without_charts(
            self, monkeypatch):
        """Rank-2 sets in the plane against the LP definition: the monotone
        chain runs on the points themselves, with no LP and no chart."""
        rng = random.Random(27183)
        done = 0
        while done < 60:
            n = rng.randint(3, 14)
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
            if _affine_rank(pts) != 2:
                continue
            done += 1
            expected = sorted(brute_extreme(pts))
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "in_convex_hull", no_lp)
                patch.setattr(geometry._Frame, "solve", no_chart)
                assert extreme_points(pts) == expected, pts

    def test_lower_rank_sets_hull_on_their_chart(self):
        """Rank 2 in 3-space as ``(x, x, y)`` and rank 3 in 4-space as
        ``(x, y, x + y, z)``: their leading coordinates lose rank, so the
        hull must run on chart coordinates to match the LP definition."""
        rng = random.Random(60221)
        done = 0
        while done < 60:
            n = rng.randint(4, 14)
            draws = [tuple(rng.randint(-2, 2) for _ in range(3))
                     for _ in range(n)]
            if done % 2:
                pts = [(x, x, y) for x, y, _z in draws]
                rank = 2
            else:
                pts = [(x, y, x + y, z) for x, y, z in draws]
                rank = 3
            if _affine_rank(pts) != rank:
                continue
            done += 1
            assert extreme_points(pts) == sorted(brute_extreme(pts)), pts

    def test_non_integral_coordinates_rejected(self):
        F = Fraction
        with pytest.raises(InputError):
            extreme_points([(F(1, 2), 0), (0, 1), (1, 1), (2, 0)])
        with pytest.raises(InputError):
            extreme_points([(0.7, 0), (0, 1), (1, 1), (2, 0)])
        # integral Fractions are taken as the ints they equal
        got = extreme_points([(F(2, 2), F(0)), (0, 1), (F(4, 2), 1), (0, 0)])
        assert got == [(0, 0), (0, 1), (1, 0), (2, 1)]
        assert all(type(v) is int for p in got for v in p)

    def test_axis_runs_in_ranks_one_and_two(self):
        """Collinear runs along an axis and L-shapes in an axis plane,
        embedded in 2 to 4 coordinates, where pruning drops the inner
        points of every run."""
        rng = random.Random(7207)
        for case in range(60):
            d = rng.randint(2, 4)
            base = [rng.randint(-3, 3) for _ in range(d)]
            s, t = rng.sample(range(d), 2)
            pts = []

            def run(start, axis, length):
                for step in range(length + 1):
                    p = list(start)
                    p[axis] += step
                    pts.append(tuple(p))

            run(base, s, rng.randint(2, 6))
            if case % 2:
                # an L: a second run from a point of the first, along t
                corner = list(rng.choice(pts))
                run(corner, t, rng.randint(2, 6))
                if case % 4 == 3:
                    # a third run, parallel to the first, closes a U
                    far = list(pts[-1])
                    run(far, s, rng.randint(1, 6))
            pts += rng.sample(pts, 2)  # duplicates
            rng.shuffle(pts)
            hull = extreme_points(pts)
            assert hull == sorted(brute_extreme(pts)), pts
            assert min(pts) in hull and max(pts) in hull
            if case % 2 == 0:
                assert hull == [min(pts), max(pts)]

    def test_in_convex_hull(self):
        square = [(0, 0), (2, 0), (0, 2), (2, 2)]
        assert in_convex_hull((1, 1), square)
        assert in_convex_hull((2, 2), square)
        assert in_convex_hull((Rat(1, 3), Rat(1, 2)), square)
        assert not in_convex_hull((3, 1), square)
        assert not in_convex_hull((1, 1), [])


def _flat_polytope(rng, d, rank):
    """A box in the first ``rank`` coordinates, each later coordinate an
    integer affine function of them held by two opposite rows: a polytope
    of affine rank at most ``rank`` in ``d``-space."""
    rows, rhs = [], []
    for j in range(rank):
        unit = [0] * d
        unit[j] = 1
        rows += [unit, [-v for v in unit]]
        rhs += [rng.randint(1, 4), rng.randint(0, 2)]
    for j in range(rank, d):
        row = [rng.randint(-2, 2) for _ in range(rank)] + [0] * (d - rank)
        row[j] = -1
        e = rng.randint(-2, 2)
        # x_j = sum_k row_k x_k + e, as x_j >= ... and x_j <= ...
        rows += [row, [-v for v in row]]
        rhs += [-e, e]
    return Polytope(rows, rhs)


def _hull_cases(seed, count):
    """Seeded polytopes in d = 1-4 with a non-empty lattice: every third
    flat (rank 1 or 2 below the ambient dimension), the rest a box cut by
    random halfspaces."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 3 == 2:
            d = rng.randint(2, 4)
            poly = _flat_polytope(rng, d, rng.randint(1, min(2, d - 1)))
        else:
            poly = rand_bounded_polytope(rng, max_dim=4, box_cap=4,
                                         lattice_budget=3000)
        if lattice_points(poly):
            out.append(poly)
    return out


def _inner_on_last_axis(p, lattice):
    return (p[:-1] + (p[-1] - 1,) in lattice
            and p[:-1] + (p[-1] + 1,) in lattice)


def _inner_on_some_axis(p, lattice):
    return any(p[:t] + (p[t] + s,) + p[t + 1:] in lattice
               for t in range(len(p)) for s in (-1, 1)
               if p[:t] + (p[t] - s,) + p[t + 1:] in lattice)


class TestHullFromRunEnds:
    def test_lattice_hull_matches_extreme_points_and_the_definition(self):
        ranks = set()
        small = 0
        for poly in _hull_cases(61717, 90):
            pts = lattice_points(poly)
            hull = integer_hull_vertices(poly)
            assert hull == extreme_points(pts), poly.A
            if len(pts) <= 30:
                small += 1
                assert hull == sorted(brute_extreme(pts)), poly.A
            ranks.add((poly.dim, _affine_rank(pts)))
        assert small >= 30
        assert {(3, 1), (3, 2), (4, 1), (4, 2), (4, 4)} <= ranks, ranks

    def test_3d_lattices_of_every_rank(self, monkeypatch):
        """3-d lattices of affine rank 0 to 3 against ``extreme_points``
        and the definition.  Their candidates come from the runs; at full
        rank they go to ``_hull_3d_vertices`` with no chart, and below it
        a set of more than two still goes through ``_chart``."""
        charted = []
        chart = geometry._chart

        def recording(points):
            charted.append(list(points))
            return chart(points)

        monkeypatch.setattr(geometry, "_chart", recording)
        rng = random.Random(40961)
        done = Counter()
        reached = Counter()
        while min(done[rank] for rank in range(4)) < 12:
            rank = sum(done.values()) % 4
            poly = _flat_polytope(rng, 3, rank)
            if rank == 3:
                cut = [rng.randint(-3, 3) for _ in range(3)]
                poly = Polytope(poly.A + [cut], poly.b + (rng.randint(0, 6),))
            pts = lattice_points(poly)
            if not pts or _affine_rank(pts) != rank:
                continue
            done[rank] += 1
            charted.clear()
            hull = integer_hull_vertices(poly)
            if rank == 3:
                assert not charted, poly.A
            reached[rank] += bool(charted)
            assert hull == extreme_points(pts) == sorted(brute_extreme(pts))
        assert reached[1] and reached[2], reached

    def test_inner_run_points_never_reach_the_hull(self, monkeypatch):
        """``_column_runs`` of the sorted lattice gives the enumerator's
        runs, their ends are exactly the points without both last-axis
        neighbours in the lattice, and the hull proper never sees another
        point from ``integer_hull_vertices``, which reads the runs.  The
        ends it hands on are exactly those not midway between two lattice
        points along another axis."""
        seen = []
        hull = geometry._hull_of_candidates

        def recording(points):
            seen.append(list(points))
            return hull(points)

        monkeypatch.setattr(geometry, "_hull_of_candidates", recording)
        dropped = pruned = 0
        for poly in _hull_cases(61718, 60):
            pts = lattice_points(poly)
            lattice = set(pts)
            assert geometry._column_runs(pts) == poly._runs
            ends = [prefix + (v,) for prefix, lo, hi in poly._runs
                    for v in sorted({lo, hi})]
            assert ends == [p for p in pts
                            if not _inner_on_last_axis(p, lattice)]
            dropped += len(pts) - len(ends)
            seen.clear()
            integer_hull_vertices(poly)
            assert len(seen) == 1
            assert seen[0] == sorted(seen[0])
            assert set(seen[0]) <= set(ends)
            assert seen[0] == [p for p in ends
                               if not _inner_on_some_axis(p, lattice)]
            pruned += len(ends) - len(seen[0])
        assert dropped >= 100 and pruned >= 100, (dropped, pruned)


@st.composite
def _point_lists(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=14))


@settings(max_examples=150)
@given(_point_lists(), st.randoms(use_true_random=False))
def test_extreme_points_ignore_order_and_repeats(pts, rnd):
    expected = extreme_points(sorted(set(pts)))
    shuffled = pts + [rnd.choice(pts) for _ in range(rnd.randint(0, 4))]
    rnd.shuffle(shuffled)
    assert extreme_points(shuffled) == expected
    assert extreme_points(list(reversed(shuffled))) == expected


class TestSlackGrid:
    def test_d1_indices(self):
        # endpoints for d=1: 0, 1/2, 1, 2, 4, 8, ...
        assert slack_interval_index(0, 1) == 0
        assert slack_interval_index(1, 1) == 2
        assert slack_interval_index(2, 1) == 3
        assert slack_interval_index(3, 1) == 3
        assert slack_interval_index(4, 1) == 4
        assert slack_interval_index(7, 1) == 4
        assert slack_interval_index(8, 1) == 5

    def test_endpoints_bracket_the_slack(self):
        for d in (1, 2, 3):
            for s in range(0, 60):
                j = slack_interval_index(s, d)
                lo, hi = slack_interval_endpoints(j, d)
                assert lo <= s <= hi

    def test_same_interval_means_close(self):
        # two consecutive integers sharing an interval differ by factor
        # at most 1 + 1/d^2
        for d in (1, 2, 3, 4):
            for p in range(1, 200):
                if slack_interval_index(p, d) == slack_interval_index(p + 1, d):
                    assert (p + 1) * d * d <= p * (d * d + 1)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            slack_interval_index(-1, 2)
        with pytest.raises(InputError):
            slack_interval_index(0, 0)


WORKLOADS = Path(__file__).resolve().parent.parent / "conebench" / "workloads.py"


def _cover_catalogue():
    """The 40 polytopes of the benchmark's ``cover`` catalogue, read
    through the instance reader; ``conebench/workloads.py`` is loaded from
    its file and only read."""
    spec = importlib.util.spec_from_file_location("_cell_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cli.parse_instance_text(workloads.render(desc))[1]
            for desc in workloads.catalogue("cover", 40)]


def _cell_polytope(rng):
    """A seeded box in d = 1..4 with up to two cuts, in shapes the cover
    catalogue never reaches, or None when it holds no lattice point.

    Half the boxes are wide: one side up to 40, where one slack interval
    holds several slacks.  Half have a second axis row on one coordinate,
    scaled by up to 3 and looser or tighter than the box.  Half have their
    rows shuffled, so a cut row may come before the axis rows.
    """
    d = rng.randint(1, 4)
    wide = rng.random() < 0.5
    small = 6 if d <= 2 else 3
    lo = [rng.randint(-2, 0) for _ in range(d)]
    hi = [a + rng.randint(0, 40 if wide and j == 0 else small)
          for j, a in enumerate(lo)]
    rows, rhs = [], []
    for j in range(d):
        unit = [int(i == j) for i in range(d)]
        rows += [unit, [-v for v in unit]]
        rhs += [hi[j], -lo[j]]
    if rng.random() < 0.5:
        j = rng.randrange(d)
        c = rng.choice((1, 2, 3))
        unit = [c * int(i == j) for i in range(d)]
        if rng.random() < 0.5:
            rows.append(unit)
            rhs.append(c * hi[j] + rng.randint(-2, 2))
        else:
            rows.append([-v for v in unit])
            rhs.append(-c * lo[j] + rng.randint(-2, 2))
    inside = [rng.randint(a, b) for a, b in zip(lo, hi)]
    for _ in range(rng.randint(0, 2)):
        row = [rng.randint(-5, 5) for _ in range(d)]
        if any(row):
            rows.append(row)
            rhs.append(sum(c * x for c, x in zip(row, inside))
                       + rng.randint(0, 12))
    if rng.random() < 0.5:
        order = list(range(len(rows)))
        rng.shuffle(order)
        rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    poly = Polytope(rows, rhs)
    return poly if lattice_points(poly) else None


def _cell_polytopes():
    rng = random.Random(61207)
    polys = []
    while len(polys) < 48:
        poly = _cell_polytope(rng)
        if poly is not None:
            polys.append(poly)
    return polys + _cover_catalogue()


CELL_POLYTOPES = _cell_polytopes()


def _slacks(poly, p):
    """The slack ``b - A p`` of every row at ``p``."""
    return tuple(b - sum(c * x for c, x in zip(row, p))
                 for row, b in zip(poly.A, poly.b))


def _signature(poly, p):
    """The slack-interval index of every row at ``p``, from its slacks."""
    return tuple(slack_interval_index(s, poly.dim) for s in _slacks(poly, p))


def _axis_rows(poly):
    """The coordinate of each axis row (one non-zero coefficient), or None
    for any other row."""
    out = []
    for row in poly.A:
        nonzero = [j for j, c in enumerate(row) if c]
        out.append(nonzero[0] if len(nonzero) == 1 else None)
    return out


def _leading_axes(poly):
    """``(coordinate, coefficient)`` of the first axis row on each
    coordinate, in row order."""
    axes, seen = [], set()
    for row, j in zip(poly.A, _axis_rows(poly)):
        if j is not None and j not in seen:
            seen.add(j)
            axes.append((j, row[j]))
    return axes


def _sorted_branch_calls(monkeypatch, polys):
    """Per polytope, the separating axis rows ``(coordinate, coefficient)``
    in row order when ``cell_partition`` took its cells from the order
    ``_point_order`` gave, or None when it gave none.  The order given is
    checked to be the lattice sorted by those rows."""
    calls = []
    order_of = geometry._point_order

    def recording(poly, pts):
        order = order_of(poly, pts)
        if order is not None:
            axes = _leading_axes(poly)
            assert order == sorted(pts, key=lambda p: tuple(
                -p[j] if c > 0 else p[j] for j, c in axes))
            calls.append(axes)
        return order

    out = []
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_point_order", recording)
        for poly in polys:
            calls.clear()
            cell_partition(poly)
            assert len(calls) <= 1
            out.append(calls[0] if calls else None)
    return out


def _rows_before_a_fold(poly):
    """``(n, kind)``: the first row that ``cell_partition`` must fold, a
    non-separating axis row ("axis") or any other row ("cut"), after ``n``
    separating axis rows; None when every coordinate is separated first.
    Read from the rows and the lattice alone."""
    pts = lattice_points(poly)
    pending = set(range(poly.dim))
    recorded = 0
    for row, b, j in zip(poly.A, poly.b, _axis_rows(poly)):
        if j is None:
            return recorded, "cut"
        if j not in pending:
            continue
        values = {p[j] for p in pts}
        if len({slack_interval_index(b - row[j] * x, poly.dim)
                for x in values}) < len(values):
            return recorded, "axis"
        pending.discard(j)
        recorded += 1
        if not pending:
            return None
    raise AssertionError("a coordinate no row separates")


def _limit_polytope(rng):
    """A seeded box in d = 2 or 3 whose leading axis rows give one side
    from 3 shorter to 12 longer than the widest the slack grid separates
    (6 for d = 2, 14 for d = 3), with its other sides 1-4 long; or None
    when it holds no lattice point.  Two thirds have a pair of cut rows
    ``x_w - k x_v`` in ``[-m, 0]``, which leave the lattice only every
    k-th value or so on the wide coordinate."""
    d = rng.choice((2, 3))
    wide = rng.randrange(d)
    lo = [rng.randint(-2, 0) for _ in range(d)]
    hi = [a + ((6 if d == 2 else 14) + rng.randint(-3, 12) if j == wide
               else rng.randint(1, 4)) for j, a in enumerate(lo)]
    axis = []
    for j in range(d):
        unit = [int(i == j) for i in range(d)]
        axis += [(unit, hi[j]), ([-v for v in unit], -lo[j])]
    if rng.random() < 0.5:
        rng.shuffle(axis)
    rows, rhs = [list(r) for r, _b in axis], [b for _r, b in axis]
    if rng.random() < 2 / 3:
        v = rng.choice([j for j in range(d) if j != wide])
        k = rng.choice((2, 3))
        row = [int(i == wide) - k * int(i == v) for i in range(d)]
        rows += [row, [-c for c in row]]
        rhs += [0, rng.randint(0, k - 1)]
    poly = Polytope(rows, rhs)
    return poly if lattice_points(poly) else None


def _slack_vector_cells(poly):
    """The cells from each lattice point's full slack signature, in
    ascending signature order."""
    cells = {}
    for p in lattice_points(poly):
        cells.setdefault(_signature(poly, p), []).append(p)
    return [tuple(sorted(members)) for _sig, members in sorted(cells.items())]


class TestCells:
    def test_unit_segment_two_cells(self):
        # signatures (0, 2) at 0 and (2, 0) at 1
        poly = Polytope([[-1], [1]], [0, 1])
        assert cell_partition(poly) == [((0,),), ((1,),)]

    def test_single_point_one_cell(self):
        poly = Polytope([[1], [-1]], [4, -4])
        assert cell_partition(poly) == [((4,),)]

    def test_empty_lattice_no_cells(self):
        assert cell_partition(Polytope([[2], [-2]], [1, -1])) == []

    def test_seeded_cases_reach_past_the_catalogue(self, monkeypatch):
        """The seeded polytopes hold what the cover catalogue does not:
        every dimension 1..4, a cut row before an axis row, two axis rows
        on one coordinate, and cells of more than one point.  They also
        reach both ways ``cell_partition`` reads separating axis rows: the
        one sort of ``_point_order`` with mixed signs and with the
        coordinates out of order, and the fold of ``_slack_cells`` after
        separating rows and a non-separating axis row or a cut row."""
        seeded = CELL_POLYTOPES[:48]
        assert {poly.dim for poly in seeded} == {1, 2, 3, 4}
        axes = [_axis_rows(poly) for poly in seeded]
        assert any(a.index(None) < max(i for i, j in enumerate(a)
                                       if j is not None)
                   for a in axes if None in a)
        assert any(max(Counter(j for j in a if j is not None).values()) > 2
                   for a in axes)
        assert any(len(members) > 1 for poly in seeded
                   for members in cell_partition(poly))
        assert len(CELL_POLYTOPES) == 88

        sorted_axes = _sorted_branch_calls(monkeypatch, seeded)
        folds = [_rows_before_a_fold(poly) for poly in seeded]
        # the branch read from the rows here is the branch taken
        assert [axes is not None for axes in sorted_axes] == [
            fold is None for fold in folds]
        taken = [a for a in sorted_axes if a is not None]
        assert any(len({c > 0 for _j, c in a}) == 2 for a in taken)
        assert any([j for j, _c in a] != sorted(j for j, _c in a)
                   for a in taken)
        assert {"axis", "cut"} <= {fold[1] for fold in folds
                                   if fold is not None and fold[0] > 0}

    def test_the_cover_catalogue_takes_the_sorted_branch(self, monkeypatch):
        """Every polytope of the benchmark's ``cover`` catalogue has its
        cells from the one sort: its first three rows separate its three
        coordinates in order, each with a positive coefficient."""
        catalogue = CELL_POLYTOPES[48:]
        assert len(catalogue) == 40
        assert _sorted_branch_calls(monkeypatch, catalogue) == [
            [(0, 1), (1, 1), (2, 1)]] * 40

    def test_matches_the_slack_vector_loop(self):
        """The members and order of the cells against a loop over the
        points' full slack signatures, in ascending signature order."""
        def slack_vector_cells(poly):
            cells = {}
            for p in lattice_points(poly):
                cells.setdefault(_signature(poly, p), []).append(p)
            return [tuple(sorted(members))
                    for _sig, members in sorted(cells.items())]

        rng = random.Random(52711)
        polys = [rand_bounded_polytope(rng, max_dim=4, box_cap=6,
                                       lattice_budget=3000)
                 for _ in range(60)]
        for poly in polys + CELL_POLYTOPES:
            assert cell_partition(poly) == slack_vector_cells(poly), poly.A

    def test_seeded_cases_across_the_separation_limit(self, monkeypatch):
        """Across the range that the slack grid separates, the cells, the
        cover and the structure set are the slack-vector grouping's and
        what the fold gives alone.  The seeded boxes reach all three
        cases: the order from the axis box at a range the grid just
        separates, and beyond it both a lattice whose values the grid
        still separates (every cell one point) and one it does not."""
        rng = random.Random(40417)
        polys = []
        while len(polys) < 60:
            poly = _limit_polytope(rng)
            if poly is not None:
                polys.append(poly)
        ordered = [geometry._point_order(poly, lattice_points(poly))
                   is not None for poly in polys]
        cells = [cell_partition(poly) for poly in polys]
        for poly, got in zip(polys, cells):
            assert got == _slack_vector_cells(poly), (poly.A, poly.b)
        singles = [all(len(m) == 1 for m in c) for c in cells]
        spans = [max(b - a for a, b in geometry._axis_box(poly))
                 for poly in polys]
        assert any(o and span == (6 if poly.dim == 2 else 14)
                   for o, span, poly in zip(ordered, spans, polys))
        assert any(not o and single for o, single in zip(ordered, singles))
        assert any(not o and not single
                   for o, single in zip(ordered, singles))
        assert {poly.dim for poly in polys} == {2, 3}
        covers = [parallelepiped_cover(poly) for poly in polys]
        ssets = [compute_structure_set(poly) for poly in polys]
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_point_order", lambda poly, pts: None)
            for poly, cover, sset in zip(polys, covers, ssets):
                assert parallelepiped_cover(poly) == cover
                folded = compute_structure_set(poly)
                assert folded.special_points == sset.special_points
                assert folded.cover == sset.cover
                assert folded.locator == sset.locator

    def test_partition_properties(self):
        """Each cell is sorted and has one signature, computed here from
        the slacks; every slack lies in its signature's interval; no
        two cells share a signature, and the cells come in ascending
        signature order; together they hold each lattice point once."""
        for poly in [knapsack_fig()] + CELL_POLYTOPES:
            signatures = []
            seen = []
            for members in cell_partition(poly):
                assert list(members) == sorted(members)
                found = {_signature(poly, p) for p in members}
                assert len(found) == 1, (poly.A, members)
                signature = found.pop()
                for p in members:
                    for s, j in zip(_slacks(poly, p), signature):
                        lo, hi = slack_interval_endpoints(j, poly.dim)
                        assert lo <= s <= hi
                signatures.append(signature)
                seen.extend(members)
            assert signatures == sorted(set(signatures)), poly.A
            assert sorted(seen) == lattice_points(poly)
            assert len(seen) == len(set(seen))


class TestParallelepiped:
    def test_vertices_point(self):
        pp = Parallelepiped((3,), ())
        assert pp.vertices() == [(3,)]

    def test_vertices_square(self):
        pp = Parallelepiped((1, 1), ((1, 0), (0, 1)))
        assert pp.vertices() == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_vertices_segment(self):
        pp = Parallelepiped((1,), ((1,),))
        assert pp.vertices() == [(0,), (2,)]

    def test_half_integral_center(self):
        pp = Parallelepiped((Rat(3, 2),), ((Rat(3, 2),),))
        assert pp.vertices() == [(0,), (3,)]

    def test_non_integral_vertex_rejected(self):
        with pytest.raises(InputError):
            Parallelepiped((Rat(1, 2),), ((Rat(1, 4),),))
        with pytest.raises(InputError):
            Parallelepiped((Rat(1, 2), 0), ())

    def test_dependent_directions_rejected(self):
        with pytest.raises(InputError):
            Parallelepiped((0, 0), ((1, 0), (2, 0)))

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            Parallelepiped((0, 0), ((0, 0),))

    def test_coordinates(self):
        pp = Parallelepiped((1,), ((1,),))
        assert coefficients(pp, (0,)) == (-1,)
        assert coefficients(pp, (1,)) == (0,)
        assert coefficients(pp, (3,)) is None

    def test_point_matches_the_general_path(self):
        # Parallelepiped.point skips the elimination; an int or a Rat
        # center with no directions takes the general path
        rng = random.Random(7309)
        for _ in range(40):
            d = rng.randint(1, 4)
            c = tuple(rng.randint(-6, 6) for _ in range(d))
            point = Parallelepiped.point(c)
            for general in (Parallelepiped(c, ()),
                            Parallelepiped(tuple(Rat(v) for v in c), ())):
                assert point == general and hash(point) == hash(general)
                assert repr(point) == repr(general)
                for attr in ("vecs", "pivots", "adj", "det", "_scale",
                             "_center"):
                    assert getattr(point, attr) == getattr(general, attr), attr
                assert point.k == general.k == 0
                assert point.dim == general.dim
                assert point.center == general.center
                assert point.vertices() == general.vertices() == [c]
                probes = [c, tuple(Rat(v) for v in c),
                          tuple(v + rng.randint(-1, 1) for v in c),
                          tuple(v + Rat(rng.randint(-2, 2), 3) for v in c)]
                for q in probes:
                    assert point.contains(q) == general.contains(q)
                    assert coefficients(point, q) == coefficients(general, q)
            assert coefficients(point, c) == ()

    def test_coordinates_outside_span(self):
        pp = Parallelepiped((0, 0), ((1, 0),))
        assert coefficients(pp, (0, 1)) is None
        assert coefficients(pp, (Rat(1, 2), 0)) == (Rat(1, 2),)


def coefficients(pp, point):
    """The exact ``mu`` of ``point = center + sum mu_j dir_j`` in ``pp``,
    each ``|mu_j| <= 1``, from its membership test; None outside ``pp``."""
    hit = pp._numerators(point)
    return None if hit is None else tuple(Rat(n, hit[1]) for n in hit[0])


def _oracle_coordinates(center, directions, point):
    """``mu`` with ``point = center + sum mu_j dir_j`` and every
    ``|mu_j| <= 1``, else None: Gauss-Jordan elimination on Fractions of
    the d x k system, for independent directions."""
    k = len(directions)
    rows = [[Fraction(dvec[i]) for dvec in directions]
            + [Fraction(point[i]) - Fraction(center[i])]
            for i in range(len(center))]
    for j in range(k):
        piv = next(i for i in range(j, len(rows)) if rows[i][j] != 0)
        rows[j], rows[piv] = rows[piv], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j] != 0:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[j])]
    if any(row[k] != 0 for row in rows[k:]):
        return None  # off the affine span
    mu = tuple(rows[j][k] for j in range(k))
    return mu if all(-1 <= m <= 1 for m in mu) else None


def _rank(vectors):
    """Rank by Fraction row echelon form."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_coef = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]),
    # just outside the coefficient box
    st.integers(2, 12).map(lambda n: Fraction(n + 1, n)),
    st.integers(2, 12).map(lambda n: Fraction(-n - 1, n)),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)


@st.composite
def _parallelepiped_queries(draw):
    """A parallelepiped with integral vertices and points to test in it.

    The edges ``e_j`` from an integral vertex are small integer vectors of
    either sign, so the centre ``v0 + sum e_j / 2`` and the directions
    ``e_j / 2`` are often half-integral; ``k`` runs from 0 to ``d``.
    """
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d))
    small = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    v0 = draw(small)
    edges = draw(st.lists(small, min_size=k, max_size=k))
    assume(_rank(edges) == k)
    center = tuple(Fraction(2 * a + sum(e[i] for e in edges), 2)
                   for i, a in enumerate(v0))
    directions = tuple(tuple(Fraction(v, 2) for v in e) for e in edges)
    queries = draw(st.lists(st.lists(st.integers(-5, 5), min_size=d,
                                     max_size=d).map(tuple), max_size=6))
    for _ in range(draw(st.integers(1, 6))):
        mu = draw(st.lists(_coef, min_size=k, max_size=k))
        # a random offset leaves the affine span whenever k < d, mostly
        off = draw(st.one_of(st.just([0] * d), small))
        queries.append(tuple(
            c + o + sum(m * dvec[i] for m, dvec in zip(mu, directions))
            for i, (c, o) in enumerate(zip(center, off))))
    queries.append(center)
    return center, directions, queries


@settings(max_examples=300)
@given(_parallelepiped_queries())
def test_membership_matches_fraction_elimination(case):
    center, directions, queries = case
    pp = Parallelepiped(center, directions)
    assert pp.center == center and pp.directions == directions
    for q in queries:
        want = _oracle_coordinates(center, directions, q)
        assert coefficients(pp, q) == want
        assert pp.contains(q) is (want is not None)


class TestMvee:
    def test_square_corners_all_contacts(self):
        pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        res = mvee_contact_points(pts, (0, 0))
        assert res.contact_indices == (0, 1, 2, 3)
        assert res.dim == 2 and res.scale == 2
        assert not res.used_fallback

    def test_segment(self):
        res = mvee_contact_points([(-2, 0), (2, 0)], (0, 0))
        assert res.dim == 1 and res.scale == 1
        assert res.contact_indices == (0, 1)

    def test_hexagon(self):
        pts = [(2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]
        res = mvee_contact_points(pts, (0, 0))
        assert len(res.contact_indices) <= 5
        assert not res.used_fallback
        # re-check the certified containment independently
        gens = []
        for i in res.contact_indices:
            gens.append(tuple(2 * v for v in pts[i]))
            gens.append(tuple(-2 * v for v in pts[i]))
        for p in pts:
            assert in_convex_hull(p, gens)

    def test_offset_center(self):
        pts = [(4, 5), (6, 5), (5, 4), (5, 6)]
        res = mvee_contact_points(pts, (5, 5))
        assert res.contact_indices == (0, 1, 2, 3)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            mvee_contact_points([(0, 0), (1, 0)], (0, 0))

    def test_all_points_at_center(self):
        res = mvee_contact_points([(3, 3)], (3, 3))
        assert res.contact_indices == () and res.dim == 0

    def test_non_integral_point_rejected(self):
        with pytest.raises(InputError):
            mvee_contact_points([(Rat(1, 2), 0), (Rat(-1, 2), 0)], (0, 0))

    # the answers below were recorded from a numpy implementation of the
    # same iteration, capped at 100,000 steps

    def test_weight_update(self):
        pts = [(24, 16), (25, 15), (26, 15), (26, 16), (26, 17), (27, 17),
               (28, 16)]
        res = mvee_contact_points(pts, (26, 16))
        assert res.iterations == 2
        assert res.contact_indices == (0, 1, 2, 4, 5)
        assert not res.used_fallback

    def test_slow_approach_stops_once_contacts_settle(self):
        # the step never reaches the tolerance here; the contacts after
        # steps 1 and 2 agree, and are those of a loop run to the cap
        pts = [(5, 16), (5, 19), (6, 18), (6, 19), (6, 20), (7, 19), (7, 22)]
        res = mvee_contact_points(pts, (6, 19))
        assert res.iterations == 2
        assert res.contact_indices == (0, 1, 2, 4, 5)
        assert not res.used_fallback


def assert_valid_cover(poly, cover):
    pts = lattice_points(poly)
    for pp in cover:
        for v in pp.vertices():
            assert poly.contains_int(v), f"vertex {v} escapes the polytope"
    for p in pts:
        assert any(pp.contains(p) for pp in cover), \
            f"lattice point {p} uncovered"


class TestParallelepipedCover:
    def test_d1_segment_single_pp(self):
        poly = Polytope([[-1], [1]], [0, 3])
        cover = parallelepiped_cover(poly)
        assert len(cover) == 1
        pp = cover[0]
        assert pp.center == (Rat(3, 2),)
        assert pp.directions == ((Rat(3, 2),),)
        for x in range(4):
            assert pp.contains((x,))

    def test_single_point(self):
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 2, -2])
        cover = parallelepiped_cover(poly)
        assert len(cover) == 1
        assert cover[0].k == 0 and cover[0].vertices() == [(1, 2)]

    def test_empty_lattice(self):
        poly = Polytope([[1], [-1]], [0, -1])
        assert parallelepiped_cover(poly) == []

    def test_knapsack_cover(self):
        poly = knapsack_fig()
        cover = parallelepiped_cover(poly)
        assert_valid_cover(poly, cover)

    def test_box_cover(self):
        poly = Polytope([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 2, 2])
        assert_valid_cover(poly, parallelepiped_cover(poly))

    def test_random_small_polytopes(self, monkeypatch):
        monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 6000)
        rng = random.Random(40917)
        done = 0
        while done < 25:
            d = rng.randint(1, 3)
            m = rng.randint(d, 5)
            rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(m)]
            rhs = [rng.randint(-6, 12) for _ in range(m)]
            try:
                poly = Polytope(rows, rhs)
                pts = lattice_points(poly)
            except (InputError, ResourceError):
                continue
            if not pts:
                continue
            assert_valid_cover(poly, parallelepiped_cover(poly))
            done += 1
