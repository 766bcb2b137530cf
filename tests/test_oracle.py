import random
from types import SimpleNamespace

import pytest

from conepack.errors import InputError, ResourceError
from conepack.geometry import Polytope, box_polytope, parallelepiped_cover
from conepack.oracle import (bp_brute_force, cover_verify, exact_cover_cost,
                             fractional_opt, int_cone_brute,
                             nonpreemptive_brute, tardy_exhaustive)
from conepack.rational import Rat
from conepack.scheduling import SchedulingInstance

from genutil import rand_bp_instance, singleton_target, rand_bounded_polytope


class TestBpBruteForce:
    def test_three_halves(self):
        assert bp_brute_force([Rat(1, 2)], [3]) == 2

    def test_two_types(self):
        assert bp_brute_force([Rat(1, 2), Rat(1, 3)], [2, 3]) == 2

    def test_empty_demand(self):
        assert bp_brute_force([Rat(1, 2)], [0]) == 0

    def test_full_items(self):
        # size-1 items need one bin each
        assert bp_brute_force([Rat(1), Rat(1)], [2, 3]) == 5

    def test_thirds(self):
        assert bp_brute_force([Rat(1, 3)], [7]) == 3

    def test_item_cap(self):
        with pytest.raises(ResourceError):
            bp_brute_force([Rat(1, 2)], [13])

    def test_oversized_item_rejected(self):
        with pytest.raises(InputError):
            bp_brute_force([Rat(3, 2)], [1])


class TestExactCoverCost:
    def test_zero_demand_costs_nothing(self):
        assert exact_cover_cost([], (0, 0)) == 0

    def test_no_cover_is_none(self):
        # an odd demand from even vectors, and a type no option holds
        assert exact_cover_cost([((2,), 1)], (3,)) is None
        assert exact_cover_cost([((1, 0), 1)], (1, 1)) is None

    def test_options_repeat_and_weigh_their_costs(self):
        options = [((1, 0), 3), ((0, 1), 3), ((1, 1), 4), ((0, 0), 0)]
        assert exact_cover_cost(options, (2, 2)) == 8
        assert exact_cover_cost(options, (3, 1)) == 10
        assert exact_cover_cost([((2, 2), 5)] + options, (2, 2)) == 5

    def test_a_cover_may_start_from_a_later_coordinate(self):
        # the residual (0, 1) is covered only through the options that hold
        # its first non-zero entry, coordinate 1
        assert exact_cover_cost([((1, 0), 1), ((0, 1), 7), ((1, 1), 2)],
                                (1, 1)) == 2
        assert exact_cover_cost([((1, 0), 1), ((0, 1), 7)], (2, 1)) == 9


class TestFractionalOpt:
    def test_halves(self):
        assert fractional_opt([Rat(1, 2)], [3]) == Rat(3, 2)

    def test_tight_two_type(self):
        # patterns (2,0) and (0,3) meet the demand with no slack
        assert fractional_opt([Rat(1, 2), Rat(1, 3)], [2, 3]) == 2

    def test_zero_demand(self):
        assert fractional_opt([Rat(1, 2)], [0]) == 0

    def test_oversize_pattern_helps(self):
        # demand one third-item: a single pattern (3) at weight 1/3 wins
        assert fractional_opt([Rat(1, 3)], [1]) == Rat(1, 3)

    def test_pattern_cap(self):
        # 1001^2 knapsack patterns already exceed the cap at the second
        # size, before any pattern is listed
        with pytest.raises(ResourceError, match="pattern enumeration"):
            fractional_opt([Rat(1, 1000)] * 3, [1, 1, 1])

    def test_volume_and_rounding_bounds(self):
        rng = random.Random(4021)
        for _ in range(40):
            sizes, mult = rand_bp_instance(rng, max_items=8)
            frac = fractional_opt(sizes, mult)
            volume = sum(s * m for s, m in zip(sizes, mult))
            assert frac >= volume
            opt = bp_brute_force(sizes, mult)
            assert frac <= opt
            assert -(-frac.numerator // frac.denominator) <= opt


class TestIntConeBrute:
    def test_found(self):
        found, point, weights = int_cone_brute([(1,), (2,)],
                                               singleton_target([5]),
                                               [(0, 5)])
        assert found and point == (5,)
        assert sum(w * g[0] for g, w in weights.items()) == 5

    def test_empty(self):
        found, _, _ = int_cone_brute([(2,)], singleton_target([3]), [(0, 3)])
        assert not found

    def test_zero_target(self):
        found, point, weights = int_cone_brute([(2,)], singleton_target([0]),
                                               [(0, 3)])
        assert found and point == (0,) and weights == {}

    def test_mixed_signs_need_cap(self):
        with pytest.raises(InputError):
            int_cone_brute([(-1,), (3,)], singleton_target([1]), [(-2, 3)])

    def test_mixed_signs_with_cap(self):
        found, point, _ = int_cone_brute([(-1,), (3,)], singleton_target([1]),
                                         [(-2, 3)], max_weight=3)
        assert found and point == (1,)

    def test_two_dims(self):
        found, point, weights = int_cone_brute(
            [(1, 0), (1, 2)], singleton_target([3, 2]), [(0, 3), (0, 2)])
        assert found and point == (3, 2)
        assert weights[(1, 2)] == 1 and weights[(1, 0)] == 2


class TestCoverVerify:
    def test_good_cover(self):
        poly = Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200])
        report = cover_verify(poly, parallelepiped_cover(poly))
        assert report.ok and report.violations == ()

    def test_missing_piece_detected(self):
        poly = Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200])
        cover = parallelepiped_cover(poly)
        report = cover_verify(poly, cover[:-1] if len(cover) > 1 else [])
        assert not report.ok
        assert any(kind == "point-uncovered" for kind, *_ in report.violations)

    def test_vertex_outside_detected(self):
        poly = Polytope([[1], [-1]], [3, 0])
        stray = SimpleNamespace(center=(2,), directions=((2,),))
        report = cover_verify(poly, [stray])
        assert not report.ok
        assert any(kind == "vertex-outside-polytope"
                   for kind, *_ in report.violations)

    def test_fractional_vertex_detected(self):
        poly = Polytope([[1], [-1]], [3, 0])
        bad = SimpleNamespace(center=(Rat(1, 4),), directions=((Rat(1, 4),),))
        full = SimpleNamespace(center=(Rat(3, 2),), directions=((Rat(3, 2),),))
        report = cover_verify(poly, [bad, full])
        assert not report.ok
        assert any(kind == "vertex-not-integral"
                   for kind, *_ in report.violations)

    def test_a_cube_of_point_members(self):
        """The 2,197 point members of the cube [0, 12]^3 verify, and
        dropping one leaves exactly its point uncovered."""
        poly = box_polytope([0, 0, 0], [12, 12, 12])
        cover = parallelepiped_cover(poly)
        assert len(cover) == 2197 and all(pp.k == 0 for pp in cover)
        assert cover_verify(poly, cover).violations == ()
        gone = next(i for i, pp in enumerate(cover)
                    if pp.center == (5, 6, 7))
        report = cover_verify(poly, cover[:gone] + cover[gone + 1:])
        assert report.violations == (("point-uncovered", (5, 6, 7)),)

    def test_scan_cap(self):
        # the cube [0, 200]^3 holds 201^3 > 2 * 10^6 candidate points
        with pytest.raises(ResourceError, match="cover verification scan"):
            cover_verify(box_polytope([0, 0, 0], [200, 200, 200]), [])

    def test_random_covers_pass(self):
        rng = random.Random(988)
        for _ in range(10):
            poly = rand_bounded_polytope(rng, max_dim=2, box_cap=4)
            report = cover_verify(poly, parallelepiped_cover(poly))
            assert report.ok, report.violations


class TestNonpreemptiveBrute:
    def test_empty(self):
        assert nonpreemptive_brute([], 10) == ()

    def test_single_job(self):
        placed = nonpreemptive_brute([(2, 6, 3)], 10)
        assert placed == ((2, 2, 6, 3),)

    def test_tight_job_impossible(self):
        assert nonpreemptive_brute([(0, 3, 4)], 10) is None

    def test_order_matters(self):
        # the short urgent job must come first
        jobs = [(0, 10, 5), (0, 2, 2)]
        placed = nonpreemptive_brute(jobs, 10)
        assert placed is not None
        starts = sorted((s, p) for s, _r, _d, p in placed)
        assert starts[0] == (0, 2) and starts[1] == (2, 5)

    def test_interleaved_windows(self):
        jobs = [(0, 4, 2), (2, 6, 2), (4, 8, 2)]
        placed = nonpreemptive_brute(jobs, 8)
        assert placed is not None
        # no overlap and all windows met
        spans = sorted((s, s + p) for s, _r, _d, p in placed)
        for (a, b), (c, _d2) in zip(spans, spans[1:]):
            assert b <= c
        for s, r, d, p in placed:
            assert s >= r and s + p <= d

    def test_overloaded(self):
        assert nonpreemptive_brute([(0, 4, 2)] * 3, 4) is None

    def test_copies_too_long_for_their_span_need_no_cap(self):
        # 11 units of work between release 4 and deadline 8: no order can
        # fit them, so the answer is None with more copies than the cap
        jobs = [(4, 6, 1)] * 3 + [(4, 8, 2)] * 4
        assert nonpreemptive_brute(jobs, 8) is None

    def test_job_cap(self):
        with pytest.raises(ResourceError):
            nonpreemptive_brute([(0, 50, 1)] * 7, 50)

    def test_horizon_cap(self):
        with pytest.raises(ResourceError):
            nonpreemptive_brute([(0, 51, 1)], 51)


def test_tardy_exhaustive_caps_the_job_copies():
    # seven job copies exceed the cap of six before any vector is tried
    inst = SchedulingInstance([[(0, 10, 1)]], [7], counts=[1], penalties=[1])
    with pytest.raises(ResourceError, match="tardy brute force"):
        tardy_exhaustive(inst)
