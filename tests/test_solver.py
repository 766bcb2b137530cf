import hashlib
import itertools
import random
import re
import sys
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepack.budget import limit
from conepack.errors import (InfeasibleError, InputError, InternalError,
                             ResourceError)
from conepack import budget, geometry, scheduling, solver
from conepack.exactmath import ExactLp
from conepack.geometry import (Polytope, coordinate_bounds, in_convex_hull,
                               integer_box, lattice_points)
from conepack.ilp import ilp_feasible
from conepack.oracle import (bp_brute_force, exact_cover_cost,
                             fractional_opt, int_cone_brute)
from conepack.rational import Rat, rat_ceil
from conepack.scheduling import SchedulingInstance, preemptive_assign
from conepack.solver import (BinPackingInstance, CuttingStockInstance,
                             PackingSolution, bin_packing, cheapest_cover,
                             configuration_window, cutting_stock,
                             int_cone_intersect, least_feasible,
                             multi_polytope_select, select_from_generators,
                             verify_solution)
from conepack.structure import compute_structure_set

from genutil import (box_polytope, check_window, mode_verdicts,
                     pattern_polytope, rand_bounded_polytope, rand_bp_instance,
                     singleton_target, weighted_sum)


def segment(lo, hi):
    return Polytope([[1], [-1]], [hi, -lo])


class TestLeastFeasible:
    @staticmethod
    def fake_probe(threshold, slack, probed):
        """Monotone: succeeds from ``threshold`` on, and then reports an
        objective up to ``slack`` below the probed bound."""
        def probe(v):
            probed.append(v)
            return SimpleNamespace(found=v >= threshold,
                                   value=max(threshold, v - slack))
        return probe

    def test_finds_threshold(self):
        for threshold in range(0, 31):
            probed = []
            best, opt = least_feasible(self.fake_probe(threshold, 0, probed),
                                       0, 30, lambda res: res.value)
            assert opt == threshold
            assert best.found and best.value == threshold

    def test_probe_sequence(self):
        probed = []
        best, opt = least_feasible(self.fake_probe(37, 5, probed), 0, 100,
                                   lambda res: res.value)
        # hits at 100 and 47 report 95 and 42, below the probed bound
        assert probed == [100, 47, 21, 32, 37, 35, 36]
        assert opt == 37 and best.value == 37

    def test_infeasible_upper_end(self):
        probed = []
        with pytest.raises(InternalError):
            least_feasible(self.fake_probe(11, 0, probed), 0, 10,
                           lambda res: res.value)
        assert probed == [10]


class TestIntConeIntersect:
    def test_reach_five_from_segment(self):
        res = int_cone_intersect(segment(1, 2), singleton_target([5]))
        assert res.found and res.target == (5,)
        assert weighted_sum(res.combination) == (5,)

    def test_parity_gap(self):
        res = int_cone_intersect(segment(2, 2), singleton_target([3]))
        assert not res.found

    def test_zero_target_is_trivial(self):
        res = int_cone_intersect(segment(2, 2), singleton_target([0]))
        assert res.found and res.target == (0,)
        assert res.combination == {}

    def test_empty_lattice(self):
        # only fractional points between 0 and 1 exclusive
        src = Polytope([[2], [-2]], [1, -1])
        res = int_cone_intersect(src, singleton_target([3]))
        assert not res.found
        res = int_cone_intersect(src, singleton_target([0]))
        assert res.found

    def test_empty_target(self):
        src = segment(0, 2)
        empty = Polytope([[1], [-1]], [0, -1])
        res = int_cone_intersect(src, empty)
        assert not res.found

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            int_cone_intersect(segment(0, 1), singleton_target([1, 1]))

    def test_window_monotonicity(self):
        src = segment(2, 2)
        assert not int_cone_intersect(src, box_polytope([3], [3])).found
        assert int_cone_intersect(src, box_polytope([2], [4])).found
        assert int_cone_intersect(src, box_polytope([0], [5])).found

    def test_modes_agree_on_foundness(self):
        rng = random.Random(7723)
        for _ in range(25):
            d = rng.randint(1, 2)
            hi = [rng.randint(1, 3) for _ in range(d)]
            rows = [list(r) for r in box_polytope([0] * d, hi).A]
            rhs = list(box_polytope([0] * d, hi).b)
            rows.append([rng.randint(1, 3) for _ in range(d)])
            rhs.append(rng.randint(2, 9))
            src = Polytope(rows, rhs)
            tgt = singleton_target([rng.randint(0, 12) for _ in range(d)])
            a = int_cone_intersect(src, tgt, mode="faithful")
            b = int_cone_intersect(src, tgt, mode="joint")
            assert a.found == b.found
            if a.found:
                assert a.target == b.target == weighted_sum(a.combination)

    def test_agrees_with_brute_force(self):
        rng = random.Random(5151)
        for _ in range(30):
            d = rng.randint(1, 2)
            hi = [rng.randint(1, 4) for _ in range(d)]
            src = box_polytope([0] * d, hi)
            bounds = [(0, rng.randint(0, 20)) for _ in range(d)]
            tgt = box_polytope([b - rng.randint(0, 1) for _, b in bounds],
                               [b for _, b in bounds])
            mine = int_cone_intersect(src, tgt)
            gens = [p for p in lattice_points(src)
                    if any(v != 0 for v in p)]
            ref_found, _, _ = int_cone_brute(gens, tgt, bounds)
            assert mine.found == ref_found
            if mine.found:
                assert tgt.contains_int(mine.target)

    def test_support_bound_holds(self):
        rng = random.Random(99)
        for _ in range(10):
            d = rng.randint(1, 2)
            src = box_polytope([0] * d, [rng.randint(2, 4)] * d)
            tgt = singleton_target([rng.randint(5, 25) for _ in range(d)])
            res = int_cone_intersect(src, tgt)
            if res.found:
                assert len(res.combination) <= 2 ** (2 * d + 1)

    def test_unbounded_target_needs_bounds(self):
        src = segment(1, 2)
        ray = Polytope([[-1]], [-3])  # x >= 3, no upper bound
        with pytest.raises(InputError):
            int_cone_intersect(src, ray)

    @pytest.mark.parametrize("mode", ["faithful", "joint"])
    @pytest.mark.parametrize("source,target", [
        (box_polytope([-1, 0], [1, 1]), singleton_target([3, 1])),
        (segment(-1, 1), singleton_target([1]))], ids=["square", "segment"])
    def test_a_source_that_is_not_pointed_is_refused(self, source, target,
                                                     mode):
        # 0 is a convex combination of the generators, so the weights are
        # unbounded; the target is bounded and is not to blame
        with pytest.raises(InputError, match="source is not pointed"):
            int_cone_intersect(source, target, mode=mode)

    def test_unbounded_target_holding_the_origin_is_rejected(self):
        # checked before the shortcut for a target holding the origin, as
        # select_from_generators does
        ray = Polytope([[-1]], [0])  # x >= 0, no upper bound
        with pytest.raises(InputError, match="unbounded in coordinate 0"):
            int_cone_intersect(segment(1, 2), ray)


UNKNOWN_MODE_ENTRIES = {
    # inputs that answer without a probe in a known mode
    "int_cone_intersect": lambda mode: int_cone_intersect(
        segment(1, 2), singleton_target([0]), mode=mode),
    "multi_polytope_select": lambda mode: multi_polytope_select(
        [(segment(1, 2), 1)], singleton_target([3]), -1, mode=mode),
    "cutting_stock": lambda mode: cutting_stock(
        CuttingStockInstance([Rat(1, 2)], [3], [(Rat(1), 1)]), mode=mode),
    "bin_packing": lambda mode: bin_packing(
        BinPackingInstance([Rat(1, 2)], [3]), mode=mode),
    "preemptive_assign": lambda mode: preemptive_assign(
        SchedulingInstance([[(0, 4, 1)]], [3], costs=[1]), mode=mode),
}


@pytest.mark.parametrize("entry", list(UNKNOWN_MODE_ENTRIES))
def test_unknown_mode_is_refused_before_any_work(entry):
    solve = UNKNOWN_MODE_ENTRIES[entry]
    for mode in ("faithful", "joint"):
        solve(mode)
    with pytest.raises(InputError, match="unknown mode 'bogus'"):
        solve("bogus")


def fresh_relaxation(special, target):
    """Reference: a fresh LP over the weights of ``special``."""
    rows, rhs = solver._combination_rows([(0, p) for p in special], target,
                                         None)
    return ExactLp(rows, rhs, lo=[0] * len(special)).find_feasible()


class _Stop(Exception):
    """Ends a probe before an integer program runs."""


def first_program(monkeypatch, call):
    """The points of the first combination program that ``call`` builds,
    which is not run; None when it builds none."""
    seen = []

    def stop(tagged, target, cap, hi=None):
        seen.append([p for _g, p in tagged])
        raise _Stop

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_run_combination_ilp", stop)
        try:
            call()
        except _Stop:
            return seen[0]
    return None


def prefilter_support(monkeypatch, source, target):
    """The generators weighted at a faithful probe's prefilter point, the
    first ``ExactLp`` the decider builds; None when the probe answers
    before its lead guess."""
    lps = []

    class Recorded(ExactLp):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            lps.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "ExactLp", Recorded)
        if first_program(patch, lambda: int_cone_intersect(
                source, target, mode="faithful")) is None:
            return None
    gens = [p for p in lattice_points(source) if any(p)]
    return [g for g, (n, _d) in zip(gens, lps[0].point()) if n]


def near_target(rng, gens):
    """A target near a sum of a few of ``gens``: a box, sometimes with one
    more row."""
    d = len(gens[0])
    picks = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
    y = [sum(p[j] for p in picks) + rng.randint(-1, 1) for j in range(d)]
    r = rng.randint(0, 1)
    target = box_polytope([v - r for v in y], [v + r for v in y])
    if rng.random() < 0.5:
        cut = [rng.randint(-2, 2) for _ in range(d)]
        target = Polytope(target.A + [cut], target.b + (
            sum(c * v for c, v in zip(cut, y)) + rng.randint(-1, 1),))
    return target


def flat_slabs(rng, count):
    """Seeded 3-d boxes, long in x and thin in the other coordinates,
    sometimes cut, whose covers hold ``k > 0`` elements."""
    slabs = []
    while len(slabs) < count:
        hi = [rng.randint(24, 40), rng.randint(1, 3), rng.randint(0, 2)]
        slab = box_polytope([0, 0, 0], hi)
        if rng.random() < 0.5:
            cut = (1, rng.randint(1, 3), rng.randint(1, 3))
            slab = Polytope(slab.A + [cut], slab.b + (
                rng.randint(hi[0] // 2, hi[0] + 4),))
        if any(pp.k for pp in compute_structure_set(slab).cover):
            slabs.append(slab)
    return slabs


class TestRelaxation:
    """The prefilter LP over all generators, and the lead guess built from
    its support."""

    def test_support_is_a_small_feasible_guess(self, monkeypatch):
        rng = random.Random(4243)
        checked = 0
        for _ in range(60):
            while True:
                # a random source, kept when it is pointed
                source = rand_bounded_polytope(rng, max_dim=3, max_rows=5,
                                               coeff_cap=9, box_cap=3)
                gens = [p for p in lattice_points(source) if any(p)]
                if gens and not in_convex_hull((0,) * source.dim, gens):
                    break
            target = near_target(rng, gens)
            if integer_box(target) is None:
                continue
            support = prefilter_support(monkeypatch, source, target)
            if support is None:
                continue
            # a basic point: at most one non-zero weight per target row
            assert set(support) <= set(gens)
            assert len(support) <= target.m
            assert fresh_relaxation(support, target)
            checked += 1
        assert checked >= 20

    def test_lead_guess_relaxation_is_feasible(self, monkeypatch):
        # each support point is a convex combination of its cover
        # element's vertices, so the guess needs no LP of its own
        rng = random.Random(27)
        probes = 0
        for slab in flat_slabs(rng, 4):
            sset = compute_structure_set(slab)
            gens = [p for p in lattice_points(slab) if any(p)]
            inside = [p for p in gens if sset.cover[sset.locator[p]].k]
            for _ in range(6):
                # the prefilter's own support
                target = near_target(rng, gens)
                special = first_program(
                    monkeypatch, lambda: int_cone_intersect(slab, target))
                if special is not None:
                    assert set(special) <= set(gens)
                    assert fresh_relaxation(special, target)
                    probes += 1
                # a support inside k > 0 elements, where the prefilter's
                # basic points, extreme in the slab, seldom fall: the
                # prefilter reports this feasible point instead of its own
                support = rng.sample(inside,
                                     rng.randint(1, min(3, len(inside))))
                weights = dict(zip(support, (1, 2, 3)))
                y = [sum(w * p[j] for p, w in weights.items())
                     for j in range(3)]
                target = box_polytope(y, y)

                class Reported(ExactLp):
                    def point(self):
                        return [(weights.get(g, 0), 1) for g in gens]

                with monkeypatch.context() as patch:
                    patch.setattr(solver, "ExactLp", Reported)
                    special = first_program(patch, lambda: (
                        int_cone_intersect(slab, target)))
                assert set(special) <= set(gens)
                assert fresh_relaxation(special, target)
        assert probes >= 12, probes


def recorded_decisions(monkeypatch):
    """The ``IntConeResult`` of every ``solver._decide`` run from now on,
    in order."""
    results = []
    decide = solver._decide

    def recording(*args, **kwargs):
        results.append(decide(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "_decide", recording)
    return results


def _bin_packing_probes(monkeypatch, sizes, a):
    """Bin packing's probe of a bin count, and its window, as
    ``bin_packing`` builds them; a probe returns the ``IntConeResult``
    that ``multi_polytope_select`` gets from ``_decide``."""
    results = recorded_decisions(monkeypatch)
    part = pattern_polytope(sizes, 1, a)
    window = configuration_window([(lattice_points(part), 1)], a)[:2]

    def probe(b):
        multi_polytope_select([(part, 1)], box_polytope(a, a), b)
        return results[-1]
    return probe, window


class TestLeadGuess:
    def test_the_window_top_hits_at_the_first_guess(self, monkeypatch):
        rng = random.Random(15015)
        for _ in range(30):
            sizes, a = rand_bp_instance(rng)
            if not any(a):
                continue
            probe, (_lo, hi) = _bin_packing_probes(monkeypatch, sizes, a)
            res = probe(hi)
            assert res.found and res.mode_used == "faithful", (sizes, a)
            assert res.guesses_tried == 1, (sizes, a)

    def test_a_missed_lead_goes_to_the_joint_program(self, monkeypatch):
        sizes, a = [Rat(5, 8), Rat(1, 2), Rat(1, 3)], [4, 3, 4]
        probe, window = _bin_packing_probes(monkeypatch, sizes, a)
        assert window == (6, 6)
        res = probe(6)
        assert res.found and res.mode_used == "joint"
        assert res.guesses_tried == 1


class TestBinPacking:
    def test_three_halves(self):
        sol = bin_packing(BinPackingInstance([Rat(1, 2)], [3]))
        assert sol.objective == 2

    def test_two_types(self):
        sol = bin_packing(BinPackingInstance([Rat(1, 2), Rat(1, 3)], [2, 3]))
        assert sol.objective == 2

    def test_single_bin_fits_everything(self):
        inst = BinPackingInstance([Rat(13, 100), Rat(41, 200)], [7, 0])
        sol = bin_packing(inst)
        assert sol.objective == 1
        assert sol.patterns == (((7, 0), 0, 1),)

    def test_zero_demand(self):
        sol = bin_packing(BinPackingInstance([Rat(1, 2)], [0]))
        assert sol.objective == 0 and sol.patterns == ()

    def test_oversized_item_rejected(self):
        with pytest.raises(InputError):
            BinPackingInstance([Rat(3, 2)], [1])

    def test_zero_size_rejected(self):
        with pytest.raises(InputError):
            BinPackingInstance([Rat(0)], [1])

    @pytest.mark.parametrize("a", [2.7, Rat(5, 2), -1])
    def test_multiplicity_must_be_a_non_negative_integer(self, a):
        with pytest.raises(InputError):
            BinPackingInstance([Rat(1, 2)], [a])

    def test_integral_rational_multiplicity_accepted(self):
        assert BinPackingInstance([Rat(1, 2)], [Rat(3)]).multiplicities == (3,)

    def test_cutting_stock_instance_rejected(self):
        # even one with the single bin type (1, 1)
        inst = CuttingStockInstance([Rat(1, 2)], [3], [(Rat(1), 1)])
        with pytest.raises(InputError):
            bin_packing(inst)

    def test_matches_brute_force(self):
        rng = random.Random(31337)
        for _ in range(40):
            sizes, mult = rand_bp_instance(rng, max_items=8)
            sol = bin_packing(BinPackingInstance(sizes, mult))
            assert sol.objective == bp_brute_force(sizes, mult), \
                (sizes, mult)

    def test_modes_match(self):
        rng = random.Random(777)
        for _ in range(12):
            sizes, mult = rand_bp_instance(rng, max_items=7)
            inst = BinPackingInstance(sizes, mult)
            a = bin_packing(inst, mode="faithful")
            b = bin_packing(inst, mode="joint")
            assert a.objective == b.objective
            # most windows close, so also compare the probes themselves
            assert mode_verdicts(inst, a.objective) \
                == [True, True, False, False], (sizes, mult)


class TestCuttingStock:
    def test_big_bin_wins(self):
        inst = CuttingStockInstance([Rat(1, 2)], [2],
                                    [(Rat(1), 3), (Rat(1, 2), 2)])
        sol = cutting_stock(inst)
        assert sol.objective == 3
        assert sol.patterns == (((2,), 0, 1),)

    def test_small_bin_wins(self):
        inst = CuttingStockInstance([Rat(1, 2)], [1],
                                    [(Rat(1), 3), (Rat(1, 2), 1)])
        sol = cutting_stock(inst)
        assert sol.objective == 1
        assert sol.patterns == (((1,), 1, 1),)

    def test_item_fits_no_bin(self):
        inst = CuttingStockInstance([Rat(2)], [1], [(Rat(1), 1)])
        with pytest.raises(InfeasibleError):
            cutting_stock(inst)

    def test_unfittable_type_is_named_before_any_pivot(self):
        # the pattern polytope holds no point with x_0 > 0, and the
        # configuration window says so before it builds its LP
        inst = CuttingStockInstance([Rat(2), Rat(1, 3)], [1, 10 ** 30],
                                    [(Rat(1), 1)])
        with limit(0), pytest.raises(InfeasibleError, match="type 0 fits"):
            cutting_stock(inst)

    def test_zero_demand(self):
        inst = CuttingStockInstance([Rat(1, 2)], [0], [(Rat(1), 1)])
        assert cutting_stock(inst).objective == 0

    @pytest.mark.parametrize("make", [
        lambda: CuttingStockInstance([], [], [(Rat(1), 1)]),
        lambda: BinPackingInstance([], []),
    ], ids=["cutting_stock", "bin_packing"])
    def test_zero_item_types_rejected(self, make):
        # refused on construction, not deep inside a solve
        with pytest.raises(InputError, match="at least one item type "
                                             "required"):
            make()

    @pytest.mark.parametrize("a", [-1, 2.7, Rat(1, 2)])
    def test_multiplicity_must_be_a_non_negative_integer(self, a):
        with pytest.raises(InputError):
            CuttingStockInstance([Rat(1, 2)], [a], [(Rat(1), 1)])

    @pytest.mark.parametrize("cost", [1.9, Rat(3, 2)])
    def test_bin_cost_must_be_an_integer(self, cost):
        with pytest.raises(InputError):
            CuttingStockInstance([Rat(1, 2)], [1], [(Rat(1), cost)])

    def test_integral_rational_cost_and_multiplicity_accepted(self):
        inst = CuttingStockInstance([Rat(1, 2)], [Rat(2)], [(Rat(1), Rat(3))])
        assert inst.multiplicities == (2,) and inst.bin_types == ((1, 3),)
        assert cutting_stock(inst).objective == 3

    def test_undemanded_type_may_fit_no_bin(self):
        inst = CuttingStockInstance([Rat(2), Rat(1, 2)], [0, 2],
                                    [(Rat(1), 1)])
        sol = cutting_stock(inst)
        assert sol.objective == 1
        assert sol.patterns == (((0, 2), 0, 1),)

    def test_single_unit_type_matches_bin_packing(self):
        rng = random.Random(808)
        for _ in range(8):
            sizes, mult = rand_bp_instance(rng, max_dim=2, max_items=6)
            cs = cutting_stock(CuttingStockInstance(sizes, mult,
                                                    [(Rat(1), 1)]))
            assert cs.objective == bp_brute_force(sizes, mult)

    def test_matches_exhaustive_costs(self):
        rng = random.Random(6110)
        for _ in range(8):
            sizes, mult = rand_bp_instance(rng, max_dim=2, max_den=8,
                                           max_items=5)
            types = [(Rat(1), rng.randint(2, 4)),
                     (Rat(1, 2), rng.randint(1, 2))]
            inst = CuttingStockInstance(sizes, mult, types)
            sol = cutting_stock(inst)
            assert sol.objective == exact_cover_cost(
                stock_options(sizes, mult, types), mult), (sizes, mult, types)

    @staticmethod
    def open_windows(types):
        """Seeded cutting stocks over ``types`` in d = 3, sizes p/q with
        p <= min(7, q) and 2 <= q <= 9, multiplicities 1-6: the
        ``(sizes, mult)`` of the 150 draws whose configuration window is
        open."""
        rng = random.Random(5)
        for _ in range(150):
            sizes = []
            for _ in range(3):
                q = rng.randint(2, 9)
                sizes.append(Rat(rng.randint(1, min(7, q)), q))
            mult = [rng.randint(1, 6) for _ in range(3)]
            lo, hi = configuration_window(
                [(patterns(sizes, w, mult), c) for w, c in types], mult)[:2]
            if lo < hi:
                yield sizes, mult

    def test_modes_agree_inside_an_open_window(self, monkeypatch):
        # two bin types leave integrality gaps: one gcd step below the
        # optimum the rational prefilter passes, so the faithful lead guess
        # misses and the joint program proves Empty
        results = recorded_decisions(monkeypatch)
        types = [(Rat(1), 3), (Rat(1, 2), 2)]
        for sizes, mult, opt in [
                ([Rat(2, 5), Rat(1, 5), Rat(1, 2)], [4, 5, 3], 14),
                ([Rat(1, 8), Rat(1, 3), Rat(1, 5)], [3, 1, 3], 5),
                ([Rat(3, 8), Rat(4, 7), Rat(1, 5)], [5, 1, 5], 12)]:
            inst = CuttingStockInstance(sizes, mult, types)
            assert exact_cover_cost(stock_options(sizes, mult, types),
                                    mult) == opt
            assert cutting_stock(inst, mode="faithful").objective == opt
            assert cutting_stock(inst, mode="joint").objective == opt
            lo = configuration_window(
                [(patterns(sizes, w, mult), c) for w, c in types], mult)[0]
            assert lo == opt - 1
            results.clear()
            assert mode_verdicts(inst, opt) == [True, True, False, False]
            assert results[2].mode_used == "joint"
            assert results[2].guesses_tried == 1
        swept = list(self.open_windows(types))
        assert len(swept) == 50
        for sizes, mult in swept:
            inst = CuttingStockInstance(sizes, mult, types)
            opt = exact_cover_cost(stock_options(sizes, mult, types), mult)
            assert cutting_stock(inst, mode="faithful").objective == opt, \
                (sizes, mult)
            assert cutting_stock(inst, mode="joint").objective == opt, \
                (sizes, mult)
            assert mode_verdicts(inst, opt) == [True, True, False, False], \
                (sizes, mult)

    @pytest.mark.parametrize("big", [10 ** 5, 10 ** 30])
    def test_large_bin_costs(self, big):
        # the cost row caps the weights at big, but no enumeration box
        # spans the budget: the parts' lattices are listed on their own
        inst = CuttingStockInstance([Rat(1, 3), Rat(1, 4)], [2, 3],
                                    [(Rat(1), big), (Rat(1, 2), big // 2 + 1)])
        with limit(20_000):
            sol = cutting_stock(inst)
        assert sol.objective == big + big // 2 + 1
        assert sol.patterns == (((2, 1), 0, 1), ((0, 2), 1, 1))

    def test_stored_proofs_keep_witnesses_and_nodes(self, monkeypatch):
        # node-heavy: the Empty probe at the window's low end, 110, takes
        # most of the branch and bound.  The group at the window's basis
        # decides the window [110, 111], so both probes are driven here
        sizes, a = [Rat(1, 3), Rat(1, 4), Rat(2, 7)], [40] * 3
        parts = [(pattern_polytope(sizes, w, a), c)
                 for w, c in [(Rat(1), 3), (Rat(1, 2), 2)]]
        inner = solver.ilp_feasible

        def solve():
            nodes = []

            def counted(*program, **bounds):
                res = inner(*program, **bounds)
                nodes.append(res.nodes)
                return res

            with monkeypatch.context() as patch:
                patch.setattr(solver, "ilp_feasible", counted)
                return [multi_polytope_select(parts, box_polytope(a, a), b)
                        for b in (110, 111)], nodes

        with monkeypatch.context() as patch:
            patch.setattr(ExactLp, "_refuted", lambda lp: False)
            plain, plain_nodes = solve()
        refuted = []
        check = ExactLp._refuted

        def counted_check(lp):
            refuted.append(check(lp))
            return refuted[-1]

        monkeypatch.setattr(ExactLp, "_refuted", counted_check)
        sol, nodes = solve()
        assert sol == plain
        assert [res.found for res in sol] == [False, True]
        assert nodes == plain_nodes and sum(nodes) > 400
        assert any(refuted)



def patterns(sizes, capacity, a):
    """Every x with 0 <= x <= a and sizes . x <= capacity."""
    return [x for x in itertools.product(*(range(v + 1) for v in a))
            if sum(s * v for s, v in zip(sizes, x)) <= capacity]


def stock_options(sizes, a, bin_types):
    """Every bin type's patterns within ``a``, each at its bin type's cost:
    the options of the oracle's exact cover of ``a``."""
    return [(p, c) for w, c in bin_types for p in patterns(sizes, w, a)]


def test_pattern_polytopes_seed_their_exact_bounds():
    # sizes are positive, so x_j ranges over [0, min(a_j, capacity / s_j)]
    rng = random.Random(16016)
    oversized = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        sizes = [Rat(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(d)]
        capacity = Rat(rng.randint(1, 6), rng.randint(1, 3))
        a = [rng.randint(0, 5) for _ in range(d)]
        poly = pattern_polytope(sizes, capacity, a)
        assert poly._bounds == coordinate_bounds(Polytope(poly.A, poly.b))
        oversized += sum(aj > 0 and s > capacity for s, aj in zip(sizes, a))
    assert oversized >= 5


def test_pattern_polytopes_solve_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("solved an LP for a pattern polytope")

    monkeypatch.setattr(geometry, "ExactLp", no_lp)
    poly = pattern_polytope((Rat(1, 3), Rat(2, 5)), Rat(1), (2, 4))
    assert integer_box(poly) == [(0, 2), (0, 2)]


def test_pattern_polytope_rows_are_the_cleared_size_row_and_unit_rows():
    # the size row scaled by the lcm of its denominators, then
    # x_j <= a_j and -x_j <= 0 per j; Bland's rule pivots by row index
    sizes = (Rat(1, 3), Rat(1, 4), Rat(2, 7))
    units = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)]
    poly = pattern_polytope(sizes, 1, (5, 6, 7))
    assert poly.A == [(28, 21, 24)] + units
    assert poly.b == (84, 5, 0, 6, 0, 7, 0)
    poly = pattern_polytope(sizes, Rat(3, 5), (5, 6, 7))
    assert poly.A == [(140, 105, 120)] + units
    assert poly.b == (252, 5, 0, 6, 0, 7, 0)


class TestCheapestCover:
    def test_bisects_over_the_costs_lattice(self, monkeypatch):
        # every cover costs a multiple of gcd(9, 6) = 3, so no budget
        # between two multiples is probed; the window's own cover of cost
        # 36 answers at its top, so only the budgets below it are probed.
        # The group at the window's basis (D = 3) leaves [30, 36] open
        budgets = []
        inner = solver.multi_polytope_select

        def recording(parts, target, budget, **kwargs):
            budgets.append(budget)
            return inner(parts, target, budget, **kwargs)

        monkeypatch.setattr(solver, "multi_polytope_select", recording)
        inst = CuttingStockInstance([Rat(1, 3), Rat(1, 7)], [9, 1],
                                    [(Rat(1), 9), (Rat(1, 2), 6)])
        assert cutting_stock(inst).objective == 33
        assert budgets == [33, 30]

    def test_bisects_over_the_costs_of_parts_that_hold_an_item(
            self, monkeypatch):
        # the bin type (1/20, 3) holds no item, so its cost is no step of
        # the search: every cover costs a multiple of gcd(4, 2) = 2.  The
        # group at the window's basis (D = 6) leaves [12, 16] open
        budgets = []
        inner = solver.multi_polytope_select

        def recording(parts, target, budget, **kwargs):
            budgets.append(budget)
            return inner(parts, target, budget, **kwargs)

        monkeypatch.setattr(solver, "multi_polytope_select", recording)
        inst = CuttingStockInstance(
            [Rat(1, 3), Rat(1, 6)], [5, 7],
            [(Rat(1), 4), (Rat(1, 2), 2), (Rat(1, 20), 3)])
        assert cutting_stock(inst).objective == 12
        assert budgets
        assert all(budget % 2 == 0 for budget in budgets)


class TestConfigurationWindow:
    def test_halves(self):
        # three halves: the LP packs 3/2 bins of (2,), which rounds to 2;
        # the second copy holds one half too many and is trimmed to (1,)
        assert configuration_window([(patterns([Rat(1, 2)], 1, [3]), 1)],
                                    [3])[:3] == (2, 2, [(0, (1,), 1),
                                                        (0, (2,), 1)])

    def test_costs_weigh_the_parts(self):
        # one item of size 1/2: a half bin for 1 beats a full bin for 3
        parts = [(patterns([Rat(1, 2)], 1, [1]), 3),
                 (patterns([Rat(1, 2)], Rat(1, 2), [1]), 1)]
        assert configuration_window(parts, [1])[:3] == (1, 1,
                                                     [(1, (1,), 1)])

    def test_zero_points_and_demand(self):
        assert configuration_window([([(0, 0), (1, 0), (0, 1)], 2)],
                                    [0, 0])[:3] == (0, 0, [])

    def test_uncoverable_demand(self):
        with pytest.raises(InfeasibleError, match="type 1 fits no machine"):
            configuration_window([([(0, 0), (1, 0)], 1)], [1, 1])

    def test_low_end_rounds_up_to_the_costs_gcd(self):
        # the LP spends 15/2, but every cover costs a multiple of 3
        parts = [([(0,), (1,), (2,)], 3), ([(0,), (1,)], 6)]
        assert configuration_window(parts, [5])[:3] == (
            9, 9, [(0, (1,), 1), (0, (2,), 2)])

    def test_trimmed_points_outside_their_part_are_re_covered(self):
        # {(1,), (3,)} is not down-closed: 5/3 copies of (3,) round up to
        # two, and the trimmed copy (2,) is no point of the part, so two
        # copies of the unit column (1,) cover it instead
        parts = [([(1,), (3,)], 1)]
        assert configuration_window(parts, [5])[:3] == (
            2, 3, [(0, (1,), 2), (0, (3,), 1)])
        assert cheapest_cover([5], parts, partial(select_from_generators,
                                                  parts)).total_cost == 3

    def test_a_batch_of_trimmed_copies_is_re_covered_at_once(self):
        # a tardy-like cover of (y, u1, u2, u3) and one machine marker: the
        # LP runs two machines on (1, 0, 0, 0), the three pairs of u at 1/2
        # and an idle machine at 1/2, so the rounding opens two machines
        # too many, and both copies of the first are trimmed in their
        # marker at once; their y becomes two drops of y
        machines = [(1, 0, 0, 0, 1), (0, 1, 1, 0, 1), (0, 0, 1, 1, 1),
                    (0, 1, 0, 1, 1), (0, 0, 0, 0, 1)]
        parts = [(machines, 0)] + [([tuple(int(k == j) for k in range(5))],
                                    1) for j in range(4)]
        a = [2, 1, 1, 1, 4]
        lo, hi, cover = check_window(parts, a)
        assert (lo, hi) == (0, 3) and cover[0] == (1, (1, 0, 0, 0, 0), 2)
        assert cheapest_cover(a, parts, partial(select_from_generators,
                                                parts)).total_cost == 1

    def test_parts_must_hold_the_unit_vectors(self):
        # type 1 is covered, but only by (0, 2): the simplex has no unit
        # column to start from
        with pytest.raises(InternalError, match="type 1; parts must hold "
                                                "the unit vector of every "
                                                "demanded type"):
            configuration_window([([(1, 0), (0, 2)], 1)], [1, 2])
        # an undemanded type needs none
        assert configuration_window([([(1, 0), (0, 2)], 1)], [3, 0])[:3] \
            == (3, 3, [(0, (1, 0), 3)])

    def test_pivots_are_capped_per_call(self, monkeypatch):
        # three halves take one pivot, from (1,) to (2,)
        parts = [(patterns([Rat(1, 2)], 1, [3]), 1)]
        monkeypatch.setattr(solver, "DEFAULT_PIVOT_BUDGET", 0)
        with pytest.raises(ResourceError, match="simplex pivot budget"):
            configuration_window(parts, [3])
        monkeypatch.setattr(solver, "DEFAULT_PIVOT_BUDGET", 1)
        assert configuration_window(parts, [3])[:2] == (2, 2)

    def test_seeded_windows_are_the_lp(self):
        # parts are down-closures of a few random points of [0, 3]^d, one
        # or two of them, and about a quarter of the demands are zero
        rng = random.Random(3232)
        checked = zeros = opened = 0
        for _ in range(300):
            d = rng.randint(1, 3)
            parts = []
            for _ in range(rng.randint(1, 2)):
                tops = [[rng.randint(0, 3) for _ in range(d)]
                        for _ in range(rng.randint(1, 3))]
                points = {x for top in tops for x in
                          itertools.product(*(range(v + 1) for v in top))}
                parts.append((sorted(points), rng.randint(1, 4)))
            a = [rng.randint(1, 12) if rng.random() < 0.75 else 0
                 for _ in range(d)]
            if any(aj and not any(p[j] for points, _c in parts
                                  for p in points)
                   for j, aj in enumerate(a)):
                with pytest.raises(InfeasibleError, match="fits no machine"):
                    configuration_window(parts, a)
                continue
            lo, hi, _cover = check_window(parts, a)
            checked += 1
            zeros += 0 in a
            opened += lo < hi
        assert checked >= 200 and zeros >= 50 and opened >= 20

    def test_copies_are_trimmed_in_batches(self):
        # eleven copies of (1, 2) hold eight items of size 1/10 too many:
        # eight of them are trimmed alike, as one pick and in one step
        sizes, a = [Rat(1, 10), Rat(4, 9)], [13, 22]
        assert configuration_window([(patterns(sizes, 1, a), 1)], a)[:3] \
            == (12, 12, [(0, (0, 2), 8), (0, (1, 2), 3), (0, (10, 0), 1)])

    def test_no_columns(self):
        # only the zero point: no cost to take the gcd of
        assert configuration_window([([(0, 0)], 2)], [0, 0])[:3] \
            == (0, 0, [])


_size = st.builds(lambda q, p: Rat(p, q), st.integers(2, 7),
                  st.integers(1, 7)).filter(lambda s: s <= 1)


@st.composite
def _desk_instance(draw):
    """Sizes, multiplicities (at most 7 items) and two bin types, the
    first of capacity 1, so every item fits a bin."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(_size, min_size=d, max_size=d))
    a = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)
             .filter(lambda a: 0 < sum(a) <= 7))
    small = draw(st.sampled_from([Rat(1, 2), Rat(2, 3)]))
    bin_types = [(Rat(1), draw(st.integers(1, 4))),
                 (small, draw(st.integers(1, 3)))]
    return sizes, a, bin_types


@settings(max_examples=30, deadline=None)
@given(_desk_instance())
def test_bin_packing_matches_brute_force_inside_its_window(case):
    sizes, a, _types = case
    opt = bp_brute_force(sizes, a)
    assert bin_packing(BinPackingInstance(sizes, a)).objective == opt
    lo, hi = configuration_window([(patterns(sizes, 1, a), 1)], a)[:2]
    assert lo <= opt <= hi and hi - lo < len(a)


@settings(max_examples=30, deadline=None)
@given(_desk_instance())
def test_cutting_stock_optimum_lies_inside_its_window(case):
    sizes, a, bin_types = case
    parts = [(patterns(sizes, w, a), c) for w, c in bin_types]
    opt = exact_cover_cost(stock_options(sizes, a, bin_types), a)
    inst = CuttingStockInstance(sizes, a, bin_types)
    assert cutting_stock(inst).objective == opt
    lo, hi = configuration_window(parts, a)[:2]
    assert lo <= opt <= hi
    assert hi - lo < len(a) * max(c for _w, c in bin_types)


PAPER_SCALE = 10 ** 30


# the probes recorded: the three closed windows take none, because the
# window's own cover answers at its top, and the open window (1.75e30,
# 1.75e30 + 2) takes none either, because the group at its basis answers
# with a cover that meets the group's bound
@pytest.mark.parametrize("inst, count", [
    (BinPackingInstance([Rat(1, 3), Rat(1, 4)], [PAPER_SCALE] * 2), 0),
    (BinPackingInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)],
                        [PAPER_SCALE] * 3), 0),
    (CuttingStockInstance([Rat(1, 3), Rat(1, 4)], [PAPER_SCALE] * 2,
                          [(Rat(1), 3), (Rat(1, 2), 2)]), 0),
    (CuttingStockInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)],
                          [PAPER_SCALE] * 3, [(Rat(1), 1)]), 0),
], ids=["binpacking-d2", "binpacking-d3", "cuttingstock-d2",
        "cuttingstock-d3"])
def test_paper_scale_search_takes_few_probes(inst, count, monkeypatch):
    probes = recorded_decisions(monkeypatch)
    solve = bin_packing if isinstance(inst, BinPackingInstance) \
        else cutting_stock
    verify_solution(inst, solve(inst))
    assert len(probes) == count


def test_paper_scale_window_of_dear_bins_is_exact():
    # every cover costs a multiple of 3, so the window's low end is the
    # optimum; probing the LP's own bound, which is not such a multiple,
    # would ask for an Empty proof at 10^30
    sizes = [Rat(1, 3), Rat(1, 4), Rat(2, 7)]
    a = [PAPER_SCALE] * 3
    assert configuration_window([(patterns(sizes, 1, [3, 4, 3]), 3)],
                                a)[:2] \
        == (3 * (11 * PAPER_SCALE // 12 + 1),) * 2
    with limit(20_000):
        sol = cutting_stock(CuttingStockInstance(sizes, a, [(Rat(1), 3)]))
    assert sol.objective == 3 * (11 * PAPER_SCALE // 12 + 1)


def test_paper_scale_window_over_many_patterns():
    # sizes 1/q + 1/(10 q^2), 1/(q + 1), 1/(q + 3) at q = 20 have 1,965
    # patterns; the window's simplex reaches the optimum of the LP over
    # all of them (about 1,700 pivots), however many copies are demanded
    q = 20
    sizes = [Rat(1, q) + Rat(1, 10 * q * q), Rat(1, q + 1), Rat(1, q + 3)]
    a = [PAPER_SCALE] * 3
    points = lattice_points(pattern_polytope(sizes, 1, a))
    assert len(points) == 1965
    with limit(2000):
        lo, hi, cover, _basis = configuration_window([(points, 1)], a)
    assert lo == rat_ceil(fractional_opt(sizes, a))
    assert hi - lo < 3
    assert [sum(n * p[j] for _i, p, n in cover) for j in range(3)] == a


# cutting stocks whose probes ran out of work before the group at the
# window's basis decided them: (sizes, demand, bin types, optimum).  The
# node-heavy d = 3 case at 10^12 and 10^30, three more d = 3 cases at
# t = 10^12, and two d = 2 cases at s = 10^12
_T = 10 ** 12
PAPER_SCALE_WINDOWS = {
    "d3-1e12": ([Rat(1, 3), Rat(1, 4), Rat(2, 7)], [_T] * 3,
                [(Rat(1), 3), (Rat(1, 2), 2)], 275 * _T // 100 + 1),
    "d3-1e30": ([Rat(1, 3), Rat(1, 4), Rat(2, 7)], [PAPER_SCALE] * 3,
                [(Rat(1), 3), (Rat(1, 2), 2)], 275 * PAPER_SCALE // 100 + 1),
    "d3-5/6-2/7": ([Rat(5, 6), Rat(2, 7), Rat(2, 7)], [5 * _T] * 3,
                   [(Rat(1), 2), (Rat(1, 3), 3)], 16_666_666_666_668),
    "d3-1/6-4/11": ([Rat(1, 6), Rat(1, 6), Rat(4, 11)], [_T, 3 * _T, _T],
                    [(Rat(1), 2), (Rat(1, 2), 3)], 2_166_666_666_668),
    "d3-1/2-1/3": ([Rat(1, 2), Rat(1, 3), Rat(1, 3)],
                   [5 * _T, 4 * _T, 3 * _T],
                   [(Rat(1), 3), (Rat(1, 3), 2)], 14_500_000_000_001),
    "d2-1/8-2/9": ([Rat(1, 8), Rat(2, 9)], [2 * _T + 1, 3 * _T],
                   [(Rat(1), 3), (Rat(3, 4), 2)], 2_666_666_666_668),
    "d2-1/2-1/8": ([Rat(1, 2), Rat(1, 8)], [3 * _T, 3 * _T + 1],
                   [(Rat(1), 3), (Rat(1, 7), 1)], 5_625_000_000_001),
}


@pytest.mark.parametrize("case", PAPER_SCALE_WINDOWS)
def test_paper_scale_windows_are_decided_by_their_group(case):
    sizes, a, bin_types, opt = PAPER_SCALE_WINDOWS[case]
    inst = CuttingStockInstance(sizes, a, bin_types)
    with limit(20_000):
        sol = cutting_stock(inst)
    verify_solution(inst, sol)
    assert sol.objective == opt


def _group_draws():
    """Seeded small covering searches as ``cheapest_cover`` sees them:
    ``(kind, parts, a)`` of 400 cutting stocks with two bin types, then of
    preemptive assignments with one or two machine types, each part's
    points checked by EDF simulation.  Most of their windows are closed."""
    rng = random.Random(22022)
    stocks = 0
    while stocks < 400:
        d = rng.randint(2, 3)
        sizes = [Rat(rng.randint(1, q), q)
                 for q in (rng.randint(2, 9) for _ in range(d))]
        a = [rng.randint(1, 7) for _ in range(d)]
        types = [(Rat(1), rng.randint(2, 4)), (Rat(rng.randint(1, 2), 3), 1)]
        parts = [(patterns(sizes, w, a), c) for w, c in types]
        if all(any(p[j] for points, _c in parts for p in points)
               for j in range(d)):
            stocks += 1
            yield "stock", parts, a
    for _ in range(200):
        d, m = 2, rng.randint(1, 2)
        windows = []
        for _i in range(m):
            per_machine = []
            for _j in range(d):
                r = rng.randint(0, 4)
                dl = rng.randint(r + 1, 6)
                per_machine.append((r, dl, rng.randint(1, dl - r)))
            windows.append(per_machine)
        a = [rng.randint(1, 4) for _ in range(d)]
        inst = SchedulingInstance(windows, a,
                                  costs=[rng.randint(1, 3) for _ in range(m)],
                                  variant="preemptive")
        parts = [([x for x in itertools.product(*(range(v + 1) for v in a))
                   if scheduling.edf_simulate(x, inst, i).feasible], c)
                 for i, c in enumerate(inst.costs)]
        if all(any(p[j] for points, _c in parts for p in points)
               for j in range(d)):
            yield "assignment", parts, a


def test_group_bounds_and_covers_match_brute_force():
    # the group's bound never exceeds the least cover's cost, and a cover
    # the group answers with costs exactly that; windows whose low end is
    # Empty and windows whose low end is feasible both occur
    seen = dict.fromkeys(["empty_lo", "feasible_lo", "raised", "answered",
                          "left_open", "assignment"], 0)
    for kind, parts, a in _group_draws():
        lo, hi, _cover, basis = configuration_window(parts, a)
        if lo == hi:
            continue
        opt = exact_cover_cost([(p, c) for points, c in parts
                                for p in points], a)
        assert lo <= opt <= hi
        seen["empty_lo" if opt > lo else "feasible_lo"] += 1
        seen["assignment"] += kind == "assignment"
        bound, cover = solver._group_bound(basis, parts)
        assert bound <= opt, (parts, a)
        seen["raised"] += bound > lo
        if cover is None:
            seen["left_open"] += 1
            continue
        seen["answered"] += 1
        reached = [0] * len(a)
        for i, p, n in cover:
            assert n >= 1 and p in parts[i][0]
            reached = [r + n * v for r, v in zip(reached, p)]
        assert reached == list(a)
        assert sum(parts[i][1] * n for i, _p, n in cover) == bound == opt
    assert seen["empty_lo"] >= 5 and seen["feasible_lo"] >= 5, seen
    assert seen["raised"] >= 5 and seen["answered"] >= 10, seen
    assert seen["left_open"] >= 1 and seen["assignment"] >= 5, seen


def test_group_states_spend_the_budget():
    # the node-heavy d = 3 case at a = 40: the window is [110, 111] with
    # D = 24; the group proves that 110 is Empty, and each state it
    # settles spends one unit
    sizes = [Rat(1, 3), Rat(1, 4), Rat(2, 7)]
    parts = [(lattice_points(pattern_polytope(sizes, w, [40] * 3)), c)
             for w, c in [(Rat(1), 3), (Rat(1, 2), 2)]]
    lo, hi, _cover, basis = configuration_window(parts, [40] * 3)
    assert (lo, hi, basis.det) == (110, 111, 24)
    with limit(10 ** 6):
        assert solver._group_bound(basis, parts)[0] == 111
        _units, states, nodes = budget._OPEN.get()
    assert 1 <= states <= 24 and nodes == 0
    with limit(states):
        solver._group_bound(basis, parts)
    with pytest.raises(ResourceError), limit(states - 1):
        solver._group_bound(basis, parts)


def test_group_is_skipped_above_its_cap(monkeypatch):
    # [1/2, 1/4] x [4, 3]: the window [3, 4] has D = 4, and its group
    # answers with no probe; with the cap below D the window is probed
    probes = []
    select = solver.multi_polytope_select

    def recording(*args, **kwargs):
        probes.append(args[2])
        return select(*args, **kwargs)

    monkeypatch.setattr(solver, "multi_polytope_select", recording)
    inst = BinPackingInstance([Rat(1, 2), Rat(1, 4)], [4, 3])
    assert bin_packing(inst).objective == 3 and probes == []
    monkeypatch.setattr(solver, "GROUP_STATE_CAP", 3)
    assert bin_packing(inst).objective == 3 and probes == [3]


# scale factors up to the paper's, half of them the paper's exactly
_factor = st.one_of(st.just(PAPER_SCALE), st.integers(1, PAPER_SCALE))


def _lp_round_up(parts, a):
    """``sum c_p ceil(l_p)`` over a basic optimum of the configuration LP,
    the cover cost before trimming."""
    columns = [(p, c) for points, c in parts for p in points if any(p)]
    lp = ExactLp([[p[j] for p, _c in columns] for j in range(len(a))],
                 list(a), senses=["=="] * len(a), lo=[0] * len(columns))
    assert lp.find_feasible()
    lp.optimize([c for _p, c in columns], sense="min")
    return sum(c * rat_ceil(w) for (_p, c), w in zip(columns, lp.values()))


@settings(max_examples=40, deadline=None)
@given(st.lists(_size, min_size=2, max_size=3),
       st.lists(st.one_of(_factor, st.integers(1, 9)), min_size=3,
                max_size=3),
       st.lists(st.tuples(st.sampled_from([Rat(1), Rat(1, 2), Rat(2, 3)]),
                          st.integers(1, 5)), min_size=1, max_size=2))
def test_window_top_cover_is_a_trimmed_round_up(sizes, a, bin_types):
    # the cover that answers at the window's top reaches a exactly with
    # lattice points of its parts, and trimming only lowers the round-up
    a = a[:len(sizes)]
    assume(all(s <= max(w for w, _c in bin_types) for s in sizes))
    polys = [pattern_polytope(sizes, w, a) for w, _c in bin_types]
    parts = [(lattice_points(poly), c)
             for poly, (_w, c) in zip(polys, bin_types)]
    lo, hi, cover, _basis = configuration_window(parts, a)
    reached = [0] * len(a)
    for i, q, n in cover:
        assert n >= 1 and any(q)
        assert polys[i].contains_int(q) and q in parts[i][0]
        reached = [r + n * v for r, v in zip(reached, q)]
    assert reached == a
    assert hi == sum(parts[i][1] * n for i, _q, n in cover)
    assert lo <= hi <= _lp_round_up(parts, a)
    assert hi - lo < len(a) * max(c for _w, c in bin_types)


def test_closed_window_answers_without_a_probe(monkeypatch):
    # 10^30 items of sizes 1/3 and 1/4: the window is closed, so its own
    # cover answers and no intersection question is asked
    def refuse(*args, **kwargs):
        raise AssertionError("probed a closed window")

    monkeypatch.setattr(solver, "multi_polytope_select", refuse)
    inst = BinPackingInstance([Rat(1, 3), Rat(1, 4)], [PAPER_SCALE] * 2)
    with limit(2000):
        sol = bin_packing(inst)
    verify_solution(inst, sol)
    assert sol.objective == 7 * PAPER_SCALE // 12 + 1


@settings(max_examples=20, deadline=None)
@given(st.lists(_size, min_size=1, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3), _factor)
def test_bin_packing_scales_between_its_lp_and_copies(sizes, a, t):
    # ceil(t LP(a)) <= OPT(t a) <= t OPT(a): the LP over all patterns scales
    # with the demand, and t copies of an optimal packing of a pack t a
    a = a[:len(sizes)]
    assume(any(a))
    scaled = [t * v for v in a]
    with limit(20_000):
        opt = bin_packing(BinPackingInstance(sizes, a)).objective
        opt_scaled = bin_packing(BinPackingInstance(sizes, scaled)).objective
    # every pattern of a unit bin, whatever the demand
    unclipped = patterns(sizes, 1, [int(1 / s) for s in sizes])
    lp_bound = configuration_window([(unclipped, 1)], scaled)[0]
    assert lp_bound <= opt_scaled <= t * opt


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_size, st.one_of(st.integers(0, 4), _factor)),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_bin_packing_ignores_the_order_of_item_types(types, rng):
    permuted = rng.sample(types, len(types))
    with limit(20_000):
        solutions = [bin_packing(BinPackingInstance(*zip(*ts)))
                     for ts in (types, permuted)]
    assert solutions[0].objective == solutions[1].objective


class TestMultiPolytopeSelect:
    def test_pick_the_cheap_part(self):
        parts = [(singleton_target([1]), 5), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([3]), 1)
        assert res.found and res.total_cost == 1
        assert res.picks == ((1, (3,), 1),)

    def test_budget_too_small(self):
        parts = [(singleton_target([1]), 5), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([3]), 0)
        assert not res.found

    def test_single_part_reduces_to_intersection(self):
        res = multi_polytope_select([(singleton_target([2]), 1)],
                                    singleton_target([6]), 10)
        assert res.found and res.total_cost == 3
        assert res.picks == ((0, (2,), 3),)

    def test_combining_parts(self):
        parts = [(singleton_target([2]), 1), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([7]), 3)
        assert res.found and res.total_cost == 3

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            multi_polytope_select([(singleton_target([1, 1]), 1)],
                                  singleton_target([1]), 1)

    def test_cost_must_be_a_non_negative_integer(self):
        with pytest.raises(InputError, match="must be non-negative"):
            multi_polytope_select([(singleton_target([1]), -1)],
                                  singleton_target([1]), 1)
        with pytest.raises(InputError, match="must be an integer"):
            multi_polytope_select([(singleton_target([1]), Rat(1, 2))],
                                  singleton_target([1]), 1)
        # a free part is read as select_from_generators reads one
        res = multi_polytope_select([(singleton_target([1]), 0)],
                                    singleton_target([3]), 0)
        assert res.found and res.picks == ((0, (1,), 3),)
        assert res.total_cost == 0

    @pytest.mark.parametrize("mode", ["faithful", "joint"])
    def test_free_parts_that_are_not_pointed_are_refused(self, mode):
        # 0 is a convex combination of the free part's points, so their
        # weights are unbounded; a cost caps the same points
        parts = [(segment(-1, 1), 0), (singleton_target([2]), 1)]
        with pytest.raises(InputError, match="source is not pointed"):
            multi_polytope_select(parts, singleton_target([3]), 5,
                                  mode=mode)
        res = multi_polytope_select([(segment(-1, 1), 1)],
                                    singleton_target([3]), 5, mode=mode)
        assert res.found and res.total_cost == 3

    def test_negative_budget(self):
        res = multi_polytope_select([(singleton_target([1]), 1)],
                                    singleton_target([1]), -1)
        assert not res.found

    def test_target_is_read_before_a_negative_budget(self):
        # as select_from_generators and int_cone_intersect read it
        ray = Polytope([[1]], [5])  # x <= 5, no lower bound
        with pytest.raises(InputError, match="unbounded in coordinate 0"):
            multi_polytope_select([(box_polytope([0], [2]), 1)], ray, -1)

    def test_unbounded_part_is_rejected(self):
        ray = Polytope([[-1]], [0])  # x >= 0, no upper bound
        with pytest.raises(InputError, match="unbounded"):
            multi_polytope_select([(singleton_target([1]), 1), (ray, 1)],
                                  singleton_target([2]), 3)

    def test_unbounded_target_is_rejected(self):
        ray = Polytope([[-1]], [-1])  # x >= 1, no upper bound
        with pytest.raises(InputError, match="unbounded in coordinate 0"):
            multi_polytope_select([(singleton_target([1]), 1)], ray, 3)

    # as select_from_generators with empty parts: the empty sum is the only
    # reachable point, and the target is checked before that shortcut
    def test_parts_without_lattice_points_reach_the_origin(self):
        empty = Polytope([[1], [-1]], [0, -1])  # 1 <= x <= 0
        res = multi_polytope_select([(empty, 1)], box_polytope([0], [0]), 5)
        assert res.found and res.total_cost == 0
        assert res.target == (0,)
        assert res.picks == ()

    def test_parts_without_lattice_points_check_the_target(self):
        empty = Polytope([[1], [-1]], [0, -1])
        ray = Polytope([[-1]], [0])  # x >= 0, no upper bound
        with pytest.raises(InputError, match="unbounded in coordinate 0"):
            multi_polytope_select([(empty, 1)], ray, 5)


def test_probes_match_the_exact_cover_oracle():
    # random small down-closed parts, costs 0-3 and demands up to 4: at
    # every budget up to the window's top, both modes of the decider and
    # the program over the parts' listed lattices find a selection exactly
    # when the least exact cover costs no more than the budget; "gap"
    # counts the windows whose low end, which the LP reaches, is Empty
    rng = random.Random(48048)
    seen = dict.fromkeys(["found", "empty", "gap", "free", "d3", "parts3"],
                         0)
    for _ in range(300):
        d = rng.randint(1, 3)
        a = [rng.randint(0, 4) for _ in range(d)]
        polys, listed = [], []
        for _part in range(rng.randint(1, 3)):
            rows = [[rng.randint(0, 3) for _ in range(d)]
                    for _ in range(rng.randint(1, 2))]
            rhs = [rng.randint(1, 6) for _ in rows]
            poly = geometry.down_closed_polytope(rows, rhs, a)
            cost = rng.randint(0, 3)
            polys.append((poly, cost))
            listed.append((lattice_points(poly), cost))
        opt = exact_cover_cost([(p, c) for points, c in listed
                                for p in points], a)
        if opt is None:
            with pytest.raises(InfeasibleError):
                configuration_window(listed, a)
            continue
        lo, hi = configuration_window(listed, a)[:2]
        costs = [c for _poly, c in polys]
        target = box_polytope(a, a)
        for v in range(hi + 1):
            answers = [multi_polytope_select(polys, target, v, mode=mode)
                       for mode in ("faithful", "joint")]
            answers.append(select_from_generators(listed, target, v))
            for res in answers:
                assert res.found == (opt <= v), (listed, a, v)
                if res.found:
                    assert solver._selection(res.picks, costs, v, d) == res
                    assert target.contains_int(res.target)
                    assert all(x in listed[i][0] for i, x, _w in res.picks)
            seen["found" if opt <= v else "empty"] += 1
        seen["gap"] += lo < opt
        seen["free"] += 0 in costs
        seen["d3"] += d == 3
        seen["parts3"] += len(polys) == 3
    assert seen.pop("gap") >= 2 and min(seen.values()) >= 50, seen


class TestSelectFromGenerators:
    def test_basic_choice(self):
        res = select_from_generators([([(1,)], 5), ([(3,)], 1)],
                                     singleton_target([3]), 1)
        assert res.found and res.total_cost == 1
        assert res.picks == ((1, (3,), 1),)

    def test_budget_blocks(self):
        res = select_from_generators([([(1,)], 5), ([(3,)], 1)],
                                     singleton_target([3]), 0)
        assert not res.found

    def test_zero_generators_dropped(self):
        res = select_from_generators([([(0,), (2,)], 1)],
                                     singleton_target([4]), 5)
        assert res.found and res.total_cost == 2

    def test_empty_groups_zero_target(self):
        res = select_from_generators([([], 1), ([], 1)],
                                     singleton_target([0]), 0)
        assert res.found and res.total_cost == 0

    def test_empty_groups_nonzero_target(self):
        res = select_from_generators([([], 1), ([], 1)],
                                     singleton_target([2]), 9)
        assert not res.found

    @pytest.mark.parametrize("parts", [
        [([(-1,), (1,)], 0)],
        [([(1,)], 0), ([(-1,)], 0)],
    ], ids=["one_group", "two_groups"])
    def test_zero_cost_generators_that_are_not_pointed(self, parts):
        # 0 is a convex combination of the free generators, so their
        # weights are unbounded; the target is bounded and is not to blame,
        # and the message is the one multi_polytope_select gives
        with pytest.raises(InputError, match="source is not pointed"):
            select_from_generators(parts, box_polytope([1], [1]), 5)

    def test_a_cost_caps_the_weights_of_the_same_generators(self):
        res = select_from_generators([([(-1,), (1,)], 1)],
                                     box_polytope([1], [1]), 5)
        assert res.found and res.total_cost == 1

    @pytest.mark.parametrize("points, target", [
        ([(1,)], Polytope([[-1]], [-3])),  # x >= 3, no upper bound
        # checked before the shortcut for a target holding the origin
        ([], Polytope([[1, 0], [-1, 0], [0, -1]], [3, 0, 0])),
    ], ids=["ray", "origin_in_target"])
    def test_unbounded_target_is_rejected(self, points, target):
        with pytest.raises(InputError, match="unbounded"):
            select_from_generators([(points, 1)], target, 9)


def _seeded_selections():
    """Thirty small selections, a third through ``multi_polytope_select``,
    drawn in turn: ``(entry, call)`` pairs, each call answering ``(found,
    target, one list of (point, copies) per part, total_cost)``, the form
    the digests pin."""
    rng = random.Random(20260418)
    out = []
    for k in range(30):
        d = 1 + k % 2
        a = [rng.randint(2, 6) for _ in range(d)]
        target = box_polytope([max(0, v - rng.randint(0, 3)) for v in a], a)
        budget = rng.randint(1, 12)
        if k % 3 == 2:
            parts = [(box_polytope([0] * d,
                                   [rng.randint(1, 3) for _ in range(d)]),
                      rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            entry = "multi_polytope_select"
            select = partial(multi_polytope_select, parts)
        else:
            n = rng.randint(1, 3)
            # a shared pool, so groups repeat points at different costs
            pool = [tuple(rng.randint(0, 3) for _ in range(d))
                    for _ in range(4)]
            groups = [rng.sample(pool, rng.randint(0, 4)) for _ in range(n)]
            costs = [rng.randint(0, 3) for _ in range(n)]
            parts = list(zip(groups, costs))
            entry = "select_from_generators"
            select = partial(select_from_generators, parts)

        def call(select=select, target=target, budget=budget, n=len(parts)):
            res = select(target, budget)
            per_part = [[(x, w) for i, x, w in res.picks if i == p]
                        for p in range(n if res.found else 0)]
            return res.found, res.target, per_part, res.total_cost
        out.append((entry, call))
    return out


def _selection_programs(monkeypatch, entry):
    """The answers of the seeded selections through ``entry``, and the
    integer programs they run, recorded as tuples of ints with one bound
    per variable, None if missing."""
    programs = []

    def recording(rows, rhs, lo=None, hi=None):
        n = len(rows[0])
        programs.append((tuple(map(tuple, rows)), tuple(rhs),
                         tuple(lo or [None] * n), tuple(hi or [None] * n)))
        return ilp_feasible(rows, rhs, lo=lo, hi=hi)

    monkeypatch.setattr(solver, "ilp_feasible", recording)
    results = [call() for name, call in _seeded_selections() if name == entry]
    return results, programs


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_selection_programs_and_witnesses_are_pinned(monkeypatch):
    # Bland's rule pivots by row index, so the integer programs are pinned
    # row for row, and the witnesses they yield with them.  The screen
    # answers three selections with no integer program: two Empty at the
    # prefilter, and one whose target holds the origin.
    results, programs = _selection_programs(monkeypatch,
                                            "select_from_generators")
    assert len(results) == 20 and sum(res[0] for res in results) == 11
    assert len(programs) == 11
    assert _digest(programs) == "aa7a194ecedb2cae"
    assert _digest(results) == "3958c05dbbf52c72"


def test_part_programs_and_witnesses_are_pinned(monkeypatch):
    # one group per part, each normalized on its own structure set
    results, programs = _selection_programs(monkeypatch,
                                            "multi_polytope_select")
    assert len(results) == 10 and sum(res[0] for res in results) == 7
    assert len(programs) == 8
    assert _digest(programs) == "3cb6d2263ceebfd5"
    assert _digest(results) == "800156996c99655b"


class TestVerifySolution:
    def test_bin_packing_roundtrip(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        sol = bin_packing(inst)
        verify_solution(inst, sol)

    def test_detects_demand_mismatch(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        bogus = PackingSolution((((1,), 0, 2),), 2)
        with pytest.raises(InternalError):
            verify_solution(inst, bogus)

    def test_detects_overfull_pattern(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        bogus = PackingSolution((((3,), 0, 1),), 1)
        with pytest.raises(InternalError):
            verify_solution(inst, bogus)

    def test_loads_are_exact(self):
        # sizes 1/10 and 1/3 load in steps of 1/30: (5, 0) fills the
        # half bin exactly, and (2, 1) overfills it by one step
        sizes, types = [Rat(1, 10), Rat(1, 3)], [(Rat(1), 2), (Rat(1, 2), 1)]
        verify_solution(CuttingStockInstance(sizes, [5, 0], types),
                        PackingSolution((((5, 0), 1, 1),), 1))
        inst = CuttingStockInstance(sizes, [2, 1], types)
        verify_solution(inst, PackingSolution((((2, 1), 0, 1),), 2))
        with pytest.raises(InternalError, match="overfills bin type 1"):
            verify_solution(inst, PackingSolution((((2, 1), 1, 1),), 1))

    def test_cutting_stock_roundtrip(self):
        inst = CuttingStockInstance([Rat(1, 2)], [2],
                                    [(Rat(1), 3), (Rat(1, 2), 2)])
        verify_solution(inst, cutting_stock(inst))

    @pytest.mark.parametrize("bin_type", [-1, 1])
    def test_bin_packing_rejects_unknown_bin_type(self, bin_type):
        inst = BinPackingInstance([Rat(1, 2)], [2])
        sol = PackingSolution((((2,), bin_type, 1),), 1)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    @pytest.mark.parametrize("bin_type", [-1, 2])
    def test_cutting_stock_rejects_unknown_bin_type(self, bin_type):
        # valid if the index named the last bin type (capacity 1/2, cost 2)
        inst = CuttingStockInstance([Rat(1, 2)], [2],
                                    [(Rat(1), 3), (Rat(1, 2), 2)])
        sol = PackingSolution((((1,), bin_type, 2),), 4)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    @pytest.mark.parametrize("pattern", [(), (1, 1)])
    def test_rejects_pattern_of_wrong_length(self, pattern):
        inst = BinPackingInstance([Rat(1, 2)], [2])
        sol = PackingSolution(((pattern, 0, 1),), 1)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    def test_unknown_instance(self):
        with pytest.raises(InputError):
            verify_solution(object(), PackingSolution((), 0))

    @pytest.mark.parametrize("demand,solution,field", [
        # the first two meet the demand at the claimed cost in rationals
        ([1], PackingSolution((((Rat(1, 2),), 0, 2),), 2), "pattern entry"),
        ([3], PackingSolution((((2,), 0, Rat(3, 2)),), Rat(3, 2)),
         "multiplicity"),
        ([2], PackingSolution((((2,), Rat(1, 2), 1),), 1), "bin type"),
    ], ids=["half-pattern", "half-multiplicity", "half-bin-type"])
    def test_rejects_non_integral_solutions(self, demand, solution, field):
        inst = BinPackingInstance([Rat(1, 2)], demand)
        pattern = re.escape(f"pattern {solution.patterns[0][0]}: {field} ")
        with pytest.raises(InternalError, match=f"^{pattern}.* must be an "
                                                f"integer$"):
            verify_solution(inst, solution)

    def test_integral_rationals_count_as_ints(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        verify_solution(inst, PackingSolution(
            (((Rat(2),), Rat(0), Rat(1)), ((1,), 0, 1)), 2))
