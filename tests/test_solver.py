import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepack.budget import limit
from conepack.errors import InfeasibleError, InputError, InternalError
from conepack import solver
from conepack.exactmath import ExactLp
from conepack.geometry import Polytope, lattice_points
from conepack.ilp import ilp_feasible
from conepack.oracle import bp_brute_force, int_cone_brute
from conepack.rational import Rat
from conepack.solver import (BinPackingInstance, CuttingStockInstance,
                             PackingSolution, bin_packing,
                             configuration_window, cutting_stock,
                             int_cone_intersect, least_feasible,
                             multi_polytope_select, select_from_generators,
                             verify_solution)
from conepack.structure import combo_sum

from genutil import (box_polytope, rand_bounded_polytope, rand_bp_instance,
                     singleton_target)


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
        assert combo_sum(res.combination) == (5,)

    def test_parity_gap(self):
        res = int_cone_intersect(segment(2, 2), singleton_target([3]))
        assert not res.found

    def test_zero_target_is_trivial(self):
        res = int_cone_intersect(segment(2, 2), singleton_target([0]))
        assert res.found and res.target == (0,)
        assert res.combination.total_weight == 0

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
                assert a.target == b.target == combo_sum(a.combination)

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
                assert len(res.combination.weights) <= 2 ** (2 * d + 1)

    def test_unbounded_target_needs_bounds(self):
        src = segment(1, 2)
        ray = Polytope([[-1]], [-3])  # x >= 3, no upper bound
        with pytest.raises(InputError):
            int_cone_intersect(src, ray)
        res = int_cone_intersect(src, ray, y_bounds=[(3, 10)])
        assert res.found and res.target[0] >= 3

    @pytest.mark.parametrize("y_bounds", [[], [(3, 10), (0, 1)]])
    def test_y_bounds_must_match_the_target_dimension(self, y_bounds):
        ray = Polytope([[-1]], [-3])
        with pytest.raises(InputError):
            int_cone_intersect(segment(1, 2), ray, y_bounds=y_bounds)
        # checked before the shortcut for a target holding the origin
        with pytest.raises(InputError):
            int_cone_intersect(segment(1, 2), segment(0, 3),
                               y_bounds=y_bounds)


def fresh_relaxation(special, k, target, box, source):
    """Reference: a fresh LP over ``special`` and ``k`` free blocks."""
    rows, rhs = solver._combination_rows(special, target, box, extra_free=k,
                                         source=source)
    lo = [0] * len(special) + [None] * (k * target.dim)
    return ExactLp(rows, rhs, lo=lo).find_feasible()


class TestRelaxation:
    @staticmethod
    def case(rng):
        """A source, a target near a sum of a few of its generators (a box,
        or a box with one more row), and the generators."""
        while True:
            source = rand_bounded_polytope(rng, max_dim=3, max_rows=5,
                                           coeff_cap=9, box_cap=3)
            gens = [p for p in lattice_points(source) if any(p)]
            if gens:
                break
        d = source.dim
        picks = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
        y = [sum(p[j] for p in picks) + rng.randint(-1, 1) for j in range(d)]
        r = rng.randint(0, 1)
        target = box_polytope([v - r for v in y], [v + r for v in y])
        if rng.random() < 0.5:
            cut = [rng.randint(-2, 2) for _ in range(d)]
            target = Polytope(target.A + [cut], target.b + (
                sum(c * v for c, v in zip(cut, y)) + rng.randint(-1, 1),))
        return source, target, gens

    def test_warm_verdicts_match_fresh_lps(self):
        rng = random.Random(31337)
        verdicts = []  # (free points, last verdict on that tableau, verdict)
        for _ in range(120):
            source, target, gens = self.case(rng)
            box = solver._target_box(target, None)
            if box is None or any(a > b for a, b in box):
                continue
            relax = solver._Relaxation(gens, target, box, source)
            last = {}
            for _ in range(rng.randint(2, 10)):
                if rng.random() < 0.1:
                    special = gens
                else:
                    special = sorted(rng.sample(
                        gens, rng.randint(0, min(4, len(gens)))))
                k = rng.randint(0, 3)
                got = relax.feasible(special, k)
                assert got == fresh_relaxation(special, k, target, box,
                                               source), (special, k)
                free = k > 0
                if free in last:
                    verdicts.append((free, last[free], got))
                last[free] = got
        # on both tableaux, warm starts follow both verdicts
        for key in itertools.product((True, False), repeat=3):
            assert verdicts.count(key) >= 10, (key, verdicts.count(key))


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

    def test_guess_record_on_faithful_hit(self):
        sol = bin_packing(BinPackingInstance([Rat(1, 2)], [3]))
        assert sol.guess_record is not None
        special, free = sol.guess_record
        assert special >= 0 and 0 <= free

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


def cheapest_packing_cost(sizes, demand, bin_types):
    """Reference by exhaustive recursion over residual demands."""
    memo = {}
    worst = sum(a * min(c for w, c in bin_types if s <= w)
                for s, a in zip(sizes, demand))

    def patterns(limit, cap):
        d = len(sizes)
        out = []

        def rec(j, pre, slack):
            if j == d:
                out.append(tuple(pre))
                return
            cnt, left = 0, slack
            while cnt <= limit[j]:
                rec(j + 1, pre + [cnt], left)
                cnt += 1
                left = left - sizes[j]
                if left < 0:
                    break

        rec(0, [], cap)
        return out

    def best(residual):
        if all(v == 0 for v in residual):
            return 0
        if residual in memo:
            return memo[residual]
        memo[residual] = worst
        for w, c in bin_types:
            for p in patterns(residual, w):
                if all(v == 0 for v in p):
                    continue
                rest = tuple(r - v for r, v in zip(residual, p))
                cand = c + best(rest)
                if cand < memo[residual]:
                    memo[residual] = cand
        return memo[residual]

    return best(tuple(demand))


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

    def test_zero_demand(self):
        inst = CuttingStockInstance([Rat(1, 2)], [0], [(Rat(1), 1)])
        assert cutting_stock(inst).objective == 0

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
            assert sol.objective == cheapest_packing_cost(
                [Rat(s) for s in sizes], mult, types), (sizes, mult, types)

    @pytest.mark.parametrize("big", [10 ** 5, 10 ** 30])
    def test_large_bin_costs(self, big):
        # the lifted polytope's cost coordinate ranges over [0, big]; its
        # lattice comes from the parts, not from that box
        inst = CuttingStockInstance([Rat(1, 3), Rat(1, 4)], [2, 3],
                                    [(Rat(1), big), (Rat(1, 2), big // 2 + 1)])
        with limit(20_000):
            sol = cutting_stock(inst)
        assert sol.objective == big + big // 2 + 1
        assert sol.patterns == (((2, 1), 0, 1), ((0, 2), 1, 1))

    def test_stored_proofs_keep_witnesses_and_nodes(self, monkeypatch):
        # node-heavy: its Empty probe takes most of the branch and bound
        inst = CuttingStockInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)],
                                    [40] * 3, [(Rat(1), 3), (Rat(1, 2), 2)])
        inner = solver.ilp_feasible

        def solve():
            nodes = []

            def counted(problem):
                res = inner(problem)
                nodes.append(res.nodes)
                return res

            with monkeypatch.context() as patch:
                patch.setattr(solver, "ilp_feasible", counted)
                return cutting_stock(inst), nodes

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
        assert nodes == plain_nodes and sum(nodes) > 400
        assert any(refuted)



def patterns(sizes, capacity, a):
    """Every x with 0 <= x <= a and sizes . x <= capacity."""
    return [x for x in itertools.product(*(range(v + 1) for v in a))
            if sum(s * v for s, v in zip(sizes, x)) <= capacity]


class TestConfigurationWindow:
    def test_halves(self):
        # three halves: the LP packs 3/2 bins of (2,), which rounds to 2
        assert configuration_window([(patterns([Rat(1, 2)], 1, [3]), 1)],
                                    [3]) == (2, 2)

    def test_costs_weigh_the_parts(self):
        # one item of size 1/2: a half bin for 1 beats a full bin for 3
        parts = [(patterns([Rat(1, 2)], 1, [1]), 3),
                 (patterns([Rat(1, 2)], Rat(1, 2), [1]), 1)]
        assert configuration_window(parts, [1]) == (1, 1)

    def test_zero_points_and_demand(self):
        assert configuration_window([([(0, 0), (1, 0), (0, 1)], 2)],
                                    [0, 0]) == (0, 0)

    def test_uncoverable_demand(self):
        with pytest.raises(InfeasibleError):
            configuration_window([([(0, 0), (1, 0)], 1)], [1, 1])


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
    lo, hi = configuration_window([(patterns(sizes, 1, a), 1)], a)
    assert lo <= opt <= hi and hi - lo < len(a)


@settings(max_examples=30, deadline=None)
@given(_desk_instance())
def test_cutting_stock_optimum_lies_inside_its_window(case):
    sizes, a, bin_types = case
    parts = [(patterns(sizes, w, a), c) for w, c in bin_types]
    opt = cheapest_packing_cost(sizes, a, bin_types)
    inst = CuttingStockInstance(sizes, a, bin_types)
    assert cutting_stock(inst).objective == opt
    lo, hi = configuration_window(parts, a)
    assert lo <= opt <= hi
    assert hi - lo < len(a) * max(c for _w, c in bin_types)


PAPER_SCALE = 10 ** 30


@pytest.mark.parametrize("inst", [
    BinPackingInstance([Rat(1, 3), Rat(1, 4)], [PAPER_SCALE] * 2),
    BinPackingInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)], [PAPER_SCALE] * 3),
    CuttingStockInstance([Rat(1, 3), Rat(1, 4)], [PAPER_SCALE] * 2,
                         [(Rat(1), 3), (Rat(1, 2), 2)]),
    CuttingStockInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)],
                         [PAPER_SCALE] * 3, [(Rat(1), 1)]),
], ids=["binpacking-d2", "binpacking-d3", "cuttingstock-d2",
        "cuttingstock-d3"])
def test_paper_scale_search_takes_few_probes(inst, monkeypatch):
    probes = []

    def counting(*args, **kwargs):
        probes.append(args[1])
        return int_cone_intersect(*args, **kwargs)

    monkeypatch.setattr(solver, "int_cone_intersect", counting)
    solve = bin_packing if isinstance(inst, BinPackingInstance) \
        else cutting_stock
    verify_solution(inst, solve(inst))
    assert 1 <= len(probes) <= 3

class TestMultiPolytopeSelect:
    def test_pick_the_cheap_part(self):
        parts = [(singleton_target([1]), 5), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([3]), 1)
        assert res.found and res.total_cost == 1
        assert dict(res.part_combinations[1].weights) == {(3,): 1}
        assert res.part_combinations[0].total_weight == 0

    def test_budget_too_small(self):
        parts = [(singleton_target([1]), 5), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([3]), 0)
        assert not res.found

    def test_single_part_reduces_to_intersection(self):
        res = multi_polytope_select([(singleton_target([2]), 1)],
                                    singleton_target([6]), 10)
        assert res.found and res.total_cost == 3
        assert dict(res.part_combinations[0].weights) == {(2,): 3}

    def test_combining_parts(self):
        parts = [(singleton_target([2]), 1), (singleton_target([3]), 1)]
        res = multi_polytope_select(parts, singleton_target([7]), 3)
        assert res.found and res.total_cost == 3

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            multi_polytope_select([(singleton_target([1, 1]), 1)],
                                  singleton_target([1]), 1)

    def test_cost_must_be_positive_integer(self):
        with pytest.raises(InputError):
            multi_polytope_select([(singleton_target([1]), 0)],
                                  singleton_target([1]), 1)
        with pytest.raises(InputError):
            multi_polytope_select([(singleton_target([1]), Rat(1, 2))],
                                  singleton_target([1]), 1)

    def test_negative_budget(self):
        res = multi_polytope_select([(singleton_target([1]), 1)],
                                    singleton_target([1]), -1)
        assert not res.found


class TestSelectFromGenerators:
    def test_basic_choice(self):
        res = select_from_generators([[(1,)], [(3,)]], [5, 1],
                                     singleton_target([3]), 1)
        assert res.found and res.total_cost == 1
        assert dict(res.part_combinations[1].weights) == {(3,): 1}

    def test_budget_blocks(self):
        res = select_from_generators([[(1,)], [(3,)]], [5, 1],
                                     singleton_target([3]), 0)
        assert not res.found

    def test_zero_generators_dropped(self):
        res = select_from_generators([[(0,), (2,)]], [1],
                                     singleton_target([4]), 5)
        assert res.found and res.total_cost == 2

    def test_empty_groups_zero_target(self):
        res = select_from_generators([[], []], [1, 1],
                                     singleton_target([0]), 0)
        assert res.found and res.total_cost == 0

    def test_empty_groups_nonzero_target(self):
        res = select_from_generators([[], []], [1, 1],
                                     singleton_target([2]), 9)
        assert not res.found

    @pytest.mark.parametrize("groups, target", [
        ([[(1,)]], Polytope([[-1]], [-3])),  # x >= 3, no upper bound
        # checked before the shortcut for a target holding the origin
        ([[]], Polytope([[1, 0], [-1, 0], [0, -1]], [3, 0, 0])),
    ], ids=["ray", "origin_in_target"])
    def test_unbounded_target_is_rejected(self, groups, target):
        with pytest.raises(InputError, match="unbounded"):
            select_from_generators(groups, [1], target, 9)


def _seeded_selections():
    """Thirty small selections, a third through ``multi_polytope_select``."""
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
            res = multi_polytope_select(parts, target, budget)
        else:
            m = rng.randint(1, 3)
            # a shared pool, so groups repeat points at different costs
            pool = [tuple(rng.randint(0, 3) for _ in range(d))
                    for _ in range(4)]
            groups = [rng.sample(pool, rng.randint(0, 4)) for _ in range(m)]
            costs = [rng.randint(0, 3) for _ in range(m)]
            res = select_from_generators(groups, costs, target, budget)
        out.append((res.found, res.target,
                    [sorted(c.weights.items()) for c in res.part_combinations],
                    res.total_cost))
    return out


def test_selection_programs_and_witnesses_are_pinned(monkeypatch):
    # Bland's rule pivots by row index, so the integer programs are pinned
    # row for row, and the witnesses they yield with them.
    programs = []

    def recording(problem, **kwargs):
        programs.append((problem.rows, problem.rhs, problem.lo, problem.hi))
        return ilp_feasible(problem, **kwargs)

    monkeypatch.setattr(solver, "ilp_feasible", recording)
    results = _seeded_selections()
    assert sum(found for found, *_ in results) == 18
    assert len(programs) == 55

    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    assert digest(programs) == "fa016dbdac8fedae"
    assert digest(results) == "6717902405867f73"


class TestVerifySolution:
    def test_bin_packing_roundtrip(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        sol = bin_packing(inst)
        verify_solution(inst, sol)

    def test_detects_demand_mismatch(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        bogus = PackingSolution((((1,), 0, 2),), 2, None)
        with pytest.raises(InternalError):
            verify_solution(inst, bogus)

    def test_detects_overfull_pattern(self):
        inst = BinPackingInstance([Rat(1, 2)], [3])
        bogus = PackingSolution((((3,), 0, 1),), 1, None)
        with pytest.raises(InternalError):
            verify_solution(inst, bogus)

    def test_cutting_stock_roundtrip(self):
        inst = CuttingStockInstance([Rat(1, 2)], [2],
                                    [(Rat(1), 3), (Rat(1, 2), 2)])
        verify_solution(inst, cutting_stock(inst))

    @pytest.mark.parametrize("bin_type", [-1, 1])
    def test_bin_packing_rejects_unknown_bin_type(self, bin_type):
        inst = BinPackingInstance([Rat(1, 2)], [2])
        sol = PackingSolution((((2,), bin_type, 1),), 1, None)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    @pytest.mark.parametrize("bin_type", [-1, 2])
    def test_cutting_stock_rejects_unknown_bin_type(self, bin_type):
        # valid if the index named the last bin type (capacity 1/2, cost 2)
        inst = CuttingStockInstance([Rat(1, 2)], [2],
                                    [(Rat(1), 3), (Rat(1, 2), 2)])
        sol = PackingSolution((((1,), bin_type, 2),), 4, None)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    @pytest.mark.parametrize("pattern", [(), (1, 1)])
    def test_rejects_pattern_of_wrong_length(self, pattern):
        inst = BinPackingInstance([Rat(1, 2)], [2])
        sol = PackingSolution(((pattern, 0, 1),), 1, None)
        with pytest.raises(InternalError):
            verify_solution(inst, sol)

    def test_unknown_instance(self):
        with pytest.raises(InputError):
            verify_solution(object(), PackingSolution((), 0, None))
