"""Integer input is read one way at every entry point.

Each entry point that needs integers reads them through
``rational.integer``: a non-integral value raises an ``InputError`` that
names its field, and an integral rational or float answers as its int
twin does.  A work budget is read so too, and a negative one refused.
A listed part's points are read by one reader at the configuration
window, the covering search and every probe over them, so a malformed
point is refused alike at all three, naming its part.
Every other value an instance class, a polytope, a selection, the exact
LP, an objective of another variant or the oracle refuses raises an
``InputError`` that names its field.
Every scheduling entry point reads a machine type and a job vector
through the scheduling module's two readers, so a machine type outside
0..m-1 or a job vector of the wrong length or with a negative count is
an ``InputError`` everywhere, and a validated schedule whose segment
names no job type is an ``InternalError``.  The hull routines reject
points of mixed dimension with an ``InputError``.
"""

from fractions import Fraction
from functools import partial

import pytest

from conepack import budget, oracle
from conepack.errors import InputError, InternalError
from conepack.exactmath import ExactLp, solve_linear_system
from conepack.geometry import (Parallelepiped, Polytope, box_polytope,
                               down_closed_lattice, down_closed_polytope,
                               extreme_points, in_convex_hull, lattice_points,
                               slack_interval_index)
from conepack.ilp import ilp_feasible
from conepack.scheduling import (SchedulingInstance, build_edf_polytope,
                                 build_nonpreemptive_polytope, edf_simulate,
                                 extract_cyclic_schedule,
                                 nonpreemptive_assign,
                                 nonpreemptive_completable, preemptive_assign,
                                 schedulable_vectors, tardy_min_penalty,
                                 validate_nonpreemptive_schedule,
                                 validate_preemptive_schedule)
from conepack.solver import (CuttingStockInstance, cheapest_cover,
                             configuration_window, multi_polytope_select,
                             select_from_generators)
from conepack.structure import (compute_structure_set, normalize_combination,
                                redistribute_in_pp, reduce_support)

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def one_job(variant="assignment"):
    return SchedulingInstance([[(0, 4, 1)]], [3], costs=[1], variant=variant)


def two_jobs():
    return SchedulingInstance([[(0, 4, 1), (1, 6, 2)]], [2, 1], costs=[1])


def two_machine_types():
    return SchedulingInstance([[(0, 4, 1), (1, 6, 2)],
                               [(2, 5, 1), (0, 6, 3)]], [2, 1], costs=[1, 1])


def segment_sset():
    """The structure set of the segment [0, 2]."""
    return compute_structure_set(box_polytope([0], [2]))


def certificate():
    """A valid cycle certificate of (1, 0) on ``two_machine_types()``."""
    return nonpreemptive_completable((1, 0), two_machine_types(), 0)


NON_INTEGRAL = [
    ("polytope-rhs", "right-hand side",
     lambda: lattice_points(Polytope([[1], [-1]], [-HALF, 0]))),
    ("polytope-row", "constraint coefficient",
     lambda: Polytope([[HALF], [-1]], [1, 0])),
    # as down_closed_polytope reads the same rows through Polytope
    ("down-closed-row", "constraint coefficient",
     lambda: down_closed_lattice([[HALF]], [3], [10])),
    ("down-closed-rhs", "right-hand side",
     lambda: down_closed_lattice([[1]], [2.5], [10])),
    ("ilp-rhs", "right-hand side",
     lambda: ilp_feasible([[1], [-1]], [HALF, -HALF], lo=[0], hi=[3])),
    ("ilp-row", "constraint coefficient",
     lambda: ilp_feasible([[THREE_HALVES]], [3], lo=[0], hi=[3])),
    ("ilp-bound", "variable bound",
     lambda: ilp_feasible([[1]], [3], lo=[HALF], hi=[3])),
    ("generator", "part 0 coordinate",
     lambda: select_from_generators([([(THREE_HALVES,)], 1)],
                                    box_polytope([1], [1]), 5)),
    ("combination-point", "point coordinate",
     lambda: reduce_support({(THREE_HALVES,): 1})),
    ("combination-weight", "weight",
     lambda: reduce_support({(1,): THREE_HALVES})),
    ("normalize-point", "point coordinate",
     lambda: normalize_combination({(THREE_HALVES,): 1}, segment_sset())),
    ("normalize-weight", "weight",
     lambda: normalize_combination({(1,): THREE_HALVES}, segment_sset())),
    ("redistribute-point", "point coordinate",
     lambda: redistribute_in_pp(Parallelepiped((1,), ((1,),)),
                                (THREE_HALVES,), 2)),
    ("redistribute-weight", "weight",
     lambda: redistribute_in_pp(Parallelepiped((1,), ((1,),)), (1,),
                                THREE_HALVES)),
    ("completable", "job count",
     lambda: nonpreemptive_completable([THREE_HALVES],
                                       one_job("nonpreemptive"), 0)),
    ("edf-simulate", "job count",
     lambda: edf_simulate([THREE_HALVES], one_job(), 0)),
    ("validate-preemptive", "job count",
     lambda: validate_preemptive_schedule(one_job(), 0, [THREE_HALVES], ())),
    ("validate-nonpreemptive", "job count",
     lambda: validate_nonpreemptive_schedule(one_job(), 0, [THREE_HALVES],
                                             ())),
    # the certificate's first copy count, of the dummy type, made 1/2
    ("extract-cyclic", "auxiliary entry",
     lambda: extract_cyclic_schedule(
         certificate()[:6] + (HALF,) + certificate()[7:],
         two_machine_types(), 0)),
    ("bp-brute-force", "multiplicity",
     lambda: oracle.bp_brute_force([HALF], [THREE_HALVES])),
    ("fractional-opt", "multiplicity",
     lambda: oracle.fractional_opt([HALF], [THREE_HALVES])),
    ("int-cone-brute", "generator coordinate",
     lambda: oracle.int_cone_brute([(THREE_HALVES,)],
                                   box_polytope([3], [3]), [(0, 3)])),
    ("int-cone-brute-box", "box bound",
     lambda: oracle.int_cone_brute([(1,)], box_polytope([2], [2]),
                                   [(0, Fraction(5, 2))])),
    ("brute-schedule", "deadline",
     lambda: oracle.nonpreemptive_brute([(0, Fraction(5, 2), 1)], 3)),
    ("brute-schedule-counts", "job count",
     lambda: oracle.nonpreemptive_brute_counts(
         [THREE_HALVES], one_job("nonpreemptive"), 0)),
    ("multi-polytope-budget", "budget",
     lambda: multi_polytope_select([(box_polytope([0], [2]), 1)],
                                   box_polytope([4], [4]), Fraction(9, 2))),
    ("generator-budget", "budget",
     lambda: select_from_generators([([(1,), (2,)], 1)],
                                    box_polytope([4], [4]), Fraction(9, 2))),
    ("window-demand", "multiplicity",
     lambda: configuration_window([([(1,)], 1)], [Fraction(5, 2)])),
    ("window-cost", "part cost",
     lambda: configuration_window([([(1,)], HALF)], [2])),
    ("slack", "slack", lambda: slack_interval_index(Fraction(5, 2), 1)),
    ("slack-dimension", "dimension",
     lambda: slack_interval_index(3, THREE_HALVES)),
]


@pytest.mark.parametrize("field,call", [case[1:] for case in NON_INTEGRAL],
                         ids=[case[0] for case in NON_INTEGRAL])
def test_a_non_integral_value_is_an_input_error(field, call):
    with pytest.raises(InputError, match=f"^{field} .* must be an integer$"):
        call()


@pytest.mark.parametrize("units,message", [
    ("5", "^work budget '5' is text, not an integer$"),
    (None, "^work budget None must be an integer$"),
    (2.5, "^work budget 2.5 must be an integer$"),
    (-3, "^work budget -3 must be non-negative$"),
], ids=["text", "none", "fraction", "negative"])
def test_a_work_budget_is_a_non_negative_integer(units, message):
    # refused when the limit is made, before any work is charged to it
    with pytest.raises(InputError, match=message):
        budget.limit(units)


def test_an_integral_work_budget_reads_as_its_int():
    with budget.limit(Fraction(4)):
        assert budget._OPEN.get() == [4, 0, 0]
        assert type(budget._OPEN.get()[0]) is int
    with budget.limit(0.0):
        assert budget._OPEN.get() == [0, 0, 0]


def tardy(counts=(1,), penalties=(1,), windows=((0, 4, 1),)):
    return SchedulingInstance([windows], [1] * len(windows), counts=counts,
                              penalties=penalties)


# a value an instance class, a polytope, a selection, the exact LP, an
# objective or the oracle refuses, and the field its error names
BAD_VALUES = [
    ("no-machine-type", "machine type",
     lambda: SchedulingInstance([], [1], costs=[1])),
    ("ragged-job-types", "job type",
     lambda: SchedulingInstance([[(0, 4, 1)], [(0, 4, 1), (0, 4, 1)]],
                                [1], costs=[1, 1])),
    ("no-job-type", "job type",
     lambda: SchedulingInstance([[]], [], costs=[1])),
    ("multiplicities-length", "multiplicities",
     lambda: SchedulingInstance([[(0, 4, 1)]], [1, 1], costs=[1])),
    ("costs-length", "cost",
     lambda: SchedulingInstance([[(0, 4, 1)]], [1], costs=[1, 1])),
    ("counts-length", "count", lambda: tardy(counts=(1, 1))),
    ("negative-count", "counts", lambda: tardy(counts=(-1,))),
    ("penalties-length", "penalty", lambda: tardy(penalties=(1, 1))),
    ("negative-penalty", "penalties", lambda: tardy(penalties=(-1,))),
    ("assignment-without-costs", "costs",
     lambda: SchedulingInstance([[(0, 4, 1)]], [1], variant="preemptive")),
    ("tardy-without-counts", "counts",
     lambda: SchedulingInstance([[(0, 4, 1)]], [1], costs=[1],
                                variant="tardy")),
    ("misaligned-sizes", "multiplicities",
     lambda: CuttingStockInstance([HALF, HALF], [1], [(1, 1)])),
    ("no-bin-type", "bin type", lambda: CuttingStockInstance([HALF], [1], [])),
    ("bin-cost-below-1", "bin cost",
     lambda: CuttingStockInstance([HALF], [1], [(1, 0)])),
    ("rows-and-bounds", "bounds", lambda: Polytope([[1], [-1]], [1])),
    # the load rows are counted before the box rows are added
    ("down-closed-rows-and-bounds", "1 rows but 2 bounds",
     lambda: down_closed_polytope([[1]], [3, 4], [10])),
    ("down-closed-lister-rows-and-bounds", "1 rows but 2 bounds",
     lambda: down_closed_lattice([[1]], [3, 4], [10])),
    ("ragged-rows", "constraint matrix",
     lambda: Polytope([[1], [-1, 0]], [1, 0])),
    ("no-column", "dimension", lambda: Polytope([[]], [1])),
    ("no-row", "constraint row", lambda: Polytope([], [])),
    ("generator-dimension", r"point \(1, 1\) of part 0",
     lambda: select_from_generators([([(1, 1)], 1)], box_polytope([1], [1]),
                                    5)),
    ("no-part", "part",
     lambda: multi_polytope_select([], box_polytope([1], [1]), 5)),
    ("box-sides", "box sides", lambda: box_polytope([0, 0], [1])),
    # the window reads its demand, costs and points before its simplex
    ("window-negative-demand", "multiplicities",
     lambda: cheapest_cover([-2], [([(1,)], 1)], partial(
         select_from_generators, [([(1,)], 1)]))),
    ("window-negative-cost", "part costs",
     lambda: configuration_window([([(1,)], -1)], [2])),
    ("window-text-cost", "part cost",
     lambda: configuration_window([([(1,)], "x")], [2])),
    ("window-point-length", r"point \(1, 0\) of part 0",
     lambda: configuration_window([([(1,), (1, 0)], 1)], [2])),
    ("window-negative-point", r"point \(2, -1\) of part 0",
     lambda: configuration_window([([(1, 0), (0, 1), (2, -1)], 1)], [2, 1])),
    # the shape checks of the exact LP and the linear solver
    ("system-rhs", "rhs", lambda: solve_linear_system([[1], [2]], [1])),
    ("system-ragged", "ragged matrix",
     lambda: solve_linear_system([[1, 2], [1]], [1, 2])),
    ("lp-senses-length", "senses length",
     lambda: ExactLp([[1]], [1], senses=["<=", "<="])),
    ("lp-unknown-sense", "row sense",
     lambda: ExactLp([[1]], [1], senses=[">="])),
    ("lp-variable-index", "variable index",
     lambda: ExactLp([[1]], [1]).set_var_bounds(1, 0, 1)),
    ("lp-objective-sense", "sense",
     lambda: ExactLp([[1]], [1]).optimize([1], "up")),
    ("lp-objective-length", "objective length",
     lambda: ExactLp([[1]], [1]).optimize([1, 1])),
    # a point, a direction or a combination of another dimension
    ("contains-dimension", "point has dim",
     lambda: box_polytope([0], [1]).contains_int((0, 0))),
    ("direction-dimension", "direction dimension",
     lambda: Parallelepiped((0, 0), [(1,)])),
    ("normalize-dimension", "combination dim",
     lambda: normalize_combination({(1, 1): 1}, segment_sset())),
    # an objective on an instance of another variant
    ("preemptive-on-tardy", "machine costs",
     lambda: preemptive_assign(tardy())),
    ("nonpreemptive-on-tardy", "machine costs",
     lambda: nonpreemptive_assign(tardy())),
    ("tardy-on-assignment", "machine counts",
     lambda: tardy_min_penalty(one_job())),
    # the oracle's guards
    ("bp-brute-force-lengths", "multiplicities",
     lambda: oracle.bp_brute_force([HALF], [1, 1])),
    ("bp-brute-force-size", "sizes", lambda: oracle.bp_brute_force([0], [1])),
    ("bp-brute-force-negative", "multiplicities",
     lambda: oracle.bp_brute_force([HALF], [-1])),
    ("fractional-opt-size", "sizes", lambda: oracle.fractional_opt([0], [1])),
    ("fractional-opt-oversized", "fractional relaxation",
     lambda: oracle.fractional_opt([2], [1])),
    ("int-cone-brute-dimension", "generator dimension",
     lambda: oracle.int_cone_brute([(1, 1)], box_polytope([1], [1]),
                                   [(0, 3)])),
    ("brute-schedule-window", r"job \(0, 5, 1\) is out of range",
     lambda: oracle.nonpreemptive_brute([(0, 5, 1)], 4)),
    ("cover-verify-unbounded", "unbounded polytope",
     lambda: oracle.cover_verify(Polytope([[-1]], [0]), [])),
]


@pytest.mark.parametrize("field,call", [case[1:] for case in BAD_VALUES],
                         ids=[case[0] for case in BAD_VALUES])
def test_a_bad_value_is_refused_naming_its_field(field, call):
    with pytest.raises(InputError, match=rf"\b{field}\b"):
        call()


def test_a_negative_budget_selects_nothing():
    assert not select_from_generators([([(1,)], 1)], box_polytope([1], [1]),
                                      -1).found


EMPTY_TARGET = Polytope([[1], [-1]], [0, -1])  # 1 <= x <= 0

# a negative budget or an empty target has no selection, but the parts are
# read before that is answered
READ_FIRST = [
    ("text-cost", "^part cost 'x' is text, not an integer$",
     lambda: select_from_generators([([(1,)], "x")], box_polytope([1], [1]),
                                    -1)),
    ("negative-cost", "^part costs must be non-negative$",
     lambda: select_from_generators([([(1,)], -5)], EMPTY_TARGET, 5)),
    ("text-coordinate", "^part 0 coordinate 'a' is text, not an integer$",
     lambda: select_from_generators([([("a",)], 1)], EMPTY_TARGET, -1)),
]


@pytest.mark.parametrize("message,call", [case[1:] for case in READ_FIRST],
                         ids=[case[0] for case in READ_FIRST])
def test_selection_parts_are_read_before_any_answer(message, call):
    with pytest.raises(InputError, match=message):
        call()


# the second part holds only its points; each reader names it by index
NOT_A_PAIR = [
    ("generator-parts",
     lambda: select_from_generators([([(1,)], 1), ([(1,)],)],
                                    box_polytope([1], [1]), 5)),
    ("lifted-parts",
     lambda: multi_polytope_select([(box_polytope([0], [1]), 1),
                                    (box_polytope([0], [1]),)],
                                   box_polytope([1], [1]), 5)),
    ("window-parts",
     lambda: configuration_window([([(1,)], 1), ([(1,)],)], [1])),
]


@pytest.mark.parametrize("call", [case[1] for case in NOT_A_PAIR],
                         ids=[case[0] for case in NOT_A_PAIR])
def test_a_part_that_is_not_a_pair_is_an_input_error(call):
    with pytest.raises(InputError, match="^part 1 is not a pair$"):
        call()


# a listed part's points are read by one reader at the window and at every
# probe: each malformed point is refused naming its part, where a covering
# search used to pick two copies of (5/2,), answer in floats, raise an
# InternalError or a bare TypeError
MALFORMED_POINTS = [
    ("five-halves", [(Fraction(5, 2),), (1,)],
     "^part 0 coordinate 5/2 must be an integer$"),
    ("float", [(2.5,), (1,)], "^part 0 coordinate 2.5 must be an integer$"),
    ("half", [(HALF,)], "^part 0 coordinate 1/2 must be an integer$"),
    ("text", [("1",)], "^part 0 coordinate '1' is text, not an integer$"),
]
LISTED_ENTRIES = [
    ("cover", lambda parts: cheapest_cover(
        [5], parts, partial(select_from_generators, parts))),
    ("window", lambda parts: configuration_window(parts, [5])),
    ("select", lambda parts: select_from_generators(
        parts, box_polytope([5], [5]), 5)),
]


@pytest.mark.parametrize("points,message",
                         [case[1:] for case in MALFORMED_POINTS],
                         ids=[case[0] for case in MALFORMED_POINTS])
@pytest.mark.parametrize("entry", [case[1] for case in LISTED_ENTRIES],
                         ids=[case[0] for case in LISTED_ENTRIES])
def test_a_malformed_listed_point_is_an_input_error(entry, points, message):
    with pytest.raises(InputError, match=message):
        entry([(points, 1)])


def part_select(cost, budget=5):
    return multi_polytope_select([(box_polytope([0], [2]), cost)],
                                 box_polytope([4], [4]), budget)


def generator_select(cost, budget=5):
    return select_from_generators([([(1,), (2,)], cost)],
                                  box_polytope([4], [4]), budget)


WINDOW_PARTS = [([(1,), (2,)], 3)]


def cover_select(cost):
    parts = [([(1,), (2,)], cost)]
    return cheapest_cover([3], parts, partial(select_from_generators, parts))


INTEGRAL = [
    ("multi-polytope-cost", lambda: part_select(Fraction(2)),
     lambda: part_select(2)),
    ("generator-cost", lambda: generator_select(Fraction(2)),
     lambda: generator_select(2)),
    ("multi-polytope-budget", lambda: part_select(2, Fraction(5)),
     lambda: part_select(2, 5)),
    ("generator-budget", lambda: generator_select(2, 5.0),
     lambda: generator_select(2, 5)),
    ("window-demand", lambda: configuration_window(WINDOW_PARTS, [2.0]),
     lambda: configuration_window(WINDOW_PARTS, [2])),
    ("cover-cost", lambda: cover_select(3.0), lambda: cover_select(3)),
    # points listed as lists read as their tuples
    ("window-list-points",
     lambda: configuration_window([([[1], [2]], 3)], [2]),
     lambda: configuration_window(WINDOW_PARTS, [2])),
    ("cover-list-points",
     lambda: cheapest_cover([3], [([[1], [2]], 3)], partial(
         select_from_generators, [([[1], [2]], 3)])),
     lambda: cover_select(3)),
    ("polytope-rows",
     lambda: lattice_points(Polytope([[Fraction(4, 2), 1], [-1, 0], [0, -1]],
                                     [Fraction(12, 2), 0, 0])),
     lambda: lattice_points(Polytope([[2, 1], [-1, 0], [0, -1]], [6, 0, 0]))),
    ("combination", lambda: reduce_support({(Fraction(2), 1): Fraction(3)}),
     lambda: reduce_support({(2, 1): 3})),
    ("normalize",
     lambda: normalize_combination({(Fraction(1),): 2.0}, segment_sset()),
     lambda: normalize_combination({(1,): 2}, segment_sset())),
    ("redistribute",
     lambda: redistribute_in_pp(Parallelepiped((1,), ((1,),)),
                                (Fraction(1),), 5.0),
     lambda: redistribute_in_pp(Parallelepiped((1,), ((1,),)), (1,), 5)),
    ("edf-simulate", lambda: edf_simulate([2.0, 1], two_jobs(), 0),
     lambda: edf_simulate([2, 1], two_jobs(), 0)),
    ("edf-simulate-overload", lambda: edf_simulate([5.0, 0], two_jobs(), 0),
     lambda: edf_simulate([5, 0], two_jobs(), 0)),
    ("machine-type",
     lambda: edf_simulate((1, 0), two_machine_types(), Fraction(1)),
     lambda: edf_simulate((1, 0), two_machine_types(), 1)),
]


@pytest.mark.parametrize("twin,plain", [case[1:] for case in INTEGRAL],
                         ids=[case[0] for case in INTEGRAL])
def test_an_integral_value_answers_as_its_int_twin(twin, plain):
    assert twin() == plain()


def test_integral_values_come_back_as_ints():
    poly = Polytope([[Fraction(4, 2), 1.0]], [Fraction(12, 2)])
    assert all(type(v) is int for v in poly.A[0] + poly.b)
    for combo in (reduce_support({(Fraction(2), 1): Fraction(3)}),
                  normalize_combination({(Fraction(1),): 2.0}, segment_sset()),
                  redistribute_in_pp(Parallelepiped((1,), ((1,),)),
                                     (Fraction(1),), 5.0)):
        assert all(type(v) is int for point, w in combo.items()
                   for v in (*point, w))
    res = part_select(Fraction(2))
    assert res.found and type(res.total_cost) is int
    lo, hi, cover, _basis = configuration_window(WINDOW_PARTS, [2.0])
    assert all(type(v) is int for v in (lo, hi, *(n for _i, _p, n in cover)))
    assert type(cover_select(3.0).total_cost) is int


def test_text_is_not_read_as_an_integer():
    # every instance-file reader converts its tokens before they get here
    with pytest.raises(InputError, match="^constraint coefficient '1' is "
                                         "text, not an integer$"):
        Polytope([["1"], ["-1"]], ["2", "0"])
    with pytest.raises(InputError, match="^slack '3' is text, not an "
                                         "integer$"):
        slack_interval_index("3", 1)
    with pytest.raises(InputError, match="^box side '10' is text, not an "
                                         "integer$"):
        down_closed_lattice([[1]], [3], ["10"])


MIXED_DIMENSION = [
    ("extreme-points-short", lambda: extreme_points([(0, 0), (1,), (2, 2)])),
    ("extreme-points-long",
     lambda: extreme_points([(0, 0, 0), (1, 5), (2, 2, 2), (0, 1, 0)])),
    ("hull-membership-long", lambda: in_convex_hull((1, 1), [(0, 0),
                                                             (2, 2, 2)])),
    ("hull-membership-short", lambda: in_convex_hull((0, 0), [(1, 1), (2,)])),
]


@pytest.mark.parametrize("call", [case[1] for case in MIXED_DIMENSION],
                         ids=[case[0] for case in MIXED_DIMENSION])
def test_hull_points_of_mixed_dimension_are_an_input_error(call):
    # the short cases used to answer, or to raise IndexError, and the long
    # hull one a bare ValueError
    with pytest.raises(InputError, match="dimension"):
        call()


MACHINE_TYPE_CALLS = [
    ("critical-points", lambda inst, i: inst.critical_points(i)),
    ("horizon", lambda inst, i: inst.horizon(i)),
    ("edf-polytope", build_edf_polytope),
    ("edf-simulate", lambda inst, i: edf_simulate((1, 0), inst, i)),
    ("validate-preemptive",
     lambda inst, i: validate_preemptive_schedule(inst, i, (0, 0), ())),
    ("cycle-polytope", build_nonpreemptive_polytope),
    ("completable",
     lambda inst, i: nonpreemptive_completable((1, 0), inst, i)),
    ("extract-cyclic",
     lambda inst, i: extract_cyclic_schedule(certificate(), inst, i)),
    ("validate-nonpreemptive",
     lambda inst, i: validate_nonpreemptive_schedule(inst, i, (0, 0), ())),
    ("schedulable-vectors",
     lambda inst, i: schedulable_vectors(inst, i, (1, 1))),
    # the machine type is read before a negative side answers {}
    ("schedulable-vectors-negative-box",
     lambda inst, i: schedulable_vectors(inst, i, (1, -1))),
    ("brute-schedule-counts",
     lambda inst, i: oracle.nonpreemptive_brute_counts((1, 0), inst, i)),
]


@pytest.mark.parametrize("call", [case[1] for case in MACHINE_TYPE_CALLS],
                         ids=[case[0] for case in MACHINE_TYPE_CALLS])
def test_a_non_integral_machine_type_is_an_input_error(call):
    with pytest.raises(InputError,
                       match="^machine type 1/2 must be an integer$"):
        call(two_machine_types(), HALF)


@pytest.mark.parametrize("machine_type", [-1, 2])
@pytest.mark.parametrize("call", [case[1] for case in MACHINE_TYPE_CALLS],
                         ids=[case[0] for case in MACHINE_TYPE_CALLS])
def test_a_machine_type_out_of_range_is_an_input_error(call, machine_type):
    # -1 used to answer for the last machine type, and m to raise IndexError
    with pytest.raises(InputError, match=f"^machine type {machine_type} is "
                                         "not in 0..1$"):
        call(two_machine_types(), machine_type)


JOB_VECTOR_CALLS = [
    ("edf-simulate", lambda inst, x: edf_simulate(x, inst, 0)),
    ("validate-preemptive",
     lambda inst, x: validate_preemptive_schedule(inst, 0, x, ())),
    ("completable", lambda inst, x: nonpreemptive_completable(x, inst, 0)),
    ("validate-nonpreemptive",
     lambda inst, x: validate_nonpreemptive_schedule(inst, 0, x, ())),
    ("brute-schedule-counts",
     lambda inst, x: oracle.nonpreemptive_brute_counts(x, inst, 0)),
]

BAD_VECTORS = [
    ((1, 1, 1), r"^job vector \(1, 1, 1\) needs 2 counts$"),
    ((1,), r"^job vector \(1,\) needs 2 counts$"),
    ((1, -1), r"^job vector \(1, -1\) has a negative count$"),
]


@pytest.mark.parametrize("x,message", BAD_VECTORS,
                         ids=["too-long", "too-short", "negative"])
@pytest.mark.parametrize("call", [case[1] for case in JOB_VECTOR_CALLS],
                         ids=[case[0] for case in JOB_VECTOR_CALLS])
def test_a_malformed_job_vector_is_an_input_error(call, x, message):
    with pytest.raises(InputError, match=message):
        call(two_machine_types(), x)


@pytest.mark.parametrize("box,message", [
    ((1, 2, 3), r"^box \(1, 2, 3\) needs 2 sides$"),
    ((1,), r"^box \(1,\) needs 2 sides$"),
    ((), r"^box \(\) needs 2 sides$"),
], ids=["too-long", "too-short", "empty"])
def test_a_box_of_the_wrong_length_is_an_input_error(box, message):
    # one side per job type: no side is dropped or read past the end
    with pytest.raises(InputError, match=message):
        schedulable_vectors(two_machine_types(), 0, box)


@pytest.mark.parametrize("job_type", [-1, 2, 5])
@pytest.mark.parametrize("validate", [validate_preemptive_schedule,
                                      validate_nonpreemptive_schedule],
                         ids=["preemptive", "nonpreemptive"])
def test_a_segment_naming_no_job_type_is_an_internal_error(validate,
                                                            job_type):
    segment = (job_type, 0, 0, 1)
    with pytest.raises(InternalError, match=rf"^segment \({job_type}, 0, 0, "
                                            rf"1\) names no job type "
                                            rf"{job_type}$"):
        validate(two_machine_types(), 0, (1, 0), [segment])
