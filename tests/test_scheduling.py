"""Scheduling: interval polytopes, EDF simulation, cycle polytopes,
assignment and tardy solvers, cross-checked against the brute oracles."""

import math
import random
import re
from collections import Counter

import pytest

from conepack import geometry, scheduling, solver
from conepack.budget import limit
from conepack.errors import (InfeasibleError, InputError, InternalError,
                             ResourceError)
from conepack.geometry import (Polytope, coordinate_bounds,
                               down_closed_polytope, integer_box,
                               lattice_points)
from conepack.oracle import (bp_brute_force, nonpreemptive_brute_counts,
                             tardy_exhaustive)
from conepack.rational import Rat
from conepack.solver import multi_polytope_select
from conepack.scheduling import (CycleLayout, SchedulingInstance,
                                 build_edf_polytope,
                                 build_nonpreemptive_polytope, edf_simulate,
                                 extract_cyclic_schedule,
                                 nonpreemptive_assign,
                                 nonpreemptive_completable, preemptive_assign,
                                 schedulable_vectors, tardy_min_penalty,
                                 validate_nonpreemptive_schedule,
                                 validate_preemptive_schedule)

FIXTURE = SchedulingInstance(
    [[(0, 300, 150), (100, 102, 1), (200, 202, 1)]], [2, 2, 2], costs=[1])


def rand_instance(rng, d_max=3, horizon=8, costs=True):
    d = rng.randint(1, d_max)
    windows = []
    for j in range(d):
        r = rng.randint(0, horizon - 1)
        dl = rng.randint(r + 1, horizon)
        p = rng.randint(1, max(1, dl - r))
        windows.append((r, dl, p))
    mult = [rng.randint(0, 3) for _ in range(d)]
    kw = {"costs": [1]} if costs else {}
    return SchedulingInstance([windows], mult, **kw)


def box_vectors(dims, cap):
    vecs = [()]
    for hi in dims:
        vecs = [v + (k,) for v in vecs for k in range(hi + 1)]
    return [v for v in vecs if sum(v) <= cap]


class TestEdfPolytope:
    def test_single_window_capacity(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [3], costs=[1])
        poly = build_edf_polytope(inst, 0)
        assert poly.contains_int((2,))
        assert not poly.contains_int((3,))

    def test_disjoint_windows(self):
        inst = SchedulingInstance([[(0, 1, 1), (1, 2, 1)]], [2, 2], costs=[1])
        poly = build_edf_polytope(inst, 0)
        assert poly.contains_int((1, 1))
        assert not poly.contains_int((2, 0))
        assert not poly.contains_int((0, 2))

    def test_empty_window_forces_zero(self):
        # release equals deadline, so even one copy overloads the point
        inst = SchedulingInstance([[(3, 3, 1)]], [1], costs=[1])
        poly = build_edf_polytope(inst, 0)
        assert poly.contains_int((0,))
        assert not poly.contains_int((1,))

    def test_matches_simulation_exhaustively(self):
        rng = random.Random(42)
        for _ in range(25):
            inst = rand_instance(rng)
            poly = build_edf_polytope(inst, 0)
            dims = [3] * inst.d
            for x in box_vectors(dims, 5):
                member = poly.contains_int(x)
                sim = edf_simulate(x, inst, 0)
                assert member == sim.feasible, (inst.windows, x)

    def test_clipped_polytope_knows_its_bounds(self):
        # the clipped part keeps each distinct non-zero interval-load row
        # once, in first-seen order, at its least width: at most 2^d - 1
        # rows, with the lattice of all the rows; lengths and interval
        # widths are non-negative, so the part is down-closed and its
        # builder's bounds are the LP's
        rng = random.Random(19061)
        dropped = 0
        for _ in range(40):
            inst = rand_instance(rng)
            box = [rng.randint(0, 4) for _ in range(inst.d)]
            loads = scheduling._interval_loads(inst, 0)
            widths = {}
            for (t1, t2), row in loads:
                if any(row):
                    widths.setdefault(tuple(row), []).append(t2 - t1)
            rows, rhs = scheduling._edf_rows(inst, 0)
            assert rows == list(widths)
            assert rhs == [min(w) for w in widths.values()]
            assert len(rows) <= 2 ** inst.d - 1
            dropped += len(loads) - len(rows)
            poly = down_closed_polytope(rows, rhs, box)
            every = down_closed_polytope(
                [row for _t, row in loads],
                [t2 - t1 for (t1, t2), _row in loads], box)
            assert lattice_points(poly) == lattice_points(every)
            assert poly._bounds == coordinate_bounds(Polytope(poly.A, poly.b))
        assert dropped > 100

    def test_clipped_polytope_solves_no_lp(self, monkeypatch):
        inst = SchedulingInstance([[(0, 4, 2), (1, 5, 1)]], [3, 2],
                                  costs=[1])

        def no_lp(*args, **kwargs):
            raise AssertionError("solved an LP for a clipped EDF polytope")

        monkeypatch.setattr(geometry, "ExactLp", no_lp)
        poly = down_closed_polytope(*scheduling._edf_rows(inst, 0), (3, 2))
        assert integer_box(poly) == [(0, 2), (0, 2)]


class TestEdfSimulate:
    def test_schedules_are_valid(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(25):
            inst = rand_instance(rng)
            for x in box_vectors([2] * inst.d, 4):
                sim = edf_simulate(x, inst, 0)
                if sim.feasible:
                    validate_preemptive_schedule(inst, 0, x, sim.schedule)
                    checked += 1
        assert checked > 30

    def test_violation_interval_is_overloaded(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(40):
            inst = rand_instance(rng)
            for x in box_vectors([3] * inst.d, 6):
                sim = edf_simulate(x, inst, 0)
                if sim.feasible:
                    continue
                t1, t2 = sim.violation
                load = sum(p * x[j]
                           for j, (r, dl, p) in enumerate(inst.windows[0])
                           if r >= t1 and dl <= t2)
                assert load > t2 - t1
                seen += 1
        assert seen > 20

    def test_preemption_happens(self):
        # short urgent job arrives while the long one is running
        inst = SchedulingInstance([[(0, 10, 5), (2, 4, 1)]], [1, 1], costs=[1])
        sim = edf_simulate((1, 1), inst, 0)
        assert sim.feasible
        long_segs = [s for s in sim.schedule if s[0] == 0]
        assert len(long_segs) == 2
        validate_preemptive_schedule(inst, 0, (1, 1), sim.schedule)

    def test_rejects_bad_vectors(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [1], costs=[1])
        with pytest.raises(InputError):
            edf_simulate((1, 1), inst, 0)
        with pytest.raises(InputError):
            edf_simulate((-1,), inst, 0)


class TestCyclePolytope:
    def test_layout_dimensions(self):
        lay = CycleLayout(3, 12)
        assert lay.dim == 3 + 1 + 12 + 12 * 4 + 12 * 3
        poly = build_nonpreemptive_polytope(FIXTURE, 0)
        assert poly.dim == lay.dim

    def test_polytope_is_the_free_program(self):
        # the program's rows, then -tau <= 0 and -y <= 0 per coordinate,
        # then z <= 1 and -z <= 0; x stays free
        rows, rhs, lo, hi = scheduling._cycle_program(FIXTURE, 0, 12)
        poly = build_nonpreemptive_polytope(FIXTURE, 0)
        assert poly.A[:len(rows)] == [tuple(r) for r in rows]
        assert poly.b[:len(rhs)] == tuple(rhs)
        assert len(poly.A) == len(rows) + 12 + 12 * 4 + 2 * 12 * 3
        assert lo[:4] == hi[:4] == [None] * 4

    def test_pinned_program_fixes_the_counts(self):
        # x and the idle time 300 - 150 - 1 are pinned, and no cycle
        # hosts the type with no copy
        x = (1, 1, 0)
        lay = CycleLayout(3, 5)
        _rows, _rhs, lo, hi = scheduling._cycle_program(FIXTURE, 0, 5, x)
        assert lo[:4] == hi[:4] == [1, 1, 0, 149]
        assert all(hi[lay.z(3, k)] == 0 for k in range(1, 6))
        assert all(hi[lay.y(0, k)] == 149 for k in range(1, 6))
        assert all(hi[lay.tau(k)] == 300 for k in range(1, 6))

    def test_fixture_completability(self):
        assert nonpreemptive_completable((2, 0, 0), FIXTURE, 0) is not None
        assert nonpreemptive_completable((0, 2, 2), FIXTURE, 0) is not None
        assert nonpreemptive_completable((1, 1, 1), FIXTURE, 0) is None

    def test_extracted_schedule_validates(self):
        for x in [(2, 0, 0), (0, 2, 2), (1, 0, 1)]:
            aux = nonpreemptive_completable(x, FIXTURE, 0)
            assert aux is not None
            sched = extract_cyclic_schedule(aux, FIXTURE, 0)
            validate_nonpreemptive_schedule(FIXTURE, 0, x, sched)

    def test_overfull_horizon_rejected(self):
        inst = SchedulingInstance([[(0, 4, 3)]], [2], costs=[1])
        assert nonpreemptive_completable((2,), inst, 0) is None
        assert nonpreemptive_completable((1,), inst, 0) is not None

    def test_matches_brute_force(self):
        rng = random.Random(5)
        agree = 0
        for _ in range(12):
            inst = rand_instance(rng, d_max=2, horizon=8)
            for x in box_vectors([2] * inst.d, 4):
                aux = nonpreemptive_completable(x, inst, 0)
                brute = nonpreemptive_brute_counts(x, inst, 0)
                assert (aux is not None) == (brute is not None), \
                    (inst.windows, x)
                agree += 1
        assert agree > 40

    def test_certificates_keep_their_layout(self):
        # each certificate has the C = min(4d, 2 * sum(x) + 1) cycles it
        # was solved with, lies in that layout's cycle polytope (the cycle
        # program without x), and yields a valid schedule
        rng = random.Random(25)
        checked = capped = 0
        for _ in range(16):
            inst = rand_instance(rng, d_max=2, horizon=8)
            d = inst.d
            for x in box_vectors([2] * d, 4):
                aux = nonpreemptive_completable(x, inst, 0)
                if aux is None:
                    continue
                cycles = min(4 * d, 2 * sum(x) + 1)
                capped += cycles == 4 * d
                assert len(aux) == d + 1 + cycles * (2 * d + 2)
                assert geometry.bounded_polytope(*scheduling._cycle_program(
                    inst, 0, cycles)).contains_int(aux)
                sched = extract_cyclic_schedule(aux, inst, 0)
                validate_nonpreemptive_schedule(inst, 0, x, sched)
                checked += 1
        assert checked > 40 and capped > 0  # both sides of the min

    @pytest.mark.parametrize("length", [0, 4, 5, 11, 13, 101])
    def test_extraction_rejects_a_length_that_fits_no_layout(self, length):
        # d = 3: the layouts have 4 + 8C coordinates for C >= 1
        with pytest.raises(InputError, match="fits no cycle layout"):
            extract_cyclic_schedule((0,) * length, FIXTURE, 0)

    @pytest.mark.parametrize("schedule,message", [
        (((0, 0, 0, 2), (0, 0, 2, 4)), r"^job 0#0 not fully processed$"),
        (((0, 5, 0, 2), (0, 7, 2, 4)), r"^job 0#0 not fully processed$"),
        (((0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 2, 4)), r"^job 0#0 is preempted$"),
        (((0, 0, 0, 2), (0, 1, 1, 3)), r"^machine runs two jobs at once$"),
        (((0, 0, 0, 2), (0, 1, 5, 7)), r"^segment of job 0#1 escapes its "
                                       r"window$"),
    ], ids=["one-copy-twice", "copies-5-and-7", "split-copy", "overlap",
            "late"])
    def test_validation_reads_the_copies(self, schedule, message):
        # x = (2,) of a length-2 job in [0, 6): copies 0 and 1, one
        # segment each
        inst = SchedulingInstance([[(0, 6, 2)]], [2], costs=[1])
        validate_nonpreemptive_schedule(inst, 0, (2,),
                                        ((0, 0, 0, 2), (0, 1, 2, 4)))
        with pytest.raises(InternalError, match=message):
            validate_nonpreemptive_schedule(inst, 0, (2,), schedule)

    @pytest.mark.parametrize("segment", [(0, 0, 0), (0, 0, 0, 2, 9), 7],
                             ids=["three-entries", "five-entries", "scalar"])
    @pytest.mark.parametrize("validate", [validate_preemptive_schedule,
                                          validate_nonpreemptive_schedule],
                             ids=["preemptive", "nonpreemptive"])
    def test_a_segment_of_the_wrong_shape_is_refused(self, validate,
                                                     segment):
        inst = SchedulingInstance([[(0, 6, 2)]], [2], costs=[1])
        schedule = ((0, 0, 0, 2), segment)
        with pytest.raises(InternalError, match=re.escape(
                f"segment {segment!r} is not (job type, copy, start, end)")):
            validate(inst, 0, (2,), schedule)

    def test_downward_closure(self):
        vecs = schedulable_vectors(FIXTURE, 0, (1, 1, 1))
        for x in vecs:
            for j in range(3):
                if x[j] > 0:
                    smaller = x[:j] + (x[j] - 1,) + x[j + 1:]
                    assert smaller in vecs

    def test_a_box_with_a_negative_side_holds_no_vector(self):
        assert schedulable_vectors(FIXTURE, 0, (1, -1, 1)) == {}


class TestPreemptiveAssign:
    def test_splits_demand_over_machines(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [4], costs=[3])
        sol = preemptive_assign(inst)
        assert sol.objective == 6
        assert sorted(m[1] for m in sol.machines) == [(2,), (2,)]

    def test_prefers_cheaper_capable_machine(self):
        inst = SchedulingInstance([[(0, 4, 1)], [(0, 1, 1)]], [4],
                                  costs=[3, 1])
        sol = preemptive_assign(inst)
        assert sol.objective == 3
        assert [m[0] for m in sol.machines] == [0]

    def test_zero_demand(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [0], costs=[1])
        sol = preemptive_assign(inst)
        assert sol.objective == 0 and sol.machines == ()

    def test_unhostable_job(self):
        # job type 1 outlasts its window on the one machine type
        inst = SchedulingInstance([[(0, 2, 1), (0, 2, 5)]], [1, 1],
                                  costs=[1])
        with pytest.raises(InfeasibleError, match="type 1 fits no machine"):
            preemptive_assign(inst)

    def test_search_starts_from_the_configuration_window(self, monkeypatch):
        probes = []

        def counting(parts, target, budget, **kwargs):
            probes.append(budget)
            return multi_polytope_select(parts, target, budget, **kwargs)

        monkeypatch.setattr(solver, "multi_polytope_select", counting)
        inst = SchedulingInstance([[(0, 4, 2), (1, 4, 1)],
                                   [(0, 6, 3), (0, 6, 1)]], [40, 40],
                                  costs=[2, 3], variant="preemptive")
        assert preemptive_assign(inst).objective == 60
        # the window is closed at 60, and its own cover answers there
        assert probes == []

    @pytest.mark.parametrize("big", [10 ** 6, 10 ** 30])
    def test_large_machine_costs(self, big):
        # two cheap machines of type 1 beat one dear machine of type 0 plus
        # one of type 1, and the dear type alone needs two machines
        inst = SchedulingInstance([[(0, 4, 1), (0, 4, 2)],
                                   [(0, 2, 1), (0, 2, 1)]], [2, 2],
                                  costs=[big, big // 2 + 1],
                                  variant="preemptive")
        with limit(20_000):
            sol = preemptive_assign(inst)
        assert sol.objective == 2 * (big // 2 + 1)
        assert [m[:2] for m in sol.machines] == [(1, (1, 1)), (1, (1, 1))]

    def test_bin_packing_embedding(self):
        # items of size s_j become jobs with window [0, B] and length
        # s_j * B; machines of unit cost are bins
        cases = [
            ((Rat(1, 2), Rat(1, 3)), (3, 2)),
            ((Rat(2, 3), Rat(1, 3)), (2, 2)),
            ((Rat(1, 4), Rat(1, 2), Rat(3, 4)), (2, 1, 1)),
        ]
        for sizes, mult in cases:
            scale = 1
            for s in sizes:
                scale = scale * s.denominator // _gcd(scale, s.denominator)
            windows = [(0, scale, int(s * scale)) for s in sizes]
            inst = SchedulingInstance([windows], mult, costs=[1])
            sol = preemptive_assign(inst)
            assert sol.objective == bp_brute_force(sizes, mult)

    def test_demand_met_exactly(self):
        rng = random.Random(3)
        for _ in range(8):
            inst = rand_instance(rng, d_max=2, horizon=6)
            mult = list(inst.multiplicities)
            if all(v == 0 for v in mult):
                continue
            try:
                sol = preemptive_assign(inst)
            except InfeasibleError:
                continue
            placed = [0] * inst.d
            for _i, vec, sched in sol.machines:
                validate_preemptive_schedule(inst, 0, vec, sched)
                for j in range(inst.d):
                    placed[j] += vec[j]
            assert tuple(placed) == inst.multiplicities


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestNonpreemptiveAssign:
    def test_fixture_needs_two_machines(self):
        inst = SchedulingInstance(
            [[(0, 300, 150), (100, 102, 1), (200, 202, 1)]], [1, 1, 1],
            costs=[1])
        sol = nonpreemptive_assign(inst)
        assert sol.objective == 2
        placed = [0] * 3
        for _i, vec, sched in sol.machines:
            validate_nonpreemptive_schedule(inst, 0, vec, sched)
            for j in range(3):
                placed[j] += vec[j]
        assert placed == [1, 1, 1]

    def test_preemption_gap(self):
        # [1,3] is walled off by the tight job; the length-2 job then has
        # no contiguous slot on the same machine, though EDF interleaves
        inst = SchedulingInstance([[(0, 4, 2), (1, 3, 2)]], [1, 1],
                                  costs=[1])
        assert preemptive_assign(inst).objective == 1
        assert nonpreemptive_assign(inst).objective == 2

    def test_matches_preemptive_when_windows_are_loose(self):
        inst = SchedulingInstance([[(0, 6, 2), (0, 6, 3)]], [1, 1], costs=[2])
        assert nonpreemptive_assign(inst).objective == 2
        assert preemptive_assign(inst).objective == 2

    def test_zero_demand(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [0], costs=[1])
        assert nonpreemptive_assign(inst).machines == ()

    def test_unhostable_job(self):
        # job type 1 outlasts its window on the one machine type
        inst = SchedulingInstance([[(0, 2, 1), (0, 2, 5)]], [1, 1],
                                  costs=[1], variant="nonpreemptive")
        with pytest.raises(InfeasibleError, match="type 1 fits no machine"):
            nonpreemptive_assign(inst)

    def test_objective_must_match_the_search(self, monkeypatch):
        inner = solver.least_feasible

        def drifting(*args):
            best, opt = inner(*args)
            return best, opt - 1

        monkeypatch.setattr(solver, "least_feasible", drifting)
        inst = SchedulingInstance([[(0, 6, 2), (0, 6, 3)]], [1, 1], costs=[2])
        with pytest.raises(InternalError, match="objective drifted"):
            nonpreemptive_assign(inst)

    # open configuration windows from a seeded search (d = 2-3, m = 1-2,
    # multiplicities 1-3): (windows, demand, costs, optimum, probes).  The
    # group at the window's basis decides the first, second and last, so
    # their solves run no probe; the probes themselves are driven below
    OPEN_WINDOWS = [
        ([[(0, 1, 1), (3, 4, 1), (1, 4, 3)],
          [(3, 5, 1), (0, 4, 3), (2, 5, 2)]], (3, 1, 3), (3, 2), 8, 0),
        ([[(2, 3, 1), (3, 6, 3), (2, 6, 1)],
          [(1, 6, 4), (1, 3, 2), (1, 6, 2)]], (2, 3, 3), (3, 2), 10, 0),
        ([[(1, 5, 3), (3, 4, 1), (0, 6, 2)],
          [(0, 3, 1), (1, 4, 1), (0, 1, 1)]], (3, 1, 1), (2, 3), 5, 2),
        ([[(2, 4, 2), (1, 5, 2), (2, 5, 1)]], (2, 3, 3), (3,), 12, 1),
        ([[(1, 6, 1), (1, 6, 5)], [(4, 5, 1), (2, 6, 1)]], (3, 2), (3, 2), 5,
         0),
    ]

    @pytest.mark.parametrize("windows,a,costs,optimum,probes", OPEN_WINDOWS,
                             ids=["d3-m2-8", "d3-m2-10", "d3-m2-5", "d3-m1-12",
                                  "d2-m2-5"])
    def test_open_windows_probe_to_the_brute_force_optimum(
            self, monkeypatch, windows, a, costs, optimum, probes):
        inst = SchedulingInstance(windows, a, costs=costs,
                                  variant="nonpreemptive")
        calls = []
        select = scheduling.select_from_generators

        def counted(*args):
            calls.append(args)
            return select(*args)

        monkeypatch.setattr(scheduling, "select_from_generators", counted)
        sol = nonpreemptive_assign(inst)
        assert len(calls) == probes
        assert sol.objective == optimum == brute_assignment_cost(inst)
        # the probe as the search asks it, at the optimum and one step of
        # the costs' gcd below it
        parts = [(sorted(schedulable_vectors(inst, i, a)), c)
                 for i, c in enumerate(costs)]
        target = geometry.box_polytope(a, a)
        step = math.gcd(*costs)
        assert [select(parts, target, b).found
                for b in (optimum, optimum - step)] == [True, False]


def brute_assignment_cost(inst):
    """The cheapest machine multiset covering the demand exactly, by
    dynamic programming over the remaining demand; each machine type's
    vectors are the non-zero ones ``nonpreemptive_brute_counts`` schedules
    (those whose work exceeds the last deadline are skipped unread)."""
    a = inst.multiplicities
    vectors = []
    for i, windows in enumerate(inst.windows):
        horizon = max(dl for _r, dl, _p in windows)
        vectors.append([
            x for x in box_vectors(a, sum(a)) if any(x)
            and sum(p * c for (_r, _dl, p), c in zip(windows, x)) <= horizon
            and nonpreemptive_brute_counts(x, inst, i) is not None])
    best = {(0,) * len(a): 0}

    def cost(rest):
        if rest not in best:
            best[rest] = min(
                (c + cost(tuple(r - v for r, v in zip(rest, x)))
                 for c, xs in zip(inst.costs, vectors) for x in xs
                 if all(v <= r for v, r in zip(x, rest))),
                default=float("inf"))
        return best[rest]

    return cost(tuple(a))


class TestTardy:
    def test_everything_fits(self):
        inst = SchedulingInstance([[(0, 2, 1)]], [2], counts=[1],
                                  penalties=[5])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 0
        assert sol.scheduled == (2,)

    def test_drops_cheapest_copy(self):
        inst = SchedulingInstance([[(0, 1, 1)]], [2], counts=[1],
                                  penalties=[5])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 5
        assert sol.scheduled == (1,)

    def test_no_machines_pays_everything(self):
        inst = SchedulingInstance([[(0, 5, 1)]], [3], counts=[0],
                                  penalties=[2])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 6
        assert sol.machines == ()

    def test_penalties_steer_the_choice(self):
        # one slot, two candidate job types: keep the expensive one
        inst = SchedulingInstance([[(0, 1, 1), (0, 1, 1)]], [1, 1],
                                  counts=[1], penalties=[10, 1])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 1
        assert sol.scheduled == (1, 0)

    def test_machine_counts_are_exact(self):
        inst = SchedulingInstance([[(0, 4, 1)]], [2], counts=[3],
                                  penalties=[1])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 0
        assert len(sol.machines) == 3
        idle = [m for m in sol.machines if m[1] == (0,)]
        assert len(idle) >= 1

    def test_two_machine_types(self):
        # type 0 machines only see an empty window for job 1
        inst = SchedulingInstance(
            [[(0, 2, 1), (0, 0, 1)], [(0, 2, 1), (0, 2, 1)]],
            [1, 1], counts=[1, 1], penalties=[3, 4])
        sol = tardy_min_penalty(inst)
        assert sol.objective == 0
        assert sol.scheduled == (1, 1)


def _recovered(m, window):
    """Whether a tardy window's cover drops more copies of some job type
    than its rounded basic weights do.  Only the re-cover of a machine
    copy trimmed in its marker adds drops, so this may miss a re-cover
    but never counts one that did not run."""
    _lo, _hi, cover, basis = window
    drops = Counter()
    for k, row in zip(basis.basis, basis.tableau):
        i, _p = basis.columns[k]
        if i >= m:
            drops[i] += row[-1] // -basis.det  # minus the rounded weight
    for i, _p, n in cover:
        if i >= m:
            drops[i] += n
    return any(v > 0 for v in drops.values())


def item_2_instance(t):
    """One machine type with windows (0, 4, 2) and (1, 5, 1), t and 2t
    copies, t machines and penalties (2, 3): every copy fits, so the
    optimum is 0 at every t."""
    return SchedulingInstance([[(0, 4, 2), (1, 5, 1)]], [t, 2 * t],
                              counts=[t], penalties=[2, 3])


def rand_tardy(rng):
    """A small tardy instance whose machine counts, multiplicities and
    penalties may each be zero."""
    d, m = rng.randint(1, 3), rng.randint(1, 2)
    windows = []
    for _ in range(m):
        per_machine = []
        for _ in range(d):
            r = rng.randint(0, 5)
            dl = rng.randint(r + 1, min(r + 4, 8))
            per_machine.append((r, dl, rng.randint(1, dl - r)))
        windows.append(per_machine)
    return SchedulingInstance(
        windows, [rng.randint(0, 2) for _ in range(d)],
        counts=[rng.randint(0, 3) for _ in range(m)],
        penalties=[rng.randint(0, 6) for _ in range(d)])


class TestTardyCover:
    """The tardy objective is one ``cheapest_cover`` of the demand and the
    machine counts."""

    def test_a_million_machines_drop_nothing(self):
        t = 10 ** 6
        inst = item_2_instance(t)
        with limit(20000):
            sol = tardy_min_penalty(inst)
        assert sol.objective == 0 and sol.scheduled == (t, 2 * t)
        assert len(sol.machines) == t
        placed = [0, 0]
        for (i, vec, schedule), copies in Counter(sol.machines).items():
            validate_nonpreemptive_schedule(inst, i, vec, schedule)
            placed = [v + copies * x for v, x in zip(placed, vec)]
        assert placed == [t, 2 * t]

    @pytest.mark.parametrize("t", [10 ** 12, 10 ** 30], ids=["1e12", "1e30"])
    def test_the_machine_list_stops_the_answer(self, t):
        # the search finishes; only the list of t machines is too long
        with pytest.raises(ResourceError) as exc, limit(20000):
            tardy_min_penalty(item_2_instance(t))
        assert exc.value.budget_name == "machine list"

    # open tardy windows from a seeded search: (windows, demand, counts,
    # penalties, optimum).  The window re-covers a machine copy trimmed in
    # its marker in the first two; the group decides the first and the
    # last, and the second's group path is no cover, so it probes
    OPEN_WINDOWS = [
        ([[(0, 4, 4), (0, 2, 1), (2, 4, 1)]], (2, 3, 1), (3,), (3, 4, 2), 3),
        ([[(5, 7, 2), (5, 7, 1), (1, 5, 4)],
          [(1, 2, 1), (1, 4, 2), (2, 6, 2)]], (2, 2, 2), (1, 1), (1, 3, 5), 1),
        ([[(2, 4, 1), (2, 5, 3)]], (3, 2), (3,), (5, 3), 3),
    ]

    @pytest.mark.parametrize("group", [True, False], ids=["group", "probes"])
    def test_seeded_instances_match_brute_force(self, monkeypatch, group):
        # without the group every open window is bisected by probes
        if not group:
            monkeypatch.setattr(solver, "GROUP_STATE_CAP", 0)
        windows, probes = [], []
        window = solver.configuration_window
        select = scheduling.select_from_generators

        def recording(parts, a):
            windows.append(window(parts, a))
            return windows[-1]

        def counted(*args):
            probes.append(args)
            return select(*args)

        monkeypatch.setattr(solver, "configuration_window", recording)
        monkeypatch.setattr(scheduling, "select_from_generators", counted)
        rng = random.Random(4343)
        instances = [SchedulingInstance(w, a, counts=c, penalties=p)
                     for w, a, c, p, _opt in self.OPEN_WINDOWS]
        instances += [rand_tardy(rng) for _ in range(50)]
        objectives, opened, recovered = [], 0, 0
        for inst in instances:
            objectives.append(tardy_min_penalty(inst).objective)
            lo, hi = windows[-1][:2]
            opened += lo < hi
            recovered += _recovered(inst.m, windows[-1])
        assert objectives == [tardy_exhaustive(inst) for inst in instances]
        assert objectives[:3] == [opt for *_inst, opt in self.OPEN_WINDOWS]
        assert opened >= 3 and recovered >= 2
        if group:
            assert 0 < len(probes) < opened
        else:
            assert len(probes) >= opened


class TestSchedulableVectors:
    def test_only_edf_feasible_vectors_are_tried(self, monkeypatch):
        tried = []

        def recording(x, inst, i):
            tried.append((x, inst, i))
            return nonpreemptive_completable(x, inst, i)

        monkeypatch.setattr(scheduling, "nonpreemptive_completable",
                            recording)
        # (1, 2) and (2, 1) overload [0, 5], yet each of their subsets fits
        windows = [[(0, 4, 2), (1, 5, 2)]]
        nonpreemptive_assign(SchedulingInstance(windows, [2, 2], costs=[1]))
        tardy_min_penalty(SchedulingInstance(windows, [2, 2], counts=[1],
                                             penalties=[1, 2]))
        assert tried
        for x, inst, i in tried:
            assert build_edf_polytope(inst, i).contains_int(x)

    def test_a_million_copies(self):
        # a machine runs at most 12 units of work in [0, 12], and four
        # copies of each type fill it exactly
        inst = SchedulingInstance([[(0, 12, 1), (0, 12, 2)]],
                                  [10 ** 6, 10 ** 6], costs=[1])
        sol = nonpreemptive_assign(inst)
        assert sol.objective == 250_000
        assert len(sol.machines) == 250_000
        placed = [0, 0]
        for _i, vec, _schedule in sol.machines:
            placed[0] += vec[0]
            placed[1] += vec[1]
        assert placed == [10 ** 6, 10 ** 6]
        # two machines fit one copy of type 0 and two of type 1 each; the
        # rest is dropped at 5 and 1 a copy
        inst = SchedulingInstance([[(4, 5, 1), (0, 2, 1)]],
                                  [10 ** 6, 2 * 10 ** 6], counts=[2],
                                  penalties=[5, 1])
        sol = tardy_min_penalty(inst)
        assert sol.scheduled == (2, 4)
        assert sol.objective == (10 ** 6 - 2) * 5 + (2 * 10 ** 6 - 4)

    def test_too_many_copies_is_a_resource_error(self):
        # a machine runs at most 5 units of work in [0, 5], so the demand's
        # 4 * 10^30 units need 8 * 10^29 machines: far past the list's cap
        inst = SchedulingInstance([[(0, 4, 2), (1, 5, 1)]],
                                  [10 ** 30, 2 * 10 ** 30], costs=[3])
        with pytest.raises(ResourceError) as exc:
            preemptive_assign(inst)
        assert exc.value.budget_name == "machine list"
        assert exc.value.limit == scheduling.MACHINE_COPY_CAP


class TestTextFormat:
    def test_instance_validation(self):
        with pytest.raises(InputError):
            SchedulingInstance([[(2, 1, 1)]], [1], costs=[1])  # d < r
        with pytest.raises(InputError):
            SchedulingInstance([[(0, 2, 0)]], [1], costs=[1])  # p < 1
        with pytest.raises(InputError):
            SchedulingInstance([[(0, 2, 1)]], [1], costs=[0])
        with pytest.raises(InputError):
            SchedulingInstance([[(0, 2, 1)]], [1], counts=[1])
        with pytest.raises(InputError):
            SchedulingInstance([[(0, 2, 1)]], [-1], costs=[1])
        with pytest.raises(InputError):
            SchedulingInstance([[(0, 2)]], [1], costs=[1])  # no length

    @pytest.mark.parametrize("field", ["window", "multiplicity", "cost",
                                       "count", "penalty"])
    @pytest.mark.parametrize("value", [2.7, Rat(5, 2)])
    def test_non_integral_data_rejected(self, field, value):
        data = {"window": 4, "multiplicity": 2, "cost": 1, "count": 1,
                "penalty": 3}
        data[field] = value
        if field in ("count", "penalty"):
            objective = {"counts": [data["count"]],
                         "penalties": [data["penalty"]]}
        else:
            objective = {"costs": [data["cost"]], "variant": "preemptive"}
        with pytest.raises(InputError):
            SchedulingInstance([[(0, data["window"], 2)]],
                               [data["multiplicity"]], **objective)

    def test_integral_rationals_accepted(self):
        inst = SchedulingInstance([[(Rat(0), Rat(4), Rat(2))]], [Rat(2)],
                                  costs=[Rat(3)], variant="preemptive")
        assert inst.windows == (((0, 4, 2),),)
        assert inst.multiplicities == (2,) and inst.costs == (3,)
        assert preemptive_assign(inst).objective == 3
