"""Acceptance suite: twelve numbered criteria, one test and one
printed PASS/FAIL line each.

Shared random data is generated once per session from fixed seeds so
every run checks the same instances.
"""

import functools
import itertools
import random
import time

import pytest

from conepack import geometry
from conepack.errors import InputError, ResourceError
from conepack.geometry import (Polytope, in_convex_hull, integer_hull_vertices,
                               lattice_points, parallelepiped_cover)
from conepack.ilp import ilp_feasible
from conepack.oracle import (bp_brute_force, cover_verify, fractional_opt,
                             tardy_exhaustive)
from conepack.rational import Rat, rat_ceil
from conepack.scheduling import (SchedulingInstance, build_edf_polytope,
                                 edf_simulate, nonpreemptive_completable,
                                 tardy_min_penalty)
from conepack.solver import BinPackingInstance, bin_packing
from conepack.structure import (compute_structure_set, normalize_combination,
                                reduce_support)

import genutil


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared instance pools


@functools.lru_cache(maxsize=None)
def criterion1_pool():
    """200 bin packing instances, d in 1..3, denominators <= 20, <= 10 items."""
    rng = random.Random(20260819)
    return tuple(
        (tuple(s), tuple(a)) for s, a in
        (genutil.rand_bp_instance(rng, max_dim=3, max_den=20, max_items=10)
         for _ in range(200)))


@functools.lru_cache(maxsize=None)
def criterion1_results():
    out = []
    for sizes, mult in criterion1_pool():
        sol = bin_packing(BinPackingInstance(sizes, mult))
        ref = bp_brute_force(sizes, mult)
        out.append((sizes, mult, sol.objective, ref))
    return out


def test_criterion_01_binpacking_matches_brute_force():
    t0 = time.perf_counter()
    results = criterion1_results()
    elapsed = time.perf_counter() - t0
    bad = [(s, a) for s, a, mine, ref in results if mine != ref]
    report(1, not bad and elapsed < 300,
           f"200 instances, {len(bad)} mismatches, {elapsed:.1f}s")


def test_criterion_02_two_type_roundup():
    rng = random.Random(20260202)
    bad = []
    for _ in range(100):
        sizes = [genutil.rand_size(rng, 20) for _ in range(2)]
        mult = [rng.randint(0, 6), rng.randint(0, 6)]
        if sum(mult) == 0:
            mult[0] = 1
        opt = bin_packing(BinPackingInstance(sizes, mult)).objective
        target = rat_ceil(fractional_opt(sizes, mult))
        if opt != target:
            bad.append((sizes, mult, opt, target))
    report(2, not bad, f"100 two-type instances, {len(bad)} above the "
                       "rounded fractional optimum")


@pytest.mark.parametrize("exponent", [12, 30])
@pytest.mark.parametrize("sizes", [(Rat(5, 6), Rat(1, 7)),
                                   (Rat(5, 7), Rat(2, 5))])
def test_criterion_02_two_type_roundup_at_paper_scale(sizes, exponent):
    """Criterion 2 with multiplicities in binary encoding, as in the paper."""
    mult = [10 ** exponent + 7, 3 * 10 ** exponent // 2 + 1]
    opt = bin_packing(BinPackingInstance(sizes, mult)).objective
    target = rat_ceil(fractional_opt(sizes, mult))
    report(2, opt == target, f"multiplicities ~10^{exponent}: "
                             f"{opt} bins against the rounded LP {target}")


def first_fit_decreasing(sizes, mult):
    items = []
    for s, k in zip(sizes, mult):
        items.extend([s] * k)
    items.sort(reverse=True)
    loads = []
    for it in items:
        for i, load in enumerate(loads):
            if load + it <= 1:
                loads[i] = load + it
                break
        else:
            loads.append(it)
    return len(loads)


def find_gap_witness(seed=0):
    """Seeded brute-force hunt for a three-type instance whose optimum
    beats the rounded LP bound.

    The family is unit-fraction sizes 1/c, c <= 12, with small demands.
    First-fit-decreasing matching the material bound rules an instance
    out without touching the LP, which makes the full family cheap.
    """
    combos = [(c1, c2, c3, a1, a2, a3)
              for c3 in range(4, 13)
              for c2 in range(3, c3)
              for c1 in range(2, c2)
              for a1 in range(1, min(c1, 4))
              for a2 in range(1, min(c2, 5))
              for a3 in range(1, min(c3, 7))]
    random.Random(seed).shuffle(combos)
    for c1, c2, c3, a1, a2, a3 in combos:
        sizes = (Rat(1, c1), Rat(1, c2), Rat(1, c3))
        mult = (a1, a2, a3)
        material = Rat(a1, c1) + Rat(a2, c2) + Rat(a3, c3)
        if first_fit_decreasing(sizes, mult) == rat_ceil(material):
            continue
        target = rat_ceil(fractional_opt(sizes, mult))
        opt = bp_brute_force(sizes, mult, cap=20)
        if opt == target + 1:
            return sizes, mult, target, opt
    return None


def test_criterion_03_three_type_gap_witness():
    found = find_gap_witness(seed=0)
    assert found is not None, "no gap instance in the search family"
    sizes, mult, target, brute = found
    solver = bin_packing(BinPackingInstance(sizes, mult)).objective
    joint = bin_packing(BinPackingInstance(sizes, mult),
                        mode="joint").objective
    ok = (len(sizes) == 3 and brute == target + 1
          and solver == brute and joint == brute)
    report(3, ok, f"sizes={tuple(str(s) for s in sizes)} demands={mult}: "
                  f"ceil(frac)={target}, brute={brute}, solver={solver}")


def test_criterion_04_cover_correctness(monkeypatch):
    monkeypatch.setattr(geometry, "DEFAULT_LATTICE_BUDGET", 8000)
    rng = random.Random(20260404)
    done = 0
    failures = []
    while done < 100:
        d = rng.randint(1, 3)
        m = rng.randint(d, 6)
        rows = [[rng.randint(-50, 50) for _ in range(d)] for _ in range(m)]
        rhs = [rng.randint(-50, 50) for _ in range(m)]
        try:
            poly = Polytope(rows, rhs)
            lattice_points(poly)
        except (InputError, ResourceError):
            continue
        cover = parallelepiped_cover(poly)
        rep = cover_verify(poly, cover)
        if not rep.ok:
            failures.append((rows, rhs, rep.violations[:2]))
        done += 1
    report(4, not failures, f"100 bounded polytopes, {len(failures)} bad "
                            "covers")


def test_criterion_05_support_reduction():
    rng = random.Random(20260505)
    bad = 0
    for _ in range(500):
        d = rng.randint(1, 3)
        n = rng.randint(1, 10)
        c = {tuple(rng.randint(0, 20) for _ in range(d)): rng.randint(1, 50)
             for _ in range(n)}
        out = reduce_support(c)
        hull = list(c)
        ok = (len(out) <= 2 ** d
              and genutil.weighted_sum(out) == genutil.weighted_sum(c)
              and sum(out.values()) == sum(c.values())
              and all(in_convex_hull(p, hull) for p in out))
        bad += not ok
    report(5, bad == 0, f"500 combinations, {bad} reduction failures")


@functools.lru_cache(maxsize=None)
def structure_fixtures():
    polys = [
        Polytope([[-1], [1]], [0, 6]),
        Polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 4]),
        Polytope([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 3, 3]),
        Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200]),
        Polytope([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
                 [0, 0, 0, 3]),
    ]
    return [(p, compute_structure_set(p), lattice_points(p)) for p in polys]


def test_criterion_06_normalized_combinations():
    rng = random.Random(20260606)
    fixtures = structure_fixtures()
    bad = 0
    for _ in range(200):
        poly, sset, pts = fixtures[rng.randrange(len(fixtures))]
        support = rng.sample(pts, min(len(pts), rng.randint(1, 6)))
        c = {p: rng.randint(1, 30) for p in support}
        out = normalize_combination(c, sset)
        cap = 2 ** (2 * poly.dim)
        xset = set(sset.special_points)
        on_x = [p for p in out if p in xset]
        off_x = [p for p in out if p not in xset]
        ok = (genutil.weighted_sum(out) == genutil.weighted_sum(c)
              and sum(out.values()) == sum(c.values())
              and all(out[p] == 1 for p in off_x)
              and len(on_x) <= cap and len(off_x) <= cap)
        bad += not ok
    report(6, bad == 0, f"200 normalizations, {bad} condition violations")


def test_criterion_07_ilp_against_enumeration():
    rng = random.Random(20260707)
    bad = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-10, 10) for _ in range(m)]
        box = [(rng.randint(-4, 0), rng.randint(0, 4)) for _ in range(n)]
        res = ilp_feasible(rows, rhs, lo=[a for a, _ in box],
                           hi=[b for _, b in box])
        ref = genutil.exhaustive_ilp(rows, rhs, box)
        ok = res.feasible == (ref is not None)
        if ok and res.feasible:
            x = res.witness
            ok = (all(sum(c * v for c, v in zip(row, x)) <= b
                      for row, b in zip(rows, rhs))
                  and all(a <= v <= b for v, (a, b) in zip(x, box)))
        bad += not ok
    report(7, bad == 0, f"500 integer programs, {bad} disagreements")


def rand_schedule_instance(rng, d_max=2, horizon=10):
    d = rng.randint(1, d_max)
    windows = []
    for _ in range(d):
        r = rng.randint(0, horizon - 1)
        dl = rng.randint(r + 1, horizon)
        p = rng.randint(1, dl - r)
        windows.append((r, dl, p))
    return SchedulingInstance([windows], [4] * d, costs=[1])


def test_criterion_08_edf_polytope_equals_simulator():
    rng = random.Random(20260808)
    bad = 0
    for _ in range(50):
        inst = rand_schedule_instance(rng)
        poly = build_edf_polytope(inst, 0)
        for x in itertools.product(range(5), repeat=inst.d):
            if poly.contains_int(x) != edf_simulate(x, inst, 0).feasible:
                bad += 1
    report(8, bad == 0, f"50 instances, full vector boxes, {bad} "
                        "membership mismatches")


def test_criterion_09_tight_window_fixture():
    inst = SchedulingInstance(
        [[(0, 300, 150), (100, 102, 1), (200, 202, 1)]], [2, 2, 2],
        costs=[1])
    two_long = nonpreemptive_completable((2, 0, 0), inst, 0) is not None
    two_pairs = nonpreemptive_completable((0, 2, 2), inst, 0) is not None
    mixed = nonpreemptive_completable((1, 1, 1), inst, 0) is not None
    report(9, two_long and two_pairs and not mixed,
           f"(2,0,0) completable={two_long}, (0,2,2) completable={two_pairs},"
           f" (1,1,1) completable={mixed}")


def test_criterion_10_knapsack_hull_fixture():
    # sizes 13/100 and 41/200, scaled to one integer row
    poly = Polytope([[26, 41], [-1, 0], [0, -1]], [200, 0, 0])
    pts = lattice_points(poly)
    verts = {tuple(int(c) for c in v) for v in integer_hull_vertices(poly)}
    expected = {(0, 0), (7, 0), (6, 1), (1, 4), (0, 4)}
    report(10, len(pts) == 25 and verts == expected,
           f"{len(pts)} lattice points, hull vertices {sorted(verts)}")


def test_criterion_11_solver_modes_agree():
    # Most configuration windows close, and their own cover answers, so
    # the modes are also compared on the probes at the optimum (found) and
    # one bin below it (Empty).
    mismatches, verdicts = [], []
    for sizes, mult, faithful_obj, _ref in criterion1_results():
        inst = BinPackingInstance(sizes, mult)
        joint = bin_packing(inst, mode="joint").objective
        if joint != faithful_obj:
            mismatches.append((sizes, mult, faithful_obj, joint))
        if genutil.mode_verdicts(inst, faithful_obj) \
                != [True, True, False, False]:
            verdicts.append((sizes, mult, faithful_obj))
    report(11, not mismatches and not verdicts,
           f"200 instances, {len(mismatches)} mode disagreements, "
           f"{len(verdicts)} probe verdict disagreements")


# criterion 12: the tardy variant against ``oracle.tardy_exhaustive``


def rand_tardy_instance(rng):
    d = rng.randint(1, 2)
    m = rng.randint(1, 2)
    windows = []
    for _ in range(m):
        per_machine = []
        for _ in range(d):
            r = rng.randint(0, 5)
            dl = rng.randint(r + 1, min(r + 4, 8))
            p = rng.randint(1, dl - r)
            per_machine.append((r, dl, p))
        windows.append(per_machine)
    total = rng.randint(1, 5)
    mult = [0] * d
    for _ in range(total):
        mult[rng.randrange(d)] += 1
    penalties = [rng.randint(1, 9) for _ in range(d)]
    counts = [rng.randint(1, 2) for _ in range(m)]
    return SchedulingInstance(windows, mult, counts=counts,
                              penalties=penalties)


def test_criterion_12_tardy_penalty_matches_exhaustive():
    rng = random.Random(20261212)
    bad = []
    for _ in range(30):
        inst = rand_tardy_instance(rng)
        mine = tardy_min_penalty(inst).objective
        ref = tardy_exhaustive(inst)
        if mine != ref:
            bad.append((inst.windows, inst.multiplicities, mine, ref))
    report(12, not bad, f"30 tiny instances, {len(bad)} penalty mismatches")
