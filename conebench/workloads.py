"""Seeded instance families, the solve call for each, and the correctness gate.

Every instance is produced as instance-file text (the format ``conepack
solve`` reads), so the timed path starts where the command line starts:
``cli.parse_instance_text`` followed by the solver entry point that
``conepack solve`` (or ``cover``/``hull``) would call.

Families, and why each exists (see README.md for the predictions):

* ``binpack``  - the paper's headline problem; faithful-search prefilter
  LPs and ILP bound derivation dominate.
* ``stock``    - cutting stock alternating with preemptive EDF assignment;
  the only path through ``multi_polytope_select`` (lifted polytope, lattice
  and cover rebuilt on every probe).
* ``sched-np`` - non-preemptive assignment and tardy penalty; many tiny
  fixed-count ILPs, no cover, no normalization, no faithful search.
* ``cover``    - structure sets and integer hulls of 3-d polytopes; the
  only family where geometry and structure do most of the work.
"""

from __future__ import annotations

import random
from functools import lru_cache

import conepack
from conepack import cli, geometry, oracle, scheduling, solver, structure
from conepack.rational import Rat, rat_ceil


# ---------------------------------------------------------------------------
# instance families
#
# A workload is a fixed catalogue of instances drawn once from its family
# (CATALOGUE_SEED); the run seed shuffles the order the closed loop visits
# them in.  Solve times inside one family spread over two orders of
# magnitude, so a fresh draw per run would move every end-to-end metric by
# tens of percent from seed to seed.  The seed does not rename an
# instance's types either: the simplex pivots and branching order follow
# the labels, and a renamed instance's solve time moves by up to 2x.  The
# catalogue's own labels are random, so the instances cover many
# labellings.

CATALOGUE_SEED = 1


def _frac(rng, max_den=10):
    den = rng.randint(2, max_den)
    return (rng.randint(1, den - 1), den)


def _binpack(rng, d):
    return ("binpacking", [(_frac(rng), rng.randint(1, 5)) for _ in range(d)])


def _cuttingstock(rng):
    items = [(_frac(rng), rng.randint(1, 3)) for _ in range(2)]
    # the first bin type holds every item, so no instance is infeasible
    bins = [((1, 1), rng.randint(1, 3)), (_frac(rng), rng.randint(1, 2))]
    return ("cuttingstock", items, bins)


def _scheduling(rng, variant, horizon=8):
    d, m = 2, rng.randint(1, 2)
    windows = []
    for _i in range(m):
        row = []
        for _j in range(d):
            r = rng.randint(0, horizon - 2)
            dl = rng.randint(r + 1, horizon)
            row.append((r, dl, rng.randint(1, dl - r)))
        windows.append(row)
    mult = [rng.randint(1, 2) for _ in range(d)]
    if variant == "tardy":
        per_machine = [rng.randint(1, 2) for _ in range(m)]
        per_job = [rng.randint(1, 5) for _ in range(d)]
    else:
        per_machine = [rng.randint(1, 4) for _ in range(m)]
        per_job = None
    return ("scheduling", variant, windows, mult, per_machine, per_job)


def _polytope(rng, lo_points=45, hi_points=583):
    """A 3-d box cut by one to three random halfspaces.

    Resampled until the lattice point count lies in the stated range, a
    property of the input, not of how long it takes to solve.
    """
    while True:
        box = [rng.randint(3, 9) for _ in range(3)]
        cuts = []
        for _ in range(rng.randint(1, 3)):
            row = [rng.randint(-6, 6) for _ in range(3)]
            if any(row):
                cuts.append((row, rng.randint(5, 40)))
        poly = geometry.Polytope(*_polytope_rows(box, cuts))
        if lo_points <= len(geometry.lattice_points(poly)) <= hi_points:
            return ("polytope", box, cuts)


def _polytope_rows(box, cuts):
    rows, rhs = [], []
    for j, hi in enumerate(box):
        unit = [0, 0, 0]
        unit[j] = 1
        rows += [list(unit), [-v for v in unit]]
        rhs += [hi, 0]
    for row, b in cuts:
        rows.append(list(row))
        rhs.append(b)
    return rows, rhs


def catalogue(workload: str, count: int) -> list:
    """The first ``count`` instance descriptions of the workload."""
    rng = random.Random(f"{workload}:{CATALOGUE_SEED}")
    out = []
    for k in range(count):
        if workload == "binpack":
            # one third two item types, two thirds three
            out.append(_binpack(rng, 2 if k % 3 == 0 else 3))
        elif workload == "stock":
            out.append(_cuttingstock(rng) if k % 2 == 0
                       else _scheduling(rng, "preemptive"))
        elif workload == "sched-np":
            out.append(_scheduling(rng, "nonpreemptive" if k % 2 == 0
                                   else "tardy"))
        elif workload == "cover":
            out.append(_polytope(rng))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


def render(desc) -> str:
    """Instance-file text of a description."""
    kind = desc[0]
    lines = [kind]
    if kind in ("binpacking", "cuttingstock"):
        lines.append(str(len(desc[1])))
        lines += [f"{p}/{q} {m}" for (p, q), m in desc[1]]
        if kind == "cuttingstock":
            lines.append(str(len(desc[2])))
            lines += [f"{p}/{q} {c}" for (p, q), c in desc[2]]
    elif kind == "scheduling":
        _k, variant, windows, mult, per_machine, per_job = desc
        lines.append(f"{len(mult)} {len(windows)} {variant}")
        lines += [f"{i} {j} {r} {dl} {p}" for i, row in enumerate(windows)
                  for j, (r, dl, p) in enumerate(row)]
        lines.append(" ".join(map(str, mult)))
        lines.append(" ".join(map(str, per_machine)))
        if per_job is not None:
            lines.append(" ".join(map(str, per_job)))
    else:
        rows, rhs = _polytope_rows(desc[1], desc[2])
        lines.append(f"{len(rows)} 3")
        lines += [" ".join(map(str, row + [b])) for row, b in zip(rows, rhs)]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, count: int) -> list:
    """Instance texts of the first ``count`` catalogue entries, in an order
    shuffled by ``seed``."""
    rng = random.Random(f"{workload}:run:{seed}")
    texts = [render(desc) for desc in catalogue(workload, count)]
    rng.shuffle(texts)
    return texts


# Small fixed instances solved once during set-up, before timing.
WARMUP = {
    "binpack": ["binpacking\n2\n1/2 2\n1/3 3\n"],
    "stock": ["cuttingstock\n1\n1/2 2\n2\n1 2\n1/2 1\n",
              "scheduling\n2 1 preemptive\n0 0 0 4 2\n0 1 1 5 1\n1 2\n3\n"],
    "sched-np": [
        "scheduling\n2 1 nonpreemptive\n0 0 0 4 2\n0 1 1 5 1\n1 1\n3\n",
        "scheduling\n2 1 tardy\n0 0 0 4 2\n0 1 1 5 1\n1 1\n1\n2 3\n"],
    "cover": ["polytope\n7 3\n1 0 0 4\n-1 0 0 0\n0 1 0 4\n0 -1 0 0\n"
              "0 0 1 4\n0 0 -1 0\n1 1 1 6\n"],
}


# ---------------------------------------------------------------------------
# the timed request: text in, answer out


def solve_text(text: str):
    """Parse and solve one instance the way the command line does.

    Module attributes are looked up at call time so that a tracer that
    patches them sees every call.
    """
    kind, inst = cli.parse_instance_text(text)
    if kind == "binpacking":
        return kind, inst, solver.bin_packing(inst, mode="faithful")
    if kind == "cuttingstock":
        return kind, inst, solver.cutting_stock(inst, mode="faithful")
    if kind == "scheduling":
        if inst.variant == "nonpreemptive":
            return kind, inst, scheduling.nonpreemptive_assign(inst)
        if inst.variant == "tardy":
            return kind, inst, scheduling.tardy_min_penalty(inst)
        return kind, inst, scheduling.preemptive_assign(inst, mode="faithful")
    sset = structure.compute_structure_set(inst)
    hull = geometry.integer_hull_vertices(inst)
    return kind, inst, (sset, hull)


# ---------------------------------------------------------------------------
# correctness gate (run outside the timed region)


class WrongAnswer(Exception):
    """The answer failed an exact check."""


def _require(ok, what):
    if not ok:
        raise WrongAnswer(what)


def _exact_cover_cost(demand, options):
    """Cheapest multiset of (vector, cost) options summing exactly to demand.

    Every option is a capability of one bin or machine; a sub-vector of a
    capability is a capability too, which the callers guarantee by listing
    every feasible vector inside the demand box.
    """
    options = [(tuple(v), c) for v, c in options if any(v)]

    @lru_cache(maxsize=None)
    def best(res):
        if not any(res):
            return 0
        cands = [c + best(tuple(r - x for r, x in zip(res, v)))
                 for v, c in options if all(x <= r for x, r in zip(v, res))]
        return min(cands) if cands else float("inf")

    return best(tuple(demand))


def _box(hi):
    vecs = [()]
    for h in hi:
        vecs = [v + (k,) for v in vecs for k in range(h + 1)]
    return vecs


def _fits(sizes, vec, cap):
    return sum(s * v for s, v in zip(sizes, vec)) <= cap


def _check_binpacking(inst, sol):
    solver.verify_solution(inst, sol)
    brute = oracle.bp_brute_force(inst.sizes, inst.multiplicities,
                                  cap=sum(inst.multiplicities))
    _require(sol.objective == brute,
             f"objective {sol.objective} != brute force {brute}")
    frac = rat_ceil(oracle.fractional_opt(inst.sizes, inst.multiplicities))
    _require(sol.objective >= frac,
             f"objective {sol.objective} below fractional bound {frac}")


def _check_cuttingstock(inst, sol):
    solver.verify_solution(inst, sol)
    options = [(v, c) for w, c in inst.bin_types
               for v in _box(inst.multiplicities) if _fits(inst.sizes, v, w)]
    brute = _exact_cover_cost(inst.multiplicities, options)
    _require(sol.objective == brute,
             f"cost {sol.objective} != brute force {brute}")
    load = sum(s * a for s, a in zip(inst.sizes, inst.multiplicities))
    ratio = min(Rat(c) / w for w, c in inst.bin_types)
    _require(sol.objective >= rat_ceil(load * ratio),
             "cost below the load lower bound")


def _schedulable(inst, i, vec):
    if inst.variant == "preemptive":
        return scheduling.edf_simulate(vec, inst, i).feasible
    return oracle.nonpreemptive_brute_counts(vec, inst, i) is not None


def _check_machines(inst, sol):
    validate = (scheduling.validate_preemptive_schedule
                if inst.variant == "preemptive"
                else scheduling.validate_nonpreemptive_schedule)
    placed = [0] * inst.d
    for mtype, vec, sched in sol.machines:
        validate(inst, mtype, vec, sched)
        for j, v in enumerate(vec):
            placed[j] += v
    return placed


def _check_assignment(inst, sol):
    placed = _check_machines(inst, sol)
    _require(tuple(placed) == inst.multiplicities, "demand not covered")
    cost = sum(inst.costs[mtype] for mtype, _v, _s in sol.machines)
    _require(cost == sol.objective, "objective does not add up")
    options = [(v, inst.costs[i]) for i in range(inst.m)
               for v in _box(inst.multiplicities) if _schedulable(inst, i, v)]
    brute = _exact_cover_cost(inst.multiplicities, options)
    _require(sol.objective == brute,
             f"cost {sol.objective} != brute force {brute}")


def _check_tardy(inst, sol):
    placed = _check_machines(inst, sol)
    _require(tuple(placed) == tuple(sol.scheduled), "placed counts mismatch")
    used = [0] * inst.m
    for mtype, _v, _s in sol.machines:
        used[mtype] += 1
    _require(tuple(used) == inst.counts, "machine counts not respected")
    pen = inst.penalties
    a = inst.multiplicities
    _require(sol.objective == sum(p * (x - s) for p, x, s in
                                  zip(pen, a, placed)),
             "penalty does not add up")
    # brute force: give each machine one schedulable vector, maximise the
    # penalty mass placed without exceeding the demand
    states = {tuple([0] * inst.d)}
    for i, count in enumerate(inst.counts):
        vecs = [v for v in _box(a) if _schedulable(inst, i, v)]
        for _ in range(count):
            states = {tuple(s + x for s, x in zip(st, v))
                      for st in states for v in vecs
                      if all(s + x <= h for s, x, h in zip(st, v, a))}
    best = max(sum(p * v for p, v in zip(pen, st)) for st in states)
    _require(sol.objective == sum(p * x for p, x in zip(pen, a)) - best,
             f"penalty {sol.objective} is not the minimum")


def _check_polytope(poly, answer):
    sset, hull = answer
    rep = oracle.cover_verify(poly, sset.cover)
    _require(rep.ok, f"cover fails verification: {rep.violations[:2]}")
    pts = geometry.lattice_points(poly)
    _require(set(sset.locator) == set(pts), "locator misses lattice points")
    _require(set(map(tuple, hull)) <= set(pts),
             "hull vertex is not a lattice point")
    # each coordinate's extremes over the lattice are attained at vertices
    for j in range(poly.dim):
        for pick in (min, max):
            _require(pick(v[j] for v in hull) == pick(p[j] for p in pts),
                     f"hull misses the extreme of coordinate {j}")


def check_answer(kind, inst, answer) -> None:
    """Exact re-validation of one answer; raises WrongAnswer or a
    conepack error when the answer is wrong or cannot be verified."""
    if kind == "binpacking":
        _check_binpacking(inst, answer)
    elif kind == "cuttingstock":
        _check_cuttingstock(inst, answer)
    elif kind == "polytope":
        _check_polytope(inst, answer)
    elif inst.variant == "tardy":
        _check_tardy(inst, answer)
    else:
        _check_assignment(inst, answer)


def backend_name() -> str:
    return f"{conepack.Rat.__module__}.{conepack.Rat.__name__}"


def canonical(answer):
    """A value equal for equal answers (covers, hulls and solutions are
    deterministic, so repeated solves of one instance must agree)."""
    kind, _inst, result = answer
    if kind == "polytope":
        sset, hull = result
        return sset.cover, sset.special_points, tuple(map(tuple, hull))
    return result
