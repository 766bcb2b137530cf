"""Brute-force reference answers for cross-checking the exact solvers.

Everything here is deliberately written from scratch against the problem
statements, sharing only the exact-arithmetic layer with the main pipeline,
so that an agreement between solver and oracle actually means something.
All oracles are exponential and guarded by small size caps.

Every least-cost exact cover (bin packing, cutting stock and the machine
assignments) is one search, ``exact_cover_cost``, over ``(vector, cost)``
options that the caller lists.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, ResourceError
from .exactmath import (lp_optimize, solve_linear_system, INFEASIBLE,
                        OPTIMAL, UNIQUE)
from .rational import (Rat, ZERO, ONE, cleared, integer, integers, rat_ceil,
                       rat_floor, rationals, sequence)
from .scheduling import _job_vector, _machine_windows

BP_BRUTE_ITEM_CAP = 12
PATTERN_BUDGET = 200_000
COVER_SCAN_BUDGET = 2_000_000
BRUTE_JOB_CAP = 6
BRUTE_HORIZON_CAP = 50


# ---------------------------------------------------------------------------
# exact covers: bin packing, cutting stock and the machine assignments


def _patterns_within(sizes, limit, capacity):
    """All integer vectors 0 <= x <= limit with sizes . x <= capacity."""
    d = len(sizes)
    out = []

    def rec(j, prefix, slack):
        if j == d:
            out.append(tuple(prefix))
            return
        count = 0
        left = slack
        while count <= limit[j]:
            rec(j + 1, prefix + [count], left)
            count += 1
            left = left - sizes[j]
            if left < 0:
                break

    rec(0, [], capacity)
    return out


def exact_cover_cost(options: Sequence, demand: Sequence[int]) -> Optional[int]:
    """Least total cost of ``(vector, cost)`` options, each taken any number
    of times, that sum exactly to ``demand``; None when no set does.

    Memoised recursion over the residual demand.  Every cover of a residual
    holds an option that covers the residual's first non-zero entry, so only
    those options are tried there; zero vectors cover nothing and are
    dropped.  The demand and each option's entries and cost are read
    through ``rational.integer``; an option that is not a pair, or whose
    vector is ragged or holds a negative entry, or whose cost is negative,
    raises ``InputError`` naming it.
    """
    demand = integers(demand, "demand")
    read = []
    for i, option in enumerate(sequence(options, "options")):
        try:
            v, c = option
        except (TypeError, ValueError) as exc:
            raise InputError(f"option {i} {option!r} is not a (vector, cost) "
                             f"pair") from exc
        v = integers(v, f"option {i} entry")
        c = integer(c, f"option {i} cost")
        if len(v) != len(demand):
            raise InputError(f"option {i} {option!r} has {len(v)} entries "
                             f"but the demand has {len(demand)}")
        if c < 0 or any(x < 0 for x in v):
            raise InputError(f"option {i} {option!r} has a negative entry "
                             f"or cost")
        if any(v):
            read.append((v, c))
    options = read
    memo = {(0,) * len(demand): 0}

    def least(rest):
        if rest not in memo:
            j = next(j for j, r in enumerate(rest) if r)
            best = None
            for v, c in options:
                if v[j] and all(x <= r for x, r in zip(v, rest)):
                    sub = least(tuple(r - x for r, x in zip(rest, v)))
                    if sub is not None and (best is None or c + sub < best):
                        best = c + sub
            memo[rest] = best
        return memo[rest]

    return least(tuple(demand))


def bp_brute_force(sizes: Sequence, multiplicities: Sequence[int],
                   cap: int = BP_BRUTE_ITEM_CAP) -> int:
    """Minimum bins: the least exact cover of the demand by unit-bin
    patterns at one bin each."""
    sizes = rationals(sizes, "item size")
    a = integers(multiplicities, "multiplicity")
    if len(sizes) != len(a):
        raise InputError("sizes and multiplicities must align")
    if any(s <= 0 for s in sizes):
        raise InputError("sizes must be positive")
    if any(v < 0 for v in a):
        raise InputError("multiplicities must be non-negative")
    total = sum(a)
    if total > cap:
        raise ResourceError("bin packing brute force", cap,
                            f"instance has {total} items")
    if any(s > 1 for s in sizes):
        raise InputError("an item larger than the bin can never pack")
    return exact_cover_cost([(p, 1) for p in _patterns_within(sizes, a, ONE)],
                            a)


def fractional_opt(sizes: Sequence, multiplicities: Sequence[int]) -> Rat:
    """Exact optimum of the fractional relaxation over all patterns.

    Patterns are not clipped to the demand: a pattern holding more copies
    of an item than are demanded may still appear with a fractional weight.
    """
    sizes = rationals(sizes, "item size")
    a = [Rat(v) for v in integers(multiplicities, "multiplicity")]
    if any(s <= 0 for s in sizes):
        raise InputError("sizes must be positive")
    if all(v == 0 for v in a):
        return ZERO
    caps = []
    cells = 1
    for s in sizes:
        cap = int(ONE / s) if s <= 1 else 0
        caps.append(cap)
        cells *= cap + 1
        if cells > PATTERN_BUDGET:
            raise ResourceError("pattern enumeration", PATTERN_BUDGET,
                                "too many knapsack patterns")
    patterns = [p for p in _patterns_within(sizes, caps, ONE)
                if any(v != 0 for v in p)]
    d = len(sizes)
    rows = [[Rat(p[j]) for p in patterns] for j in range(d)]
    res = lp_optimize(rows, a, [ONE] * len(patterns), sense="min",
                      senses=["=="] * d, lo=[ZERO] * len(patterns))
    if res.status != OPTIMAL:
        raise InputError("fractional relaxation is infeasible or unbounded")
    return res.value


# ---------------------------------------------------------------------------
# integer cone membership


def int_cone_brute(gens: Sequence, target, box: Sequence,
                   max_weight: Optional[int] = None):
    """Search every reachable sum of the generator points in the box.

    ``gens`` lists the generators as integer points.  ``target`` needs a
    ``contains_int`` method; ``box`` lists (lo, hi) integer bounds that
    confine the search.  With non-negative generators the closure inside
    the box is exhaustive, so Empty answers are decisive; generators with
    negative entries additionally require ``max_weight`` (and Empty then
    only means: not reachable with that many summands).  Returns (found,
    point, weights) with weights a generator -> count dict.
    """
    box = sequence(box, "box bound")
    d = len(box)
    gens = [integers(g, "generator coordinate")
            for g in sequence(gens, "generators")]
    gens = [g for g in gens if any(v != 0 for v in g)]
    for g in gens:
        if len(g) != d:
            raise InputError("generator dimension mismatch")
    box = [(integer(lo, "box bound"), integer(hi, "box bound"))
           for lo, hi in box]
    origin = (0,) * d
    if target.contains_int(origin):
        return (True, origin, {})
    mixed = any(any(v < 0 for v in g) for g in gens)
    if mixed and max_weight is None:
        raise InputError("generators with negative entries need max_weight")

    def inside(p):
        return all(lo <= v <= hi for (lo, hi), v in zip(box, p))

    parents = {origin: None}
    frontier = [origin]
    level = 0
    while frontier:
        level += 1
        if max_weight is not None and level > max_weight:
            break
        new = []
        for base in frontier:
            for gi, g in enumerate(gens):
                p = tuple(b + v for b, v in zip(base, g))
                if p in parents or not inside(p):
                    continue
                parents[p] = (base, gi)
                if target.contains_int(p):
                    weights = {}
                    cur = p
                    while parents[cur] is not None:
                        prev, gj = parents[cur]
                        weights[gens[gj]] = weights.get(gens[gj], 0) + 1
                        cur = prev
                    return (True, p, weights)
                new.append(p)
        frontier = new
    return (False, None, None)


# ---------------------------------------------------------------------------
# cover verification


class CoverReport(NamedTuple):
    ok: bool
    violations: tuple = ()


def _box_from_rows(A, b, d):
    """Exact coordinate bounds of {A x <= b} via d small LPs per side.

    Returns None when the polytope is empty; raises on an unbounded one,
    which a finite scan could never verify.
    """
    lo, hi = [], []
    for j in range(d):
        obj = [ONE if i == j else ZERO for i in range(d)]
        up = lp_optimize(A, b, obj, sense="max")
        dn = lp_optimize(A, b, obj, sense="min")
        if up.status == INFEASIBLE or dn.status == INFEASIBLE:
            return None
        if up.status != OPTIMAL or dn.status != OPTIMAL:
            raise InputError("cannot scan an unbounded polytope")
        hi.append(up.value)
        lo.append(dn.value)
    return lo, hi


def cover_verify(poly, cover: Sequence) -> CoverReport:
    """Independently check that a parallelepiped cover is sound and complete.

    Sound: every parallelepiped vertex is an integer point of the polytope.
    Complete: every integer point of the polytope (found by a plain box
    scan over its exact coordinate bounds) lies in at least one
    parallelepiped: a member with no directions is looked up by its exact
    centre, any other decided by solving for its coordinates directly.
    ``poly`` needs ``A``/``b``/``dim``; cover members need
    ``center``/``directions``.
    """
    A = [[Rat(v) for v in row] for row in poly.A]
    b = [Rat(v) for v in poly.b]
    d = poly.dim
    violations = []

    def point_in_poly(p):
        for row, bound in zip(poly.A, poly.b):
            if sum(r * v for r, v in zip(row, p)) > bound:
                return False
        return True

    def pp_vertices(pp):
        verts = [tuple(pp.center)]
        for direction in pp.directions:
            verts = [tuple(c + e * s for c, e in zip(v, direction))
                     for v in verts for s in (Rat(1), Rat(-1))]
        return verts

    for i, pp in enumerate(sequence(cover, "cover")):
        for v in pp_vertices(pp):
            ints, scale = cleared(v, "vertex coordinate")
            if scale != 1:
                violations.append(("vertex-not-integral", i, v))
                continue
            vi = tuple(ints)
            if not point_in_poly(vi):
                violations.append(("vertex-outside-polytope", i, vi))

    def membership(frame, p):
        center, cols = frame
        rhs = [Rat(a) - Rat(c) for a, c in zip(p, center)]
        matrix = [[cols[k][i] for k in range(len(cols))] for i in range(d)]
        res = solve_linear_system(matrix, rhs)
        if res.status != UNIQUE:
            return False
        return all(-1 <= m <= 1 for m in res.solution)

    bounds = _box_from_rows(A, b, d)
    if bounds is None:
        # empty polytope: the cover must be empty too
        if cover:
            violations.append(("cover-of-empty-polytope", len(cover)))
        return CoverReport(not violations, tuple(violations))
    lo = [rat_floor(v) for v in bounds[0]]
    hi = [rat_ceil(v) for v in bounds[1]]
    cells = 1
    for a_, b_ in zip(lo, hi):
        cells *= max(0, b_ - a_ + 1)
    if cells > COVER_SCAN_BUDGET:
        raise ResourceError("cover verification scan", COVER_SCAN_BUDGET,
                            f"box holds {cells} candidate points")

    # each member's exact data, read once for the whole scan; a member
    # with no directions holds its centre alone, so it is looked up by it
    # (an integral Rat hashes and compares as its int)
    points = set()
    frames = []
    for pp in cover:
        center = tuple(Rat(c) for c in pp.center)
        cols = [list(dvec) for dvec in pp.directions]
        if cols:
            frames.append((center, cols))
        else:
            points.add(center)

    def scan(j, prefix):
        if j == d:
            p = tuple(prefix)
            if point_in_poly(p):
                if p not in points and not any(membership(frame, p)
                                               for frame in frames):
                    violations.append(("point-uncovered", p))
            return
        for v in range(lo[j], hi[j] + 1):
            scan(j + 1, prefix + [v])

    scan(0, [])
    return CoverReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# single-machine non-preemptive feasibility


def nonpreemptive_brute(jobs: Sequence, horizon: int,
                        horizon_cap: int = BRUTE_HORIZON_CAP) -> Optional[tuple]:
    """Schedule all jobs on one machine without preemption, or None.

    ``jobs`` lists (release, deadline, length) integer triples, one entry
    per job copy.  Tries every distinct job order and places each job at
    the earliest start respecting its release and the previous job's end.
    This is exhaustive: take any feasible schedule and list its jobs by
    start time; moving each job of that order to its earliest feasible
    start only shifts starts earlier, never later, so the order stays
    feasible under earliest-start placement and is eventually tried.
    Returns ((start, release, deadline, length), ...) or None, and None
    before either cap is read when a job outlasts its window or the total
    length exceeds the latest deadline less the earliest release.
    """
    read = []
    for job in sequence(jobs, "jobs"):
        job = sequence(job, "job")
        if len(job) != 3:
            raise InputError(f"job {job!r} is not a (release, deadline, "
                             f"length) triple")
        r, d, p = job
        read.append((integer(r, "release"), integer(d, "deadline"),
                     integer(p, "length")))
    jobs = tuple(read)
    for r, d, p in jobs:
        if p < 1 or r < 0 or d > horizon:
            raise InputError(f"job ({r}, {d}, {p}) is out of range")
        if r + p > d:
            return None
    if not jobs:
        return ()
    if sum(p for _r, _d, p in jobs) > (max(d for _r, d, _p in jobs)
                                       - min(r for r, _d, _p in jobs)):
        return None
    if len(jobs) > BRUTE_JOB_CAP:
        raise ResourceError("brute schedule jobs", BRUTE_JOB_CAP,
                            f"{len(jobs)} job copies")
    if horizon > horizon_cap:
        raise ResourceError("brute schedule horizon", horizon_cap,
                            f"horizon {horizon}")
    for order in sorted(set(permutations(jobs))):
        t = 0
        placed = []
        ok = True
        for r, d, p in order:
            start = max(t, r)
            if start + p > d:
                ok = False
                break
            placed.append((start, r, d, p))
            t = start + p
        if ok:
            return tuple(placed)
    return None


def nonpreemptive_brute_counts(x: Sequence[int], inst, machine_type: int,
                               horizon_cap: int = BRUTE_HORIZON_CAP):
    """Count-vector front end: x_j copies of job type j on one machine,
    read through the scheduling module's machine-type and job-vector
    readers."""
    jobs = []
    for window, count in zip(_machine_windows(inst, machine_type),
                             _job_vector(inst, x)):
        jobs.extend([window] * count)
    horizon = max([d for _r, d, _p in jobs], default=0)
    return nonpreemptive_brute(jobs, horizon, horizon_cap=horizon_cap)


# ---------------------------------------------------------------------------
# tardy penalty


def _distributable(scheduled, machines, inst, memo, horizon_cap):
    """Whether the job counts ``scheduled`` split over ``machines`` (a
    tuple of machine types, one entry per machine) so that each machine's
    share has a non-preemptive schedule."""
    if not machines:
        return all(v == 0 for v in scheduled)
    key = (scheduled, machines)
    if key in memo:
        return memo[key]
    mtype = machines[0]
    rest = machines[1:]
    ok = False
    for part in product(*(range(v + 1) for v in scheduled)):
        if nonpreemptive_brute_counts(part, inst, mtype,
                                      horizon_cap=horizon_cap) is None:
            continue
        left = tuple(a - b for a, b in zip(scheduled, part))
        if _distributable(left, rest, inst, memo, horizon_cap):
            ok = True
            break
    memo[key] = ok
    return ok


def tardy_exhaustive(inst, horizon_cap: int = BRUTE_HORIZON_CAP) -> int:
    """Least penalty of the job copies a tardy instance leaves unscheduled.

    Tries every count vector up to the demand that beats the best penalty
    so far, and keeps it when it splits over the machines.  More than
    ``BRUTE_JOB_CAP`` job copies, or more than ``BRUTE_JOB_CAP`` machines,
    raise ``ResourceError``.
    """
    jobs, machine_count = sum(inst.multiplicities), sum(inst.counts)
    if max(jobs, machine_count) > BRUTE_JOB_CAP:
        raise ResourceError("tardy brute force", BRUTE_JOB_CAP,
                            f"{jobs} job copies and {machine_count} machines")
    machines = tuple(i for i in range(inst.m) for _ in range(inst.counts[i]))
    best = None
    memo = {}
    for s in product(*(range(a + 1) for a in inst.multiplicities)):
        pen = sum(p * (a - v) for p, a, v in
                  zip(inst.penalties, inst.multiplicities, s))
        if best is not None and pen >= best:
            continue
        if _distributable(s, machines, inst, memo, horizon_cap):
            best = pen
    return best
