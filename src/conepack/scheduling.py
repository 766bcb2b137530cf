"""High-multiplicity scheduling on unrelated machine types.

Job types have per-machine-type release times, deadlines, and processing
times.  Two schedulability encodings drive everything:

* preemptive, one machine: a job vector is feasible under earliest-deadline
  -first exactly when every critical interval [t1, t2] (endpoints drawn
  from the releases and deadlines) has total mandatory work at most its
  length.  ``build_edf_polytope`` writes those interval constraints;
  ``edf_simulate`` is the independent event-driven check.
* non-preemptive, one machine: feasible job vectors are the integer
  projection of a cycle polytope.  A schedule is normalized into at most
  4d cycles, each processing job types in index order (a unit-length
  dummy type 0 absorbs idle time); variables count copies per cycle,
  mark which types a cycle may host, and pin the cycle boundaries.

Assignment problems (open machines of each type at a cost, meet the whole
demand) reduce to the multi-polytope selection solver; the tardy variant
(machine counts fixed, pay per dropped job copy) minimizes the dropped
penalty mass with a binary search over selections from explicitly
enumerated schedulable vectors.  All returned schedules are re-validated
from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InfeasibleError, InputError, InternalError
from .geometry import Polytope, box_polytope
from .ilp import IlpProblem, ilp_feasible
from .solver import (least_feasible, multi_polytope_select,
                     select_from_generators)


# ---------------------------------------------------------------------------
# instance


class SchedulingInstance:
    """Job types with per-machine-type windows plus one of two objectives.

    ``windows[i][j] = (release, deadline, length)`` for machine type i and
    job type j.  The assignment variant carries machine costs; the tardy
    variant carries machine counts and per-job penalties.
    """

    def __init__(self, windows: Sequence, multiplicities: Sequence[int],
                 costs: Optional[Sequence[int]] = None,
                 counts: Optional[Sequence[int]] = None,
                 penalties: Optional[Sequence[int]] = None,
                 variant: Optional[str] = None):
        self.windows = tuple(tuple((int(r), int(dl), int(p))
                                   for r, dl, p in per_machine)
                             for per_machine in windows)
        self.m = len(self.windows)
        if self.m == 0:
            raise InputError("at least one machine type required")
        self.d = len(self.windows[0])
        if any(len(w) != self.d for w in self.windows):
            raise InputError("every machine type needs every job type")
        if self.d == 0:
            raise InputError("at least one job type required")
        for i, per_machine in enumerate(self.windows):
            for j, (r, dl, p) in enumerate(per_machine):
                if r < 0 or dl < r:
                    raise InputError(
                        f"job {j} on machine type {i}: window [{r}, {dl}]")
                if p < 1:
                    raise InputError(
                        f"job {j} on machine type {i}: length {p} < 1")
        self.multiplicities = tuple(int(v) for v in multiplicities)
        if len(self.multiplicities) != self.d:
            raise InputError("multiplicities must cover every job type")
        if any(v < 0 for v in self.multiplicities):
            raise InputError("multiplicities must be non-negative")
        self.costs = None if costs is None else tuple(int(c) for c in costs)
        self.counts = None if counts is None else tuple(int(v) for v in counts)
        self.penalties = (None if penalties is None
                          else tuple(int(v) for v in penalties))
        if self.costs is not None:
            if len(self.costs) != self.m:
                raise InputError("one cost per machine type required")
            if any(c < 1 for c in self.costs):
                raise InputError("machine costs must be positive integers")
        if (self.counts is None) != (self.penalties is None):
            raise InputError("tardy data needs both counts and penalties")
        if self.counts is not None:
            if len(self.counts) != self.m:
                raise InputError("one count per machine type required")
            if any(v < 0 for v in self.counts):
                raise InputError("machine counts must be non-negative")
            if len(self.penalties) != self.d:
                raise InputError("one penalty per job type required")
            if any(v < 0 for v in self.penalties):
                raise InputError("penalties must be non-negative")
        if variant is None:
            variant = "tardy" if self.counts is not None else "assignment"
        if variant in ("assignment", "preemptive", "nonpreemptive"):
            if self.costs is None:
                raise InputError(f"variant {variant!r} needs machine costs")
        elif variant == "tardy":
            if self.counts is None:
                raise InputError("variant 'tardy' needs counts and penalties")
        else:
            raise InputError(f"unknown variant {variant!r}")
        self.variant = variant

    # accessors used by the oracle's count-vector front end as well
    @property
    def releases(self):
        return tuple(tuple(r for r, _dl, _p in per) for per in self.windows)

    @property
    def deadlines(self):
        return tuple(tuple(dl for _r, dl, _p in per) for per in self.windows)

    @property
    def lengths(self):
        return tuple(tuple(p for _r, _dl, p in per) for per in self.windows)

    def critical_points(self, machine_type: int) -> tuple:
        """Sorted distinct releases and deadlines of one machine type."""
        vals = set()
        for r, dl, _p in self.windows[machine_type]:
            vals.add(r)
            vals.add(dl)
        return tuple(sorted(vals))

    def horizon(self, machine_type: int) -> int:
        return max(dl for _r, dl, _p in self.windows[machine_type])


@dataclass(frozen=True)
class ScheduleSolution:
    """Machines with their job vectors and timed schedules.

    ``machines`` holds (machine_type, job_vector, schedule) triples where
    a schedule lists (job_type, copy, start, end) segments; non-preemptive
    schedules have one segment per copy.  ``scheduled`` is the per-type
    total actually placed (tardy variant only).
    """

    machines: tuple
    objective: int
    scheduled: Optional[tuple] = None


# ---------------------------------------------------------------------------
# preemptive: interval polytope and simulator


def build_edf_polytope(inst: SchedulingInstance, machine_type: int) -> Polytope:
    """Interval-load constraints over the machine type's critical points.

    One row per ordered pair t1 <= t2: jobs whose whole window sits inside
    [t1, t2] contribute their full length, and the total must fit.
    """
    windows = inst.windows[machine_type]
    d = inst.d
    points = inst.critical_points(machine_type)
    rows, rhs = [], []
    for a in range(len(points)):
        for b in range(a, len(points)):
            t1, t2 = points[a], points[b]
            row = [0] * d
            for j, (r, dl, p) in enumerate(windows):
                if r >= t1 and dl <= t2:
                    row[j] = p
            rows.append(row)
            rhs.append(t2 - t1)
    for j in range(d):
        unit = [0] * d
        unit[j] = -1
        rows.append(unit)
        rhs.append(0)
    return Polytope(rows, rhs)


@dataclass(frozen=True)
class EdfResult:
    feasible: bool
    schedule: Optional[tuple] = None       # (job_type, copy, start, end)
    violation: Optional[tuple] = None      # overloaded (t1, t2)


def edf_simulate(x: Sequence[int], inst: SchedulingInstance,
                 machine_type: int) -> EdfResult:
    """Event-driven earliest-deadline-first run of the given job counts.

    Ties pick the lowest job type, then the lowest copy.  On failure the
    result names an overloaded critical interval as the witness.
    """
    windows = inst.windows[machine_type]
    if len(x) != inst.d:
        raise InputError("job vector length mismatch")
    if any(v < 0 for v in x):
        raise InputError("job counts must be non-negative")
    copies = []
    for j, count in enumerate(x):
        r, dl, p = windows[j]
        for c in range(count):
            copies.append([dl, j, c, r, p])  # remaining = p
    segments = []
    t = 0
    pending = sorted(copies, key=lambda e: (e[3], e[0], e[1], e[2]))
    active = []
    failed = False
    while pending or active:
        while pending and pending[0][3] <= t:
            active.append(pending.pop(0))
        if not active:
            t = pending[0][3]
            continue
        active.sort(key=lambda e: (e[0], e[1], e[2]))
        job = active[0]
        horizon = pending[0][3] if pending else None
        run = job[4] if horizon is None else min(job[4], horizon - t)
        segments.append((job[1], job[2], t, t + run))
        job[4] -= run
        t += run
        if job[4] == 0:
            active.pop(0)
            if t > job[0]:
                failed = True
                break
    if not failed:
        merged = _merge_segments(segments)
        return EdfResult(True, merged, None)
    points = inst.critical_points(machine_type)
    for a in range(len(points)):
        for b in range(a, len(points)):
            t1, t2 = points[a], points[b]
            load = sum(p * x[j] for j, (r, dl, p) in enumerate(windows)
                       if r >= t1 and dl <= t2)
            if load > t2 - t1:
                return EdfResult(False, None, (t1, t2))
    raise InternalError("deadline missed but every interval fits")


def _merge_segments(segments):
    """Join back-to-back segments of the same copy."""
    out = []
    for seg in segments:
        if out and out[-1][0] == seg[0] and out[-1][1] == seg[1] \
                and out[-1][3] == seg[2]:
            prev = out.pop()
            out.append((seg[0], seg[1], prev[2], seg[3]))
        else:
            out.append(tuple(seg))
    return tuple(out)


def validate_preemptive_schedule(inst: SchedulingInstance, machine_type: int,
                                 x: Sequence[int], schedule: Sequence) -> None:
    """Exact checks: windows, full lengths, one job at a time."""
    windows = inst.windows[machine_type]
    work = {}
    spans = []
    for job_type, copy, start, end in schedule:
        r, dl, p = windows[job_type]
        if start < r or end > dl or end <= start:
            raise InternalError(
                f"segment of job {job_type}#{copy} escapes its window")
        work[(job_type, copy)] = work.get((job_type, copy), 0) + (end - start)
        spans.append((start, end))
    spans.sort()
    for (a1, b1), (a2, _b2) in zip(spans, spans[1:]):
        if b1 > a2:
            raise InternalError("machine runs two jobs at once")
    for j, count in enumerate(x):
        p = windows[j][2]
        for c in range(count):
            if work.get((j, c), 0) != p:
                raise InternalError(f"job {j}#{c} not fully processed")
    if len(work) != sum(x):
        raise InternalError("schedule covers unexpected job copies")


# ---------------------------------------------------------------------------
# non-preemptive: cycle polytope


@dataclass(frozen=True)
class CycleLayout:
    """Variable order of the cycle polytope for d job types.

    Layout: x_1..x_d, then the dummy count x_0, then the cycle end times
    tau_1..tau_C, then copy counts y_{j,k} for j = 0..d (dummy first) and
    k = 1..C, then the host indicators z_{j,k} for j = 1..d.  The generic
    polytope uses C = 4d cycles; feasibility checks for a fixed vector may
    use fewer (see ``nonpreemptive_completable``).
    """

    d: int
    cycles: int = 0

    def __post_init__(self):
        if self.cycles <= 0:
            object.__setattr__(self, "cycles", 4 * self.d)

    @property
    def dim(self) -> int:
        d, c = self.d, self.cycles
        return d + 1 + c + c * (d + 1) + c * d

    def x(self, j: int) -> int:
        # j in 1..d
        return j - 1

    @property
    def x0(self) -> int:
        return self.d

    def tau(self, k: int) -> int:
        # k in 1..C
        return self.d + 1 + (k - 1)

    def y(self, j: int, k: int) -> int:
        # j in 0..d, k in 1..C
        return self.d + 1 + self.cycles + j * self.cycles + (k - 1)

    def z(self, j: int, k: int) -> int:
        # j in 1..d, k in 1..C
        base = self.d + 1 + self.cycles + self.cycles * (self.d + 1)
        return base + (j - 1) * self.cycles + (k - 1)


def _cycle_rows(inst: SchedulingInstance, machine_type: int,
                layout: CycleLayout, host_cap, bound_rows: bool = True):
    """Constraint rows of the cycle polytope.

    ``host_cap(j)`` is the coefficient bounding y_{j,k} against z_{j,k};
    the generic polytope uses the horizon, while the fixed-vector
    feasibility check can use the (much tighter) copy count.  The
    feasibility program carries variable bounds separately and skips the
    explicit bound rows.
    """
    windows = inst.windows[machine_type]
    d = layout.d
    C = layout.cycles
    D = layout.dim
    delta = inst.horizon(machine_type)
    lengths = [1] + [p for _r, _dl, p in windows]  # dummy type first
    rows, rhs = [], []

    def eq(row, value):
        rows.append(list(row))
        rhs.append(value)
        rows.append([-v for v in row])
        rhs.append(-value)

    # each count splits over the cycles
    for j in range(0, d + 1):
        row = [0] * D
        row[layout.x0 if j == 0 else layout.x(j)] = 1
        for k in range(1, C + 1):
            row[layout.y(j, k)] = -1
        eq(row, 0)
    # cycle ends accumulate all work so far
    for k in range(1, C + 1):
        row = [0] * D
        row[layout.tau(k)] = 1
        for ell in range(1, k + 1):
            for j in range(0, d + 1):
                row[layout.y(j, ell)] -= lengths[j]
        eq(row, 0)
    # a cycle only hosts copies of a type it is marked for
    for j in range(1, d + 1):
        for k in range(1, C + 1):
            row = [0] * D
            row[layout.y(j, k)] = 1
            row[layout.z(j, k)] = -host_cap(j)
            rows.append(row)
            rhs.append(0)
    # a marked cycle must sit inside the job's window
    for j in range(1, d + 1):
        r_j, d_j, _p = windows[j - 1]
        for k in range(1, C + 1):
            row = [0] * D
            if k > 1:
                row[layout.tau(k - 1)] = -1
            row[layout.z(j, k)] = delta
            rows.append(row)
            rhs.append(delta - r_j)
            row = [0] * D
            row[layout.tau(k)] = 1
            row[layout.z(j, k)] = delta
            rows.append(row)
            rhs.append(d_j + delta)
    # dummy copies fill the horizon exactly
    row = [0] * D
    row[layout.x0] = 1
    for j in range(1, d + 1):
        row[layout.x(j)] = lengths[j]
    eq(row, delta)
    if not bound_rows:
        return rows, rhs
    # non-negativity and indicator bounds
    for k in range(1, C + 1):
        row = [0] * D
        row[layout.tau(k)] = -1
        rows.append(row)
        rhs.append(0)
    for j in range(0, d + 1):
        for k in range(1, C + 1):
            row = [0] * D
            row[layout.y(j, k)] = -1
            rows.append(row)
            rhs.append(0)
    for j in range(1, d + 1):
        for k in range(1, C + 1):
            row = [0] * D
            row[layout.z(j, k)] = 1
            rows.append(row)
            rhs.append(1)
            row = [0] * D
            row[layout.z(j, k)] = -1
            rows.append(row)
            rhs.append(0)
    return rows, rhs


def build_nonpreemptive_polytope(inst: SchedulingInstance,
                                 machine_type: int) -> Polytope:
    """Cycle polytope whose integer projection is the schedulable vectors.

    Variables follow ``CycleLayout``.  A job vector x is schedulable on
    one machine of this type exactly when integral cycle variables
    complete it inside this polytope.
    """
    layout = CycleLayout(inst.d)
    delta = inst.horizon(machine_type)
    rows, rhs = _cycle_rows(inst, machine_type, layout, lambda _j: delta)
    return Polytope(rows, rhs)


def nonpreemptive_completable(x: Sequence[int], inst: SchedulingInstance,
                              machine_type: int):
    """Integral cycle variables completing x, or None.

    Solves the cycle polytope with x fixed.  Two equivalence-preserving
    reductions keep the integer program small: host coefficients shrink
    from the horizon to the copy count (no cycle holds more copies than
    exist), and the cycle count shrinks to 2*(total copies)+1 when that
    beats 4d (worst case, every copy sits in its own cycle with a pure
    idle cycle before it, plus one trailing idle cycle).  The witness is
    padded back to the generic layout and re-checked against it.
    """
    d = inst.d
    if len(x) != d:
        raise InputError("job vector length mismatch")
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x):
        raise InputError("job counts must be non-negative")
    windows = inst.windows[machine_type]
    delta = inst.horizon(machine_type)
    dummy = delta - sum(p * x[j] for j, (_r, _dl, p) in enumerate(windows))
    if dummy < 0:
        return None
    # necessary condition: preemptive schedulability
    if not build_edf_polytope(inst, machine_type).contains_int(x):
        return None
    layout = CycleLayout(d, min(4 * d, 2 * sum(x) + 1))

    def host_cap(j):
        return max(1, x[j - 1])

    rows, rhs = _cycle_rows(inst, machine_type, layout, host_cap,
                            bound_rows=False)
    # pin the job counts
    lo = [0] * layout.dim
    hi = [None] * layout.dim
    for j in range(1, d + 1):
        lo[layout.x(j)] = hi[layout.x(j)] = x[j - 1]
        for k in range(1, layout.cycles + 1):
            hi[layout.y(j, k)] = x[j - 1]
            hi[layout.z(j, k)] = 1
            if x[j - 1] == 0:
                hi[layout.z(j, k)] = 0  # irrelevant indicator, prune it
    lo[layout.x0] = hi[layout.x0] = dummy
    for k in range(1, layout.cycles + 1):
        hi[layout.tau(k)] = delta
        hi[layout.y(0, k)] = dummy
    res = ilp_feasible(IlpProblem.build(rows, rhs, lo=lo, hi=hi))
    if not res.feasible:
        return None
    aux = _pad_cycles(res.witness, layout, CycleLayout(d), delta)
    full = build_nonpreemptive_polytope(inst, machine_type)
    if not full.contains_int(aux):
        raise InternalError("cycle witness escapes the generic polytope")
    return aux


def _pad_cycles(aux, small: CycleLayout, full: CycleLayout, delta: int):
    """Re-embed a reduced-cycle witness into the generic layout.

    Extra trailing cycles stay empty with end time pinned at the horizon.
    """
    if small.cycles == full.cycles:
        return tuple(aux)
    d = full.d
    out = [0] * full.dim
    for j in range(1, d + 1):
        out[full.x(j)] = aux[small.x(j)]
    out[full.x0] = aux[small.x0]
    for k in range(1, full.cycles + 1):
        if k <= small.cycles:
            out[full.tau(k)] = aux[small.tau(k)]
            for j in range(0, d + 1):
                out[full.y(j, k)] = aux[small.y(j, k)]
            for j in range(1, d + 1):
                out[full.z(j, k)] = aux[small.z(j, k)]
        else:
            out[full.tau(k)] = delta
    return tuple(out)


def extract_cyclic_schedule(aux: Sequence[int], inst: SchedulingInstance,
                            machine_type: int) -> tuple:
    """Read start/end times out of cycle variables.

    Each cycle runs its copies in type order, dummy first; real copies
    become (job_type, copy, start, end) entries.  Cycle boundaries are
    cross-checked against the tau variables.
    """
    d = inst.d
    layout = CycleLayout(d)
    if len(aux) != layout.dim:
        raise InputError("auxiliary vector has the wrong dimension")
    windows = inst.windows[machine_type]
    lengths = [1] + [p for _r, _dl, p in windows]
    t = 0
    schedule = []
    copy_counter = [0] * d
    for k in range(1, layout.cycles + 1):
        for j in range(0, d + 1):
            count = aux[layout.y(j, k)]
            if count < 0:
                raise InternalError("negative copy count in auxiliaries")
            for _ in range(count):
                start, end = t, t + lengths[j]
                if j > 0:
                    r, dl, _p = windows[j - 1]
                    if start < r or end > dl:
                        raise InternalError(
                            f"cycle places job {j - 1} outside its window")
                    schedule.append((j - 1, copy_counter[j - 1], start, end))
                    copy_counter[j - 1] += 1
                t = end
        if aux[layout.tau(k)] != t:
            raise InternalError("cycle end time disagrees with auxiliaries")
    return tuple(schedule)


def validate_nonpreemptive_schedule(inst: SchedulingInstance,
                                    machine_type: int, x: Sequence[int],
                                    schedule: Sequence) -> None:
    """Exact checks: one segment per copy, windows, no overlap."""
    windows = inst.windows[machine_type]
    counts = [0] * inst.d
    spans = []
    for job_type, _copy, start, end in schedule:
        r, dl, p = windows[job_type]
        if end - start != p:
            raise InternalError(f"job {job_type} segment has the wrong length")
        if start < r or end > dl:
            raise InternalError(f"job {job_type} runs outside its window")
        counts[job_type] += 1
        spans.append((start, end))
    spans.sort()
    for (a1, b1), (a2, _b2) in zip(spans, spans[1:]):
        if b1 > a2:
            raise InternalError("machine runs two jobs at once")
    if tuple(counts) != tuple(int(v) for v in x):
        raise InternalError("schedule does not match the job vector")


# ---------------------------------------------------------------------------
# assignment variants


def _cheapest_single_hosts(inst: SchedulingInstance, hostable) -> int:
    """Cost bound: each copy on its own cheapest machine."""
    total = 0
    for j, count in enumerate(inst.multiplicities):
        if count == 0:
            continue
        options = [inst.costs[i] for i in range(inst.m) if hostable(i, j)]
        if not options:
            raise InfeasibleError(f"job type {j} fits no machine type")
        total += count * min(options)
    return total


def preemptive_assign(inst: SchedulingInstance,
                      mode: str = "faithful") -> ScheduleSolution:
    """Cheapest machine multiset covering the demand with EDF schedules."""
    if inst.costs is None:
        raise InputError("assignment needs machine costs")
    a = inst.multiplicities
    if all(v == 0 for v in a):
        return ScheduleSolution((), 0)
    d = inst.d
    polys = []
    for i in range(inst.m):
        base = build_edf_polytope(inst, i)
        rows = [list(r) for r in base.A]
        rhs = list(base.b)
        for j in range(d):
            unit = [0] * d
            unit[j] = 1
            rows.append(unit)
            rhs.append(a[j])
        polys.append(Polytope(rows, rhs))

    def hostable(i, j):
        probe = [0] * d
        probe[j] = 1
        return polys[i].contains_int(probe)

    parts = [(polys[i], inst.costs[i]) for i in range(inst.m)]
    target = box_polytope(a, a)

    def probe(budget):
        return multi_polytope_select(parts, target, budget, mode=mode)

    best, opt = least_feasible(probe, 0,
                               _cheapest_single_hosts(inst, hostable),
                               lambda res: res.total_cost)
    machines = []
    placed = [0] * d
    for i, combo in enumerate(best.part_combinations):
        for vec, mult in sorted(combo.weights.items()):
            sim = edf_simulate(vec, inst, i)
            if not sim.feasible:
                raise InternalError(
                    f"selected vector {vec} fails its own simulation")
            validate_preemptive_schedule(inst, i, vec, sim.schedule)
            for _ in range(mult):
                machines.append((i, vec, sim.schedule))
            for j in range(d):
                placed[j] += mult * vec[j]
    if tuple(placed) != a:
        raise InternalError("assignment does not meet the demand")
    if best.total_cost != opt:
        raise InternalError("objective drifted from the binary search bound")
    return ScheduleSolution(tuple(machines), best.total_cost)


def schedulable_vectors(inst: SchedulingInstance, machine_type: int,
                        box_hi: Sequence[int]) -> dict:
    """All non-preemptively schedulable vectors within the box, with proofs.

    Maps x -> cycle auxiliaries.  Dropping copies keeps a schedule
    feasible, so supersets of infeasible vectors are skipped outright.
    """
    d = inst.d
    feasible = {}
    infeasible = set()
    grid = [()]
    for j in range(d):
        grid = [g + (v,) for g in grid for v in range(box_hi[j] + 1)]
    grid.sort(key=lambda g: (sum(g), g))
    for x in grid:
        if any(all(x[j] >= b[j] for j in range(d)) for b in infeasible):
            infeasible.add(x)
            continue
        aux = nonpreemptive_completable(x, inst, machine_type)
        if aux is None:
            infeasible.add(x)
        else:
            feasible[x] = aux
    return feasible


def nonpreemptive_assign(inst: SchedulingInstance) -> ScheduleSolution:
    """Cheapest machine multiset covering the demand without preemption.

    Machine-type capabilities are the integer projections of their cycle
    polytopes; they are enumerated explicitly inside the demand box and
    fed to the generator-list selection solver.
    """
    if inst.costs is None:
        raise InputError("assignment needs machine costs")
    a = inst.multiplicities
    if all(v == 0 for v in a):
        return ScheduleSolution((), 0)
    d = inst.d
    per_type = [schedulable_vectors(inst, i, a) for i in range(inst.m)]

    def hostable(i, j):
        probe = [0] * d
        probe[j] = 1
        return tuple(probe) in per_type[i]

    groups = [sorted(per_type[i]) for i in range(inst.m)]
    target = box_polytope(a, a)

    def probe(budget):
        return select_from_generators(groups, list(inst.costs), target,
                                      budget)

    best, _opt = least_feasible(probe, 0,
                                _cheapest_single_hosts(inst, hostable),
                                lambda res: res.total_cost)
    machines = []
    placed = [0] * d
    for i, combo in enumerate(best.part_combinations):
        for vec, mult in sorted(combo.weights.items()):
            schedule = extract_cyclic_schedule(per_type[i][vec], inst, i)
            validate_nonpreemptive_schedule(inst, i, vec, schedule)
            for _ in range(mult):
                machines.append((i, vec, schedule))
            for j in range(d):
                placed[j] += mult * vec[j]
    if tuple(placed) != a:
        raise InternalError("assignment does not meet the demand")
    return ScheduleSolution(tuple(machines), best.total_cost)


def tardy_min_penalty(inst: SchedulingInstance) -> ScheduleSolution:
    """Minimum total penalty of job copies left unscheduled.

    Machine counts are fixed; each machine gets a schedulable vector (idle
    machines the zero vector).  Selections are screened by a target that
    caps the per-type totals at the demand, forces the exact machine
    counts through indicator coordinates, and demands scheduled penalty
    mass at least delta; a binary search minimizes the dropped mass
    ``cap - delta``.
    """
    if inst.counts is None:
        raise InputError("tardy variant needs machine counts and penalties")
    a = inst.multiplicities
    d = inst.d
    m = inst.m
    pen = inst.penalties
    cap = sum(p * v for p, v in zip(pen, a))
    per_type = [schedulable_vectors(inst, i, a) for i in range(m)]
    groups = []
    for i in range(m):
        pts = []
        for x in sorted(per_type[i]):
            mark = [0] * m
            mark[i] = 1
            pts.append(tuple(x) + (sum(p * v for p, v in zip(pen, x)),)
                       + tuple(mark))
        groups.append(pts)

    def probe(dropped):
        target = box_polytope([0] * d + [cap - dropped] + list(inst.counts),
                              list(a) + [cap] + list(inst.counts))
        return select_from_generators(groups, [0] * m, target, 0)

    best, dropped = least_feasible(probe, 0, cap,
                                   lambda res: cap - int(res.target[d]))
    machines = []
    placed = [0] * d
    used = [0] * m
    for i, combo in enumerate(best.part_combinations):
        for point, mult in sorted(combo.weights.items()):
            vec = point[:d]
            schedule = extract_cyclic_schedule(per_type[i][vec], inst, i)
            validate_nonpreemptive_schedule(inst, i, vec, schedule)
            for _ in range(mult):
                machines.append((i, vec, schedule))
            used[i] += mult
            for j in range(d):
                placed[j] += mult * vec[j]
    if tuple(used) != inst.counts:
        raise InternalError("selection ignored the machine counts")
    if any(placed[j] > a[j] for j in range(d)):
        raise InternalError("scheduled more copies than demanded")
    if cap - sum(p * v for p, v in zip(pen, placed)) != dropped:
        raise InternalError("dropped penalty mass disagrees with the search")
    return ScheduleSolution(tuple(machines), dropped, tuple(placed))


# ---------------------------------------------------------------------------
# text format


def scheduling_to_text(inst: SchedulingInstance) -> str:
    variant = inst.variant
    lines = [f"{inst.d} {inst.m} {variant}"]
    for i in range(inst.m):
        for j in range(inst.d):
            r, dl, p = inst.windows[i][j]
            lines.append(f"{i} {j} {r} {dl} {p}")
    lines.append(" ".join(str(v) for v in inst.multiplicities))
    if variant == "assignment":
        lines.append(" ".join(str(c) for c in inst.costs))
    else:
        lines.append(" ".join(str(v) for v in inst.counts))
        lines.append(" ".join(str(v) for v in inst.penalties))
    return "\n".join(lines) + "\n"


def scheduling_from_text(text: str) -> SchedulingInstance:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty scheduling description")
    head = lines[0].split()
    if len(head) != 3:
        raise InputError("header must be: job-types machine-types variant")
    try:
        d, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"bad header counts: {exc}") from exc
    variant = head[2]
    if variant not in ("assignment", "preemptive", "nonpreemptive", "tardy"):
        raise InputError(f"unknown variant {variant!r}")
    need = 1 + d * m + 1 + (2 if variant == "tardy" else 1)
    if len(lines) != need:
        raise InputError(f"expected {need} lines, got {len(lines)}")
    windows = [[None] * d for _ in range(m)]
    for ln in lines[1:1 + d * m]:
        parts = ln.split()
        if len(parts) != 5:
            raise InputError(f"window line needs 5 fields: {ln!r}")
        try:
            i, j, r, dl, p = (int(v) for v in parts)
        except ValueError as exc:
            raise InputError(f"bad window line {ln!r}: {exc}") from exc
        if not (0 <= i < m and 0 <= j < d):
            raise InputError(f"window indices out of range: {ln!r}")
        if windows[i][j] is not None:
            raise InputError(f"duplicate window for machine {i} job {j}")
        windows[i][j] = (r, dl, p)
    if any(w is None for per in windows for w in per):
        raise InputError("missing window lines")

    def ints(line):
        try:
            return [int(v) for v in line.split()]
        except ValueError as exc:
            raise InputError(f"bad integer list {line!r}: {exc}") from exc

    mult = ints(lines[1 + d * m])
    if len(mult) != d:
        raise InputError(f"expected {d} multiplicities")
    if variant != "tardy":
        costs = ints(lines[2 + d * m])
        if len(costs) != m:
            raise InputError(f"expected {m} machine costs")
        return SchedulingInstance(windows, mult, costs=costs, variant=variant)
    counts = ints(lines[2 + d * m])
    penalties = ints(lines[3 + d * m])
    if len(counts) != m:
        raise InputError(f"expected {m} machine counts")
    if len(penalties) != d:
        raise InputError(f"expected {d} penalties")
    return SchedulingInstance(windows, mult, counts=counts,
                              penalties=penalties)
