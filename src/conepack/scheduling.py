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
  ``_cycle_program`` writes that program once, as rows and coordinate
  bounds: with x free it is the polytope that
  ``build_nonpreemptive_polytope`` builds, with x pinned the integer
  program of ``nonpreemptive_completable``.

All three objectives run ``solver.cheapest_cover``, so none has a search
of its own.  The assignments open machines of each type at a cost to meet
the whole demand: a preemptive machine type is a down-closed part, the
interval-load rows that can bind (``_edf_rows``: each distinct non-zero
row at its least width) clipped to the demand, whose points are listed
from those rows; a preemptive probe is a ``multi_polytope_select`` over
the parts' polytopes, a non-preemptive one a
``select_from_generators`` over the enumerated schedulable vectors, whose
``(points, cost)`` parts are the window's parts too.  The tardy variant
(machine counts fixed, pay per dropped job copy) covers the demand and
the machine counts together: each machine's vector carries a marker of
its type at cost 0, and each dropped copy is a unit point at its penalty.
A pinned cycle program goes to ``ilp_feasible`` as its rows and bounds,
its witness is re-checked against the free program by the ILP's own
witness test, with no polytope built, and a cycle certificate's entries
are read back through ``rational.integer``.  Every polytope here is
written by ``geometry.bounded_polytope``.  All returned schedules are
re-validated from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .errors import InputError, InternalError, ResourceError
from .geometry import Polytope, bounded_polytope, down_closed_lattice
from .ilp import _satisfies, ilp_feasible
from .rational import integer
from .solver import (_check_mode, _multiplicities, _polytope_cover,
                     cheapest_cover, select_from_generators)


# ---------------------------------------------------------------------------
# instance


def _integers(values, what: str) -> Optional[tuple]:
    """``values`` as a tuple of ints (None stays None); an ``InputError``
    unless each is integral."""
    return None if values is None else tuple(integer(v, what)
                                             for v in values)


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
        self.windows = tuple(tuple(_integers(w, "window entry")
                                   for w in per_machine)
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
            for j, window in enumerate(per_machine):
                if len(window) != 3:
                    raise InputError(f"job {j} on machine type {i}: window "
                                     f"{window} is not (release, deadline, "
                                     "length)")
                r, dl, p = window
                if r < 0 or dl < r:
                    raise InputError(
                        f"job {j} on machine type {i}: window [{r}, {dl}]")
                if p < 1:
                    raise InputError(
                        f"job {j} on machine type {i}: length {p} < 1")
        self.multiplicities = _multiplicities(multiplicities)
        if len(self.multiplicities) != self.d:
            raise InputError("multiplicities must cover every job type")
        self.costs = _integers(costs, "machine cost")
        self.counts = _integers(counts, "machine count")
        self.penalties = _integers(penalties, "penalty")
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

    def critical_points(self, machine_type: int) -> tuple:
        """Sorted distinct releases and deadlines of one machine type."""
        vals = set()
        for r, dl, _p in _machine_windows(self, machine_type):
            vals.add(r)
            vals.add(dl)
        return tuple(sorted(vals))

    def horizon(self, machine_type: int) -> int:
        return max(dl for _r, dl, _p in _machine_windows(self, machine_type))


def _machine_windows(inst: SchedulingInstance, machine_type) -> tuple:
    """The windows of machine type ``machine_type``: the one lookup of
    ``inst.windows``.  An ``InputError`` unless it is an integer in
    0..m-1."""
    i = integer(machine_type, "machine type")
    if not 0 <= i < inst.m:
        raise InputError(f"machine type {i} is not in 0..{inst.m - 1}")
    return inst.windows[i]


def _job_vector(inst: SchedulingInstance, x) -> tuple:
    """``x`` as a tuple of ``inst.d`` non-negative ints, or an
    ``InputError``: the one reader of a job vector."""
    x = _integers(x, "job count")
    if len(x) != inst.d:
        raise InputError(f"job vector {x} needs {inst.d} counts")
    if any(v < 0 for v in x):
        raise InputError(f"job vector {x} has a negative count")
    return x


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


def _interval_loads(inst: SchedulingInstance, machine_type: int) -> list:
    """``((t1, t2), row)`` for each pair t1 <= t2 of the machine type's
    critical points, ordered by t1 then t2.

    ``row[j]`` is job j's length when its whole window sits inside
    [t1, t2], else 0, so ``row . x`` is the work x must do in the interval.
    """
    windows = _machine_windows(inst, machine_type)
    points = inst.critical_points(machine_type)
    return [((t1, t2), [p if r >= t1 and dl <= t2 else 0
                        for r, dl, p in windows])
            for a, t1 in enumerate(points) for t2 in points[a:]]


def _overloaded(x: Sequence[int], inst: SchedulingInstance,
                machine_type: int) -> Optional[tuple]:
    """The first critical interval (t1, t2) whose load under x exceeds
    its length, or None when x meets every interval."""
    for (t1, t2), row in _interval_loads(inst, machine_type):
        if sum(p * v for p, v in zip(row, x)) > t2 - t1:
            return t1, t2
    return None


def build_edf_polytope(inst: SchedulingInstance, machine_type: int) -> Polytope:
    """Interval-load constraints over the machine type's critical points.

    One row per ordered pair t1 <= t2: jobs whose whole window sits inside
    [t1, t2] contribute their full length, and the total must fit.  The
    rows ``-x_j <= 0`` follow.
    """
    loads = _interval_loads(inst, machine_type)
    return bounded_polytope([row for _t, row in loads],
                            [t2 - t1 for (t1, t2), _row in loads],
                            [0] * inst.d, [None] * inst.d)


def _edf_rows(inst: SchedulingInstance, machine_type: int) -> tuple:
    """The interval-load rows of ``build_edf_polytope`` that can bind, as
    ``(rows, rhs)``: each distinct non-zero row once, in first-seen order,
    at the least width of its intervals.

    An all-zero row says ``0 <= t2 - t1``, and a repeated row never binds
    at a wider interval, so the rows keep the lattice of every box and
    number at most ``2^d - 1``.  Lengths and widths are non-negative, so
    clipped to a non-negative box the part is down-closed.
    """
    width = {}
    for (t1, t2), row in _interval_loads(inst, machine_type):
        row = tuple(row)
        if any(row) and t2 - t1 < width.get(row, t2 - t1 + 1):
            width[row] = t2 - t1
    return list(width), list(width.values())


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
    windows = _machine_windows(inst, machine_type)
    x = _job_vector(inst, x)
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
    violation = _overloaded(x, inst, machine_type)
    if violation is None:
        raise InternalError("deadline missed but every interval fits")
    return EdfResult(False, None, violation)


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


def _segment_window(windows: tuple, segment: tuple) -> tuple:
    """The window of the job type a schedule segment names; an
    ``InternalError`` unless the type exists."""
    job_type = segment[0]
    if job_type not in range(len(windows)):
        raise InternalError(f"segment {segment} names no job type "
                            f"{job_type!r}")
    return windows[job_type]


def validate_preemptive_schedule(inst: SchedulingInstance, machine_type: int,
                                 x: Sequence[int], schedule: Sequence) -> None:
    """Exact checks: windows, full lengths, one job at a time.  A segment
    that is not ``(job type, copy, start, end)`` is an InternalError."""
    windows = _machine_windows(inst, machine_type)
    x = _job_vector(inst, x)
    work = {}
    spans = []
    for segment in schedule:
        try:
            job_type, copy, start, end = segment
        except (TypeError, ValueError) as exc:
            raise InternalError(f"segment {segment!r} is not (job type, "
                                f"copy, start, end)") from exc
        r, dl, p = _segment_window(windows, segment)
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
    cycles: int

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


def _cycle_program(inst: SchedulingInstance, machine_type: int, cycles: int,
                   x: Optional[tuple] = None) -> tuple:
    """The cycle program over ``CycleLayout(inst.d, cycles)``, as ``(rows,
    rhs, lo, hi)``, a None bound leaving its side open.

    Without ``x`` it is the cycle polytope: every host coefficient, which
    bounds y_{j,k} against z_{j,k}, is the horizon, tau and y are at least
    0, and z lies in [0, 1].  With a job vector ``x`` it is the program
    that completes x: the counts x and the dummy count (the idle time) are
    pinned, type j's host coefficient shrinks to ``max(1, x_j)`` (no cycle
    holds more copies than exist), each y is capped by its type's copies
    (the dummy's by the idle time), tau by the horizon, and z is fixed at
    0 for a type with no copy.
    """
    windows = _machine_windows(inst, machine_type)
    layout = CycleLayout(inst.d, cycles)
    d, C, D = inst.d, cycles, layout.dim
    delta = inst.horizon(machine_type)
    lengths = [1] + [p for _r, _dl, p in windows]  # dummy type first
    lo = [None] * (d + 1) + [0] * (D - d - 1)
    hi = [None] * D
    for j in range(1, d + 1):
        for k in range(1, C + 1):
            hi[layout.z(j, k)] = 1
    host = [delta] * (d + 1)
    if x is not None:
        counts = (delta - sum(p * v for p, v in zip(lengths[1:], x)), *x)
        host = [max(1, v) for v in counts]
        for j, v in enumerate(counts):
            col = layout.x0 if j == 0 else layout.x(j)
            lo[col] = hi[col] = v
            for k in range(1, C + 1):
                hi[layout.y(j, k)] = v
                if j:
                    hi[layout.z(j, k)] = min(1, v)
        for k in range(1, C + 1):
            hi[layout.tau(k)] = delta
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
            row[layout.z(j, k)] = -host[j]
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
    return rows, rhs, lo, hi


def build_nonpreemptive_polytope(inst: SchedulingInstance,
                                 machine_type: int) -> Polytope:
    """Cycle polytope whose integer projection is the schedulable vectors.

    Variables follow ``CycleLayout`` with 4d cycles.  A job vector x is
    schedulable on one machine of this type exactly when integral cycle
    variables complete it inside this polytope.
    """
    return bounded_polytope(*_cycle_program(inst, machine_type, 4 * inst.d))


def nonpreemptive_completable(x: Sequence[int], inst: SchedulingInstance,
                              machine_type: int):
    """Integral cycle variables completing x, or None.

    Solves ``_cycle_program`` with x pinned, whose host coefficients are
    the copy counts, not the horizon.  The cycle count shrinks to 2*(total
    copies)+1 when that beats 4d (worst case, every copy sits in its own
    cycle with a pure idle cycle before it, plus one trailing idle
    cycle).  The witness stays in the ``CycleLayout`` it was solved in,
    and is re-checked, by the ILP's own witness test, against that
    layout's cycle program without x.
    """
    x = _job_vector(inst, x)
    # necessary condition: preemptive schedulability (refuses dummy < 0)
    if _overloaded(x, inst, machine_type) is not None:
        return None
    cycles = min(4 * inst.d, 2 * sum(x) + 1)
    res = ilp_feasible(*_cycle_program(inst, machine_type, cycles, x))
    if not res.feasible:
        return None
    if not _satisfies(*_cycle_program(inst, machine_type, cycles),
                      res.witness):
        raise InternalError("cycle witness escapes its cycle polytope")
    return res.witness


def extract_cyclic_schedule(aux: Sequence[int], inst: SchedulingInstance,
                            machine_type: int) -> tuple:
    """Read start/end times out of cycle variables.

    The cycle count C follows from the length of ``aux``, which must be
    ``CycleLayout(d, C).dim`` for some C >= 1.  Each cycle runs its copies
    in type order, dummy first; real copies become (job_type, copy, start,
    end) entries.  Cycle boundaries are cross-checked against the tau
    variables.  Each entry is read through ``rational.integer``, so a
    non-integral one raises ``InputError`` naming it.
    """
    d = inst.d
    aux = _integers(aux, "auxiliary entry")
    cycles, rest = divmod(len(aux) - d - 1, 2 * d + 2)
    if cycles < 1 or rest:
        raise InputError(f"auxiliary vector of length {len(aux)} fits no "
                         f"cycle layout for {d} job types")
    layout = CycleLayout(d, cycles)
    windows = _machine_windows(inst, machine_type)
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
    """The preemptive checks, and every segment runs its job's whole
    length, so each job copy is one segment."""
    validate_preemptive_schedule(inst, machine_type, x, schedule)
    windows = _machine_windows(inst, machine_type)
    for job_type, copy, start, end in schedule:
        if end - start != windows[job_type][2]:
            raise InternalError(f"job {job_type}#{copy} is preempted")


# ---------------------------------------------------------------------------
# assignment variants


MACHINE_COPY_CAP = 10 ** 7


def _machines(picks, d: int, schedule_of) -> tuple:
    """The machines of a selection's machine picks and the job copies they
    place.

    Each copy of a pick ``(i, point, copies)`` becomes one ``(i, vector,
    schedule)`` entry, in pick order, where the vector is the point's first
    ``d`` coordinates and ``schedule_of(i, vector)`` returns its validated
    schedule on machine type i.  Returns ``(machines, placed)``, ``placed``
    totalling the vectors per job type.  More than ``MACHINE_COPY_CAP``
    copies raise ``ResourceError`` before any entry is built.
    """
    copies = sum(mult for _i, _point, mult in picks)
    if copies > MACHINE_COPY_CAP:
        raise ResourceError("machine list", MACHINE_COPY_CAP,
                            f"{copies} machine copies")
    machines = []
    placed = [0] * d
    for i, point, mult in picks:
        vec = point[:d]
        machines += [(i, vec, schedule_of(i, vec))] * mult
        placed = [t + mult * v for t, v in zip(placed, vec)]
    return tuple(machines), tuple(placed)


def _cyclic_schedule(inst: SchedulingInstance, per_type, i: int,
                     vec: tuple) -> tuple:
    """The validated schedule of ``vec`` on machine type i, read from its
    cycle auxiliaries in ``per_type[i]`` (see ``schedulable_vectors``)."""
    schedule = extract_cyclic_schedule(per_type[i][vec], inst, i)
    validate_nonpreemptive_schedule(inst, i, vec, schedule)
    return schedule


def preemptive_assign(inst: SchedulingInstance,
                      mode: str = "faithful") -> ScheduleSolution:
    """Cheapest machine multiset covering the demand with EDF schedules.

    ``solver._polytope_cover`` over the EDF rows clipped to the demand:
    ``cheapest_cover``, each probe a ``multi_polytope_select``.
    """
    _check_mode(mode)
    if inst.costs is None:
        raise InputError("assignment needs machine costs")
    a = inst.multiplicities
    parts = [(*_edf_rows(inst, i), inst.costs[i]) for i in range(inst.m)]
    best = _polytope_cover(a, parts, mode)

    def simulated(i, vec):
        sim = edf_simulate(vec, inst, i)
        if not sim.feasible:
            raise InternalError(
                f"selected vector {vec} fails its own simulation")
        validate_preemptive_schedule(inst, i, vec, sim.schedule)
        return sim.schedule

    machines, placed = _machines(best.picks, inst.d, simulated)
    if placed != a:
        raise InternalError("assignment does not meet the demand")
    return ScheduleSolution(machines, best.total_cost)


def schedulable_vectors(inst: SchedulingInstance, machine_type: int,
                        box_hi: Sequence[int]) -> dict:
    """All non-preemptively schedulable vectors within the box, with proofs.

    Maps x -> cycle auxiliaries.  A non-preemptive schedule is also a
    preemptive one, so the candidates are the points that
    ``down_closed_lattice`` lists from the EDF rows clipped to the box,
    which the horizon bounds however large the box is; they are tried by
    total count, then lexicographically.
    Dropping copies keeps a schedule feasible, so supersets of the vectors
    the cycle ILP refuted are skipped outright; only those are kept, since
    a superset of a skipped vector is a superset of a refuted one.  The
    box is read as ``d`` integers, or an ``InputError``; a box with a
    negative side holds no vector.
    """
    _machine_windows(inst, machine_type)
    box_hi = _integers(box_hi, "box side")
    d = inst.d
    if len(box_hi) != d:
        raise InputError(f"box {box_hi} needs {d} sides")
    if any(v < 0 for v in box_hi):
        return {}
    feasible = {}
    infeasible = set()
    candidates = sorted(
        down_closed_lattice(*_edf_rows(inst, machine_type), box_hi),
        key=lambda g: (sum(g), g))
    for x in candidates:
        if any(all(x[j] >= b[j] for j in range(d)) for b in infeasible):
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
    polytopes; they are enumerated explicitly (``schedulable_vectors``)
    inside the demand box and fed to ``solver.cheapest_cover``, each probe
    a ``select_from_generators`` over them.
    """
    if inst.costs is None:
        raise InputError("assignment needs machine costs")
    a = inst.multiplicities
    per_type = [schedulable_vectors(inst, i, a) for i in range(inst.m)]
    parts = [(sorted(vecs), c) for vecs, c in zip(per_type, inst.costs)]
    best = cheapest_cover(a, parts, partial(select_from_generators, parts))
    machines, placed = _machines(best.picks, inst.d,
                                 partial(_cyclic_schedule, inst, per_type))
    if placed != a:
        raise InternalError("assignment does not meet the demand")
    return ScheduleSolution(machines, best.total_cost)


def tardy_min_penalty(inst: SchedulingInstance) -> ScheduleSolution:
    """Minimum total penalty of job copies left unscheduled.

    A ``solver.cheapest_cover`` of the demand ``(a, counts)``, one
    coordinate per job type and one marker per machine type.  Machine type
    i's part holds ``(x, e_i)`` at cost 0 for each schedulable vector x,
    the idle zero vector included, so a cover opens exactly ``counts_i``
    machines of type i; job type j's part holds ``(e_j, 0)`` at
    ``penalty_j``, one dropped copy.  A cover's cost is the penalty it
    drops, and each probe is a ``select_from_generators`` over the parts.
    """
    if inst.counts is None:
        raise InputError("tardy variant needs machine counts and penalties")
    a, d, m = inst.multiplicities, inst.d, inst.m
    per_type = [schedulable_vectors(inst, i, a) for i in range(m)]
    parts = [([x + (0,) * i + (1,) + (0,) * (m - i - 1) for x in sorted(vecs)],
              0) for i, vecs in enumerate(per_type)]
    parts += [([(0,) * j + (1,) + (0,) * (d + m - j - 1)], p)
              for j, p in enumerate(inst.penalties)]
    best = cheapest_cover(a + inst.counts, parts,
                          partial(select_from_generators, parts))
    picks = [pick for pick in best.picks if pick[0] < m]
    machines, placed = _machines(picks, d,
                                 partial(_cyclic_schedule, inst, per_type))
    used = tuple(sum(w for i, _x, w in picks if i == k) for k in range(m))
    if used != inst.counts:
        raise InternalError("selection ignored the machine counts")
    dropped = [0] * d
    for i, _x, w in best.picks:
        if i >= m:
            dropped[i - m] += w
    if any(s + t != v for s, t, v in zip(placed, dropped, a)):
        raise InternalError("placed and dropped copies miss the demand")
    if sum(p * t for p, t in zip(inst.penalties, dropped)) != best.total_cost:
        raise InternalError("dropped penalty disagrees with the search")
    return ScheduleSolution(machines, best.total_cost, placed)
