"""Command-line front end: solve instance files, dump covers and hulls,
cross-check solvers against the brute-force oracles.

``verify`` checks every objective it prints against an oracle: a packing
or an assignment against ``oracle.exact_cover_cost`` over the vectors
within the demand that one bin or machine of each type holds, at that
type's cost, and a tardy penalty against ``oracle.tardy_exhaustive``.
A preemptive machine type's part, the EDF rows that the solver keeps
(``scheduling._edf_rows``) clipped to the demand, is checked against
``edf_simulate`` over small boxes.

Exit codes: 0 solved / all checks pass, 1 infeasible, 2 parse or usage
error, 3 resource budget exceeded, 4 solver/oracle disagreement or
internal inconsistency (a bug signal, never an input problem).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from itertools import product

from .budget import limit
from .errors import (InfeasibleError, InputError, InternalError,
                     ResourceError)
from . import scheduling
from .geometry import (Polytope, down_closed_polytope, extreme_points,
                       integer_hull_vertices, lattice_points,
                       parallelepiped_cover)
from .oracle import (BP_BRUTE_ITEM_CAP, _patterns_within, cover_verify,
                     exact_cover_cost, fractional_opt,
                     nonpreemptive_brute_counts, tardy_exhaustive)
from .rational import Rat, rat_ceil
from .scheduling import (SchedulingInstance, edf_simulate,
                         nonpreemptive_assign, nonpreemptive_completable,
                         preemptive_assign, tardy_min_penalty,
                         validate_nonpreemptive_schedule,
                         validate_preemptive_schedule)
from .solver import (BinPackingInstance, CuttingStockInstance, cutting_stock,
                     verify_solution)


# ---------------------------------------------------------------------------
# instance files


# ASCII tokens only: int() also reads "+3", "1_0" and non-ASCII digits
_INTEGER = re.compile("-?[0-9]+").fullmatch
_RATIONAL = re.compile("(-?[0-9]+)(?:/(-?[0-9]+))?").fullmatch


class _Lines:
    """The non-blank lines of an instance file, split into tokens and read
    in order.  Every diagnostic names the line of the file it is about."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.rows = [(n, toks) for n, line in enumerate(lines, start=1)
                     if (toks := line.split())]
        self.eof = len(lines) + 1
        self.next = 0
        self.lineno = 1

    def error(self, msg: str) -> InputError:
        return InputError(f"line {self.lineno}: {msg}")

    def need(self, count: int) -> None:
        """Fail unless the ``count`` lines that the header just read
        announces remain: no loop is sized by a count before the file is
        known to hold the lines it announces."""
        if len(self.rows) - self.next < count:
            header, self.lineno = self.lineno, self.eof
            raise self.error(f"unexpected end of file, line {header} "
                             f"announces {count} more lines")

    def line(self, width: int, what: str) -> list:
        """The tokens of the next line, which must hold ``width`` of them."""
        if self.next == len(self.rows):
            self.lineno = self.eof
            raise self.error(f"unexpected end of file, expected {what}")
        self.lineno, toks = self.rows[self.next]
        self.next += 1
        if len(toks) != width:
            raise self.error(f"expected {what}, got {' '.join(toks)!r}")
        return toks

    def integer(self, token: str) -> int:
        try:
            return int(_INTEGER(token)[0])
        except (TypeError, ValueError):  # no match, or past int's digit cap
            raise self.error(f"expected integer, got {token!r}") from None

    def integers(self, width: int, what: str) -> list:
        return [self.integer(t) for t in self.line(width, what)]

    def rational(self, token: str) -> Rat:
        """``p`` or ``p/q``, with integers ``p`` and ``q != 0``."""
        try:
            match = _RATIONAL(token)
            p, q = int(match[1]), int(match[2] or 1)
        except (TypeError, ValueError):  # no match, or past int's digit cap
            raise self.error(f"bad rational {token!r}") from None
        if q == 0:
            raise self.error(f"zero denominator in {token!r}")
        return Rat(p, q)

    def count(self, token: str, what: str) -> int:
        """A header count, which must be at least 1."""
        n = self.integer(token)
        if n < 1:
            raise self.error(f"{what} must be at least 1, got {n}")
        return n

    def build(self, cls, *args, **kwargs):
        """``cls(*args, **kwargs)``: the instance class checks the values.
        Its ``InputError`` is raised again naming the lines the instance
        was read from, from the one after the kind line to the last."""
        try:
            return cls(*args, **kwargs)
        except InputError as exc:
            raise InputError(
                f"lines {self.rows[1][0]}-{self.lineno}: {exc}") from exc

    def end(self) -> None:
        if self.next < len(self.rows):
            self.lineno = self.rows[self.next][0]
            raise self.error("trailing content")


def _pairs(src: _Lines, what: str, shape: str) -> list:
    """A line holding ``what``, a count, then that many lines ``shape``: a
    rational and an integer each."""
    n = src.count(src.line(1, what)[0], what)
    src.need(n)
    pairs = []
    for _ in range(n):
        a, b = src.line(2, shape)
        pairs.append((src.rational(a), src.integer(b)))
    return pairs


def _binpacking(src: _Lines) -> BinPackingInstance:
    sizes, mults = zip(*_pairs(src, "the number of item types",
                               "'size multiplicity'"))
    return src.build(BinPackingInstance, sizes, mults)


def _cuttingstock(src: _Lines) -> CuttingStockInstance:
    sizes, mults = zip(*_pairs(src, "the number of item types",
                               "'size multiplicity'"))
    bins = _pairs(src, "the number of bin types", "'capacity cost'")
    return src.build(CuttingStockInstance, sizes, mults, bins)


def _scheduling(src: _Lines) -> SchedulingInstance:
    d, m, variant = src.line(3, "'job-types machine-types variant'")
    d = src.count(d, "the number of job types")
    m = src.count(m, "the number of machine types")
    tardy = variant == "tardy"
    src.need(d * m + 2 + tardy)
    windows = {}
    for _ in range(d * m):
        i, j, r, dl, p = src.integers(
            5, "'machine job release deadline length'")
        if not (0 <= i < m and 0 <= j < d):
            raise src.error(f"window indices ({i}, {j}) out of range")
        if (i, j) in windows:
            raise src.error(f"duplicate window for machine {i} job {j}")
        windows[i, j] = (r, dl, p)
    table = [[windows[i, j] for j in range(d)] for i in range(m)]
    mult = src.integers(d, f"{d} multiplicities")
    if tardy:
        data = {"counts": src.integers(m, f"{m} machine counts"),
                "penalties": src.integers(d, f"{d} penalties")}
    else:
        data = {"costs": src.integers(m, f"{m} machine costs")}
    return src.build(SchedulingInstance, table, mult, variant=variant, **data)


def _polytope(src: _Lines) -> Polytope:
    m, d = src.line(2, "'rows dimension'")
    m = src.count(m, "the number of rows")
    d = src.count(d, "the dimension")
    src.need(m)
    what = f"{d + 1} integers 'a_1 .. a_d b'"
    rows = [src.integers(d + 1, what) for _ in range(m)]
    return src.build(Polytope, [row[:-1] for row in rows],
                     [row[-1] for row in rows])


_READERS = {"binpacking": _binpacking, "cuttingstock": _cuttingstock,
            "scheduling": _scheduling, "polytope": _polytope}


def parse_instance_text(text: str):
    """Returns (kind, instance) for the tagged instance formats.

    Only the format is read here; the instance classes check the values.
    A format diagnostic names its line (``line N: ...``), a value error the
    lines the instance was read from (``lines M-N: ...``).
    """
    src = _Lines(text)
    (kind,) = src.line(1, "an instance kind")
    if kind not in _READERS:
        raise src.error(f"unknown instance kind {kind!r}")
    inst = _READERS[kind](src)
    src.end()
    return kind, inst


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text)


def _load_polytope(path: str, command: str) -> Polytope:
    """The polytope of a polytope file; an ``InputError`` naming
    ``command`` for a file of any other kind."""
    kind, poly = _load(path)
    if kind != "polytope":
        raise InputError(f"{command} expects a polytope file")
    return poly


# ---------------------------------------------------------------------------
# solution JSON


def _packing_json(kind, sol, mode):
    bins = []
    for pattern, bin_type, count in sorted(sol.patterns):
        entry = {"pattern": [int(v) for v in pattern], "count": int(count)}
        if kind == "cuttingstock":
            entry["bin_type"] = int(bin_type)
        bins.append(entry)
    return {"kind": kind, "opt": int(sol.objective), "mode": mode,
            "bins": bins}


def _schedule_json(inst, sol):
    machines = []
    for mtype, vec, schedule in sol.machines:
        machines.append({
            "type": int(mtype),
            "jobs": [int(v) for v in vec],
            "schedule": [[int(a), int(b), int(c), int(e)]
                         for a, b, c, e in schedule],
        })
    out = {"kind": "scheduling", "variant": inst.variant,
           "objective": int(sol.objective), "machines": machines}
    if sol.scheduled is not None:
        out["scheduled"] = [int(v) for v in sol.scheduled]
    return out


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    kind, inst = _load(args.path)
    if kind in ("binpacking", "cuttingstock"):
        sol = cutting_stock(inst, mode=args.mode)
        _emit(_packing_json(kind, sol, args.mode))
        return 0
    if kind == "scheduling":
        if inst.variant == "nonpreemptive":
            sol = nonpreemptive_assign(inst)
        elif inst.variant == "tardy":
            sol = tardy_min_penalty(inst)
        else:
            sol = preemptive_assign(inst, mode=args.mode)
        _emit(_schedule_json(inst, sol))
        return 0
    raise InputError("polytope files have no solve semantics; "
                     "use cover or hull")


def cmd_cover(args) -> int:
    poly = _load_polytope(args.path, "cover")
    cover = parallelepiped_cover(poly)

    def key(pp):
        return (tuple(pp.center),
                tuple(tuple(dvec) for dvec in pp.directions))

    dump = [[
        [str(c) for c in pp.center],
        [[str(v) for v in dvec] for dvec in pp.directions],
    ] for pp in sorted(cover, key=key)]
    if args.json:
        _emit({"cover": [{"center": c, "directions": d} for c, d in dump]})
        return 0
    for center, dirs in dump:
        parts = ["center " + " ".join(center)]
        parts.extend("dir " + " ".join(dv) for dv in dirs)
        sys.stdout.write(" | ".join(parts) + "\n")
    return 0


def cmd_hull(args) -> int:
    poly = _load_polytope(args.path, "hull")
    verts = integer_hull_vertices(poly)
    if args.json:
        _emit({"vertices": [list(v) for v in verts]})
        return 0
    for v in verts:
        sys.stdout.write(" ".join(str(c) for c in v) + "\n")
    return 0


class _Report:
    def __init__(self, as_json):
        self.checks = []
        self.as_json = as_json

    def add(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def finish(self) -> int:
        if self.as_json:
            _emit({"checks": self.checks,
                   "ok": all(c["ok"] for c in self.checks)})
        else:
            for c in self.checks:
                status = "OK" if c["ok"] else "FAIL"
                tail = f" ({c['detail']})" if c["detail"] else ""
                sys.stdout.write(f"{c['check']}: {status}{tail}\n")
        return 0 if all(c["ok"] for c in self.checks) else 4


def _brute_objective(report, objective, demand, options):
    """Report ``objective`` against the oracle's least exact cover of
    ``demand`` by the ``(vector, cost)`` options, a generator.  A demand of
    more than ``BP_BRUTE_ITEM_CAP`` items raises ``ResourceError`` before
    the generator lists any option."""
    total = sum(demand)
    if total > BP_BRUTE_ITEM_CAP:
        raise ResourceError("exact cover brute force", BP_BRUTE_ITEM_CAP,
                            f"demand of {total} items")
    oracle = exact_cover_cost(options, demand)
    report.add("objective equals brute force", objective == oracle,
               f"solver={objective} oracle={oracle}")


def _verify_packing(inst, mode, report):
    """Bin packing and cutting stock alike: the objective against the
    least exact cover by every bin type's patterns within the demand.  With
    the one unit bin type ``(1, 1)`` the instance is bin packing, and the
    fractional bounds apply too."""
    sol = cutting_stock(inst, mode=mode)
    verify_solution(inst, sol)
    report.add("solution verifies", True)
    other = "joint" if mode == "faithful" else "faithful"
    alt = cutting_stock(inst, mode=other)
    report.add("modes agree", alt.objective == sol.objective,
               f"{mode}={sol.objective} {other}={alt.objective}")
    a = inst.multiplicities
    _brute_objective(report, sol.objective, a, (
        (p, cost) for capacity, cost in inst.bin_types
        for p in _patterns_within(inst.sizes, a, capacity)))
    if inst.bin_types != ((1, 1),):
        return
    bound = rat_ceil(fractional_opt(inst.sizes, a))
    detail = f"opt={sol.objective} ceil(frac)={bound}"
    if inst.dim <= 2:
        report.add("round-up of the fractional optimum",
                   sol.objective == bound, detail)
    else:
        report.add("fractional lower bound", sol.objective >= bound, detail)


def _schedule_boxes(inst, per_dim_cap, total_cap):
    vecs = [()]
    for j in range(inst.d):
        hi = min(inst.multiplicities[j], per_dim_cap)
        vecs = [v + (k,) for v in vecs for k in range(hi + 1)]
    return [v for v in vecs if 0 < sum(v) <= total_cap]


def _verify_assignment(report, inst, sol, validate, schedulable):
    """Each machine's schedule is validated, the machines meet the demand
    at the objective's cost, and the objective is the least exact cover by
    the non-zero vectors ``x`` of the demand box that ``schedulable(x, i)``
    accepts on machine type ``i``, each at ``costs[i]``."""
    placed = [0] * inst.d
    cost = 0
    for mtype, vec, schedule in sol.machines:
        validate(inst, mtype, vec, schedule)
        placed = [p + v for p, v in zip(placed, vec)]
        cost += inst.costs[mtype]
    a = inst.multiplicities
    report.add("machines meet the demand at the objective's cost",
               tuple(placed) == a and cost == sol.objective,
               f"placed={placed} cost={cost}")
    _brute_objective(report, sol.objective, a, (
        (x, c) for i, c in enumerate(inst.costs)
        for x in product(*(range(v + 1) for v in a))
        if any(x) and schedulable(x, i)))


def _verify_scheduling(inst, mode, report):
    if inst.variant in ("assignment", "preemptive"):
        for i in range(inst.m):
            # the part the solver probes: the EDF rows it keeps, looked up
            # when verify runs, clipped to the demand
            part = down_closed_polytope(*scheduling._edf_rows(inst, i),
                                        inst.multiplicities)
            bad = 0
            for x in _schedule_boxes(inst, 3, 6):
                if part.contains_int(x) != edf_simulate(x, inst, i).feasible:
                    bad += 1
            report.add(f"EDF polytope matches simulator (machine type {i})",
                       bad == 0, f"{bad} disagreements")
        _verify_assignment(report, inst, preemptive_assign(inst, mode=mode),
                           validate_preemptive_schedule,
                           lambda x, i: edf_simulate(x, inst, i).feasible)
        return
    for i in range(inst.m):
        bad = 0
        for x in _schedule_boxes(inst, 2, 5):
            mine = nonpreemptive_completable(x, inst, i) is not None
            brute = nonpreemptive_brute_counts(x, inst, i,
                                               horizon_cap=10 ** 6) is not None
            if mine != brute:
                bad += 1
        report.add(f"cycle polytope matches brute force (machine type {i})",
                   bad == 0, f"{bad} disagreements")
    if inst.variant == "nonpreemptive":
        _verify_assignment(report, inst, nonpreemptive_assign(inst),
                           validate_nonpreemptive_schedule,
                           lambda x, i: nonpreemptive_brute_counts(
                               x, inst, i, horizon_cap=10 ** 6) is not None)
    else:
        sol = tardy_min_penalty(inst)
        paid = sum(p * (a - s) for p, a, s in
                   zip(inst.penalties, inst.multiplicities, sol.scheduled))
        report.add("penalty accounting", paid == sol.objective,
                   f"objective={sol.objective} recomputed={paid}")
        oracle = tardy_exhaustive(inst, horizon_cap=10 ** 6)
        report.add("objective equals brute force", sol.objective == oracle,
                   f"solver={sol.objective} oracle={oracle}")


def _verify_polytope(poly, report):
    cover = parallelepiped_cover(poly)
    rep = cover_verify(poly, cover)
    detail = "" if rep.ok else "; ".join(
        str(v) for v in rep.violations[:3])
    report.add("parallelepiped cover verifies", rep.ok, detail)
    verts = integer_hull_vertices(poly)
    inside = all(poly.contains_int(v) for v in verts)
    report.add("hull vertices lie in the polytope", inside,
               f"{len(verts)} vertices")
    # the hull from the enumerator's runs against the hull from runs
    # derived from the sorted lattice: a wrong run kept by the enumerator
    # shows as a different hull
    direct = extreme_points(lattice_points(poly))
    report.add("hull equals the hull of the lattice", verts == direct,
               f"{len(verts)} and {len(direct)} vertices")


def cmd_verify(args) -> int:
    kind, inst = _load(args.path)
    report = _Report(args.json)
    if kind in ("binpacking", "cuttingstock"):
        _verify_packing(inst, args.mode, report)
    elif kind == "scheduling":
        _verify_scheduling(inst, args.mode, report)
    else:
        _verify_polytope(inst, report)
    return report.finish()


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conepack",
        description="exact bin packing, cutting stock and high-multiplicity "
                    "scheduling solvers")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, solves=True):
        if solves:
            p.add_argument("--mode", choices=("faithful", "joint"),
                           default="faithful")
            p.add_argument("--budget", type=int, default=None,
                           help="work budget of the whole request: simplex "
                                "pivots, group states and branch-and-bound "
                                "nodes")
        p.add_argument("--json", action="store_true",
                       help="structured output")

    p = sub.add_parser("solve", help="solve an instance file, print JSON")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("cover", help="dump the parallelepiped cover")
    p.add_argument("path")
    common(p, solves=False)
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("hull", help="dump integer hull vertices")
    p.add_argument("path")
    common(p, solves=False)
    p.set_defaults(fn=cmd_hull)

    p = sub.add_parser("verify", help="cross-check solvers against oracles")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return ap


def _request_limit(args):
    """The work limit of ``--budget``; no limit when it is absent.
    ``budget.limit`` reads the value, and its error names the option."""
    budget = getattr(args, "budget", None)
    if budget is None:
        return nullcontext()
    try:
        return limit(budget)
    except InputError as exc:
        raise InputError(f"--budget: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _request_limit(args):
            return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 1
    except InternalError as exc:
        sys.stderr.write(f"internal inconsistency (bug): {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
