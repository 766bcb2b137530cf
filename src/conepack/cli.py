"""Command-line front end: solve instance files, dump covers and hulls,
cross-check solvers against the brute-force oracles.

Exit codes: 0 solved / all checks pass, 1 infeasible, 2 parse or usage
error, 3 resource budget exceeded, 4 solver/oracle disagreement or
internal inconsistency (a bug signal, never an input problem).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .budget import limit
from .errors import (InfeasibleError, InputError, InternalError,
                     ResourceError)
from .geometry import (integer_hull_vertices, parallelepiped_cover,
                       polytope_from_text)
from .oracle import (bp_brute_force, cover_verify, fractional_opt,
                     nonpreemptive_brute_counts)
from .rational import Rat, rat_ceil
from .scheduling import (build_edf_polytope, edf_simulate,
                         nonpreemptive_assign, nonpreemptive_completable,
                         preemptive_assign, scheduling_from_text,
                         tardy_min_penalty, validate_nonpreemptive_schedule,
                         validate_preemptive_schedule)
from .solver import (BinPackingInstance, CuttingStockInstance, bin_packing,
                     cutting_stock, verify_solution)

KINDS = ("binpacking", "cuttingstock", "scheduling", "polytope")


# ---------------------------------------------------------------------------
# instance files


def _parse_rat(token: str, lineno: int) -> Rat:
    parts = token.split("/")
    if len(parts) not in (1, 2):
        raise InputError(f"line {lineno}: bad rational {token!r}")
    try:
        ints = [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"line {lineno}: bad rational {token!r}") from exc
    if len(ints) == 1:
        return Rat(ints[0])
    if ints[1] == 0:
        raise InputError(f"line {lineno}: zero denominator in {token!r}")
    return Rat(ints[0], ints[1])


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise InputError(f"line {lineno}: expected integer, got "
                         f"{token!r}") from exc


def _take(entries, idx, lineno_hint):
    if idx >= len(entries):
        raise InputError(f"line {lineno_hint}: unexpected end of file")
    return entries[idx]


def _parse_items(entries, idx):
    lineno, line = _take(entries, idx, entries[-1][0] + 1 if entries else 1)
    d = _parse_int(line.split()[0], lineno)
    if d < 1:
        raise InputError(f"line {lineno}: need at least one item type")
    sizes, mults = [], []
    for t in range(d):
        lineno, line = _take(entries, idx + 1 + t, lineno + 1)
        toks = line.split()
        if len(toks) != 2:
            raise InputError(f"line {lineno}: expected 'size multiplicity', "
                             f"got {line!r}")
        sizes.append(_parse_rat(toks[0], lineno))
        mults.append(_parse_int(toks[1], lineno))
    return sizes, mults, idx + 1 + d


def parse_instance_text(text: str):
    """Returns (kind, instance) for the tagged instance formats."""
    entries = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())
               if ln.strip()]
    if not entries:
        raise InputError("line 1: empty instance file")
    kind_line, kind = entries[0]
    if kind not in KINDS:
        raise InputError(f"line {kind_line}: unknown instance kind {kind!r}")
    rest = entries[1:]
    if kind == "binpacking":
        sizes, mults, idx = _parse_items(rest, 0)
        if idx != len(rest):
            raise InputError(f"line {rest[idx][0]}: trailing content")
        return kind, BinPackingInstance(sizes, mults)
    if kind == "cuttingstock":
        sizes, mults, idx = _parse_items(rest, 0)
        lineno, line = _take(rest, idx, rest[-1][0] + 1)
        m = _parse_int(line.split()[0], lineno)
        if m < 1:
            raise InputError(f"line {lineno}: need at least one bin type")
        bin_types = []
        for t in range(m):
            lineno, line = _take(rest, idx + 1 + t, lineno + 1)
            toks = line.split()
            if len(toks) != 2:
                raise InputError(f"line {lineno}: expected 'capacity cost', "
                                 f"got {line!r}")
            bin_types.append((_parse_rat(toks[0], lineno),
                              _parse_int(toks[1], lineno)))
        if idx + 1 + m != len(rest):
            raise InputError(f"line {rest[idx + 1 + m][0]}: trailing content")
        return kind, CuttingStockInstance(sizes, mults, bin_types)
    body = "\n".join(ln for _n, ln in rest)
    if kind == "scheduling":
        return kind, scheduling_from_text(body)
    return kind, polytope_from_text(body)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text)


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
    if kind == "binpacking":
        sol = bin_packing(inst, mode=args.mode)
        _emit(_packing_json(kind, sol, args.mode))
        return 0
    if kind == "cuttingstock":
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
    kind, poly = _load(args.path)
    if kind != "polytope":
        raise InputError("cover expects a polytope file")
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
    kind, poly = _load(args.path)
    if kind != "polytope":
        raise InputError("hull expects a polytope file")
    verts = sorted(tuple(int(v) for v in p) for p in
                   integer_hull_vertices(poly))
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


def _verify_binpacking(inst, mode, report):
    sol = bin_packing(inst, mode=mode)
    verify_solution(inst, sol)
    report.add("solution verifies", True)
    oracle = bp_brute_force(inst.sizes, inst.multiplicities)
    report.add("objective equals brute force", sol.objective == oracle,
               f"solver={sol.objective} oracle={oracle}")
    other = "joint" if mode == "faithful" else "faithful"
    alt = bin_packing(inst, mode=other)
    report.add("modes agree", alt.objective == sol.objective,
               f"{mode}={sol.objective} {other}={alt.objective}")
    frac = fractional_opt(inst.sizes, inst.multiplicities)
    if inst.dim <= 2:
        report.add("round-up of the fractional optimum",
                   sol.objective == rat_ceil(frac),
                   f"opt={sol.objective} ceil(frac)={rat_ceil(frac)}")
    else:
        report.add("fractional lower bound",
                   sol.objective >= rat_ceil(frac),
                   f"opt={sol.objective} ceil(frac)={rat_ceil(frac)}")


def _verify_cuttingstock(inst, mode, report):
    sol = cutting_stock(inst, mode=mode)
    verify_solution(inst, sol)
    report.add("solution verifies", True)
    other = "joint" if mode == "faithful" else "faithful"
    alt = cutting_stock(inst, mode=other)
    report.add("modes agree", alt.objective == sol.objective,
               f"{mode}={sol.objective} {other}={alt.objective}")
    if len(inst.bin_types) == 1 and inst.bin_types[0] == (Rat(1), 1):
        oracle = bp_brute_force(inst.sizes, inst.multiplicities)
        report.add("objective equals brute force", sol.objective == oracle,
                   f"solver={sol.objective} oracle={oracle}")


def _schedule_boxes(inst, per_dim_cap, total_cap):
    vecs = [()]
    for j in range(inst.d):
        hi = min(inst.multiplicities[j], per_dim_cap)
        vecs = [v + (k,) for v in vecs for k in range(hi + 1)]
    return [v for v in vecs if 0 < sum(v) <= total_cap]


def _verify_scheduling(inst, mode, report):
    if inst.variant in ("assignment", "preemptive"):
        for i in range(inst.m):
            poly = build_edf_polytope(inst, i)
            bad = 0
            for x in _schedule_boxes(inst, 3, 6):
                if poly.contains_int(x) != edf_simulate(x, inst, i).feasible:
                    bad += 1
            report.add(f"EDF polytope matches simulator (machine type {i})",
                       bad == 0, f"{bad} disagreements")
        sol = preemptive_assign(inst, mode=mode)
        for mtype, vec, schedule in sol.machines:
            validate_preemptive_schedule(inst, mtype, vec, schedule)
        report.add("assignment objective", True, f"cost={sol.objective}")
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
        sol = nonpreemptive_assign(inst)
        for mtype, vec, schedule in sol.machines:
            validate_nonpreemptive_schedule(inst, mtype, vec, schedule)
        report.add("assignment objective", True, f"cost={sol.objective}")
    else:
        sol = tardy_min_penalty(inst)
        paid = sum(p * (a - s) for p, a, s in
                   zip(inst.penalties, inst.multiplicities, sol.scheduled))
        report.add("penalty accounting", paid == sol.objective,
                   f"objective={sol.objective} recomputed={paid}")


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


def cmd_verify(args) -> int:
    kind, inst = _load(args.path)
    report = _Report(args.json)
    if kind == "binpacking":
        _verify_binpacking(inst, args.mode, report)
    elif kind == "cuttingstock":
        _verify_cuttingstock(inst, args.mode, report)
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
                                "pivots plus branch-and-bound nodes")
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
    """The work limit of ``--budget``; no limit when it is absent."""
    budget = getattr(args, "budget", None)
    if budget is None:
        return nullcontext()
    if budget < 0:
        raise InputError(f"--budget must be non-negative, got {budget}")
    return limit(budget)


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
