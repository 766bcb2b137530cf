"""Span tracing of conepack from outside the package.

``Tracer.install()`` replaces each traced public function by a wrapper in
every ``conepack`` module that binds it (``conepack.solver.ilp_feasible``,
``conepack.ilp.lp_optimize``, ...), and ``ExactLp.find_feasible`` /
``ExactLp.optimize`` on the class.  A wrapper records one span

    (name, layer, start, end, parent span index, instance id, info)

in memory; ``info`` is a small per-call count taken at the boundary (the
pivots a simplex call spent, the nodes an ILP explored, ...).  Nothing is
written until ``dump()``.  ``layer_metrics()`` derives every per-layer
metric from the span list alone.

The package itself is not modified: spans begin and end at the calls into
each layer, so time a layer spends inside a private helper of another
layer is charged to the caller.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

from conepack import exactmath

# layer -> public functions traced; ``rational`` is left out on purpose
# (its helpers are called per arithmetic operation and would be swamped by
# the wrapper) and ``oracle`` is timed as one span around the checks.
TRACED = {
    "cli": ("parse_instance_text",),
    "exactmath": ("lp_optimize", "lp_feasible_point", "solve_linear_system"),
    "geometry": ("lattice_points", "coordinate_bounds", "in_convex_hull",
                 "extreme_points", "integer_hull_vertices", "cell_partition",
                 "mvee_contact_points", "parallelepiped_cover"),
    "structure": ("reduce_support", "redistribute_in_pp",
                  "compute_structure_set", "normalize_combination"),
    "ilp": ("ilp_feasible", "lll_basis"),
    "solver": ("int_cone_intersect", "bin_packing", "multi_polytope_select",
               "select_from_generators", "cutting_stock", "verify_solution"),
    "scheduling": ("build_edf_polytope", "edf_simulate",
                   "validate_preemptive_schedule",
                   "build_nonpreemptive_polytope", "nonpreemptive_completable",
                   "extract_cyclic_schedule",
                   "validate_nonpreemptive_schedule", "schedulable_vectors",
                   "preemptive_assign", "nonpreemptive_assign",
                   "tardy_min_penalty"),
}
LP_METHODS = ("find_feasible", "optimize")
PROBES = ("int_cone_intersect", "multi_polytope_select",
          "select_from_generators")


def _info(name, result):
    """The per-call count recorded with a span (None when there is none)."""
    if name == "int_cone_intersect":
        return (result.guesses_tried, result.mode_used == "faithful")
    if name == "ilp_feasible":
        return (result.nodes, result.feasible)
    if name in ("lattice_points", "parallelepiped_cover"):
        return len(result)
    if name == "nonpreemptive_completable":
        return result is not None
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self._patched = []

    # -- recording ------------------------------------------------------

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        is_lp = name in LP_METHODS

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = args[0].pivots_used if is_lp else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, layer, start, end, parent, self.instance,
                              None]
            if is_lp:
                # pivots spent and, for find_feasible, whether a point exists
                found = result if name == "find_feasible" else None
                spans[idx][6] = (args[0].pivots_used - before, found)
            else:
                spans[idx][6] = _info(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record one span around benchmark code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = [name, layer, start, end, parent, self.instance,
                               None]

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "conepack" or key.startswith("conepack.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"conepack.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(layer, name, orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for name in LP_METHODS:
            orig = getattr(exactmath.ExactLp, name)
            self._patched.append((exactmath.ExactLp, name, orig))
            setattr(exactmath.ExactLp, name,
                    self._wrap("exactmath", name, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "layer", "start", "end", "parent",
                                 "instance", "info"]) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics; see README.md for each definition."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp[4] >= 0:
                child_time[sp[4]] += sp[3] - sp[2]
        self_s = defaultdict(float)
        for sp, inner in zip(spans, child_time):
            self_s[sp[1]] += sp[3] - sp[2] - inner
        count = defaultdict(int)
        total = defaultdict(float)
        lp_by_caller = defaultdict(float)
        bound_lp = node_lp = 0.0
        pivots = infeasible = guesses = faithful = probes = 0
        nodes = ilp_feasible = completable = lattice = cells = 0
        for sp in spans:
            name, layer, start, end, parent, _inst, info = sp
            up = spans[parent] if parent >= 0 else None
            dur = end - start
            count[name] += 1
            total[name] += dur
            if layer == "exactmath" and (up is None or up[1] != "exactmath"):
                lp_by_caller[up[1] if up else "bench"] += dur
            if name in PROBES and not (up and up[0] in PROBES):
                probes += 1
            if name == "lp_optimize" and up and up[0] == "ilp_feasible":
                bound_lp += dur
            if info is None:
                continue  # no count to take, or the call raised
            if name in LP_METHODS:
                pivots += info[0]
                infeasible += info[1] is False
                if name == "find_feasible" and up and up[0] == "ilp_feasible":
                    node_lp += dur
            elif name == "int_cone_intersect":
                guesses += info[0]
                faithful += info[1]
            elif name == "ilp_feasible" and not (up and up[0] == name):
                nodes += info[0]
                ilp_feasible += info[1]
            elif name == "nonpreemptive_completable":
                completable += info
            elif name == "lattice_points":
                lattice += info
            elif name == "parallelepiped_cover":
                cells += info

        def ratio(num, den):
            return num / den if den else 0.0

        lp_solves = count["find_feasible"]
        ilp_calls = count["ilp_feasible"]
        return {
            "exactmath.self_s": (self_s["exactmath"], "s"),
            "exactmath.lp_solves": (lp_solves, "count"),
            "exactmath.pivots": (pivots, "count"),
            "exactmath.infeasible_ratio": (ratio(infeasible, lp_solves),
                                           "ratio"),
            "exactmath.lp_s.solver": (lp_by_caller["solver"], "s"),
            "exactmath.lp_s.ilp": (lp_by_caller["ilp"], "s"),
            "exactmath.lp_s.geometry": (lp_by_caller["geometry"], "s"),
            "solver.self_s": (self_s["solver"], "s"),
            "solver.probes": (probes, "count"),
            "solver.guesses": (guesses, "count"),
            "solver.faithful_hit_ratio": (ratio(faithful, probes), "ratio"),
            "ilp.self_s": (self_s["ilp"], "s"),
            "ilp.calls": (ilp_calls, "count"),
            "ilp.nodes": (nodes, "count"),
            "ilp.feasible_ratio": (ratio(ilp_feasible, ilp_calls), "ratio"),
            "ilp.bound_lp_s": (bound_lp, "s"),
            "ilp.node_lp_s": (node_lp, "s"),
            "scheduling.self_s": (self_s["scheduling"], "s"),
            "scheduling.completable_calls": (
                count["nonpreemptive_completable"], "count"),
            "scheduling.completable_ratio": (
                ratio(completable, count["nonpreemptive_completable"]),
                "ratio"),
            "scheduling.edf_sims": (count["edf_simulate"], "count"),
            "geometry.self_s": (self_s["geometry"], "s"),
            "geometry.lattice_points": (lattice, "count"),
            "geometry.cover_cells": (cells, "count"),
            "geometry.cover_calls": (count["parallelepiped_cover"], "count"),
            "structure.self_s": (self_s["structure"], "s"),
            "structure.sets_built": (count["compute_structure_set"],
                                     "count"),
            "structure.normalize_calls": (count["normalize_combination"],
                                          "count"),
            "cli.parse_s": (total["parse_instance_text"], "s"),
            "oracle.check_s": (total["check"], "s"),
        }
