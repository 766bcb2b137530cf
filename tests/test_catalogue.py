"""The answers to the benchmark's catalogues are pinned.

Every instance of the four ``conebench`` catalogues is solved the way the
benchmark solves it, and the sha256 prefix of the repr of the canonical
answers must not move: a change that alters an answer, a witness or the
order of a cover shows here.  The objectives are pinned apart from the
witnesses: a change that reorders a search may find other witnesses, but
never another optimum.  ``conebench/workloads.py`` is loaded from its file
and only read.  The digests do not depend on ``PYTHONHASHSEED``.

The work is pinned too: the pivots and branch-and-bound nodes that the
package's own counters (``budget.limit``) count over each catalogue.  A
change that sets out to keep the answers and the work, such as a merge of
duplicate code, must leave them as they are.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from conepack import budget, solver

from genutil import check_window

WORKLOADS = Path(__file__).resolve().parent.parent / "conebench" / "workloads.py"

PINS = {
    "binpack": (120, "52efc24096ac9198"),
    "stock": (60, "cf6bc7d5c6e4f598"),
    "cover": (40, "f5e3d2acbeb8ed5d"),
    "sched-np": (8, "0929678206ac70db"),
}

# (pivots, nodes) spent solving each catalogue; the pivots count the
# group states that ``solver._group_bound`` settles too.  The one probing
# ``binpack`` instance runs no pointedness LP: its part costs 1, so the
# cost row caps every weight
WORK_PINS = {
    "binpack": (478, 1),
    "stock": (131, 0),
    "cover": (0, 0),
    "sched-np": (939, 176),
}

OBJECTIVE_PINS = {
    "binpack": "3c0aaecdabe55499",
    "stock": "98b2f00cd6e30c29",
    "cover": "1fc7d6a2789e6016",
    "sched-np": "4a87b864f3c5fd35",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_pinned_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def solved(workloads):
    """The answers of each catalogue and the ``(pivots, nodes)`` they
    spent, solved once for all the pins."""
    cache = {}

    def answers(name):
        if name not in cache:
            count, _pin = PINS[name]
            with budget.limit(10 ** 15):
                out = [workloads.solve_text(workloads.render(d))
                       for d in workloads.catalogue(name, count)]
                _units, pivots, nodes = budget._OPEN.get()
            cache[name] = out, (pivots, nodes)
        return cache[name]
    return answers


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _objective(answer):
    """The part of an answer that no witness choice can move.

    A polytope's answer is its integer hull; every other answer carries an
    objective.
    """
    kind, _inst, result = answer
    if kind == "polytope":
        _sset, hull = result
        return tuple(map(tuple, hull))
    return result.objective


@pytest.mark.parametrize("name", PINS)
def test_catalogue_answers_are_pinned(workloads, solved, name):
    _count, pin = PINS[name]
    answers, _work = solved(name)
    assert _digest([workloads.canonical(a) for a in answers]) == pin


@pytest.mark.parametrize("name", OBJECTIVE_PINS)
def test_catalogue_objectives_are_pinned(solved, name):
    answers, _work = solved(name)
    assert _digest([_objective(a) for a in answers]) == OBJECTIVE_PINS[name]


@pytest.mark.parametrize("name", WORK_PINS)
def test_catalogue_work_is_pinned(solved, name):
    _answers, work = solved(name)
    assert work == WORK_PINS[name]


class _Recorded(Exception):
    """Stops a solve once its configuration window is recorded."""


def test_catalogue_windows_are_the_lp(workloads, monkeypatch):
    """Every configuration window of the ``binpack``, ``stock`` and
    ``sched-np`` catalogues, the four tardy instances' included, has the
    all-points LP's ``lo`` and a cover of the demand within the window's
    bound."""
    windows = []

    def recording(parts, a):
        windows.append((parts, a))
        raise _Recorded

    with monkeypatch.context() as patch:
        patch.setattr(solver, "configuration_window", recording)
        for name in ("binpack", "stock", "sched-np"):
            for desc in workloads.catalogue(name, PINS[name][0]):
                try:
                    workloads.solve_text(workloads.render(desc))
                except _Recorded:
                    pass
    assert len(windows) == 188
    for parts, a in windows:
        check_window(parts, a)


def test_closed_windows_build_no_target(workloads, monkeypatch):
    """A closed configuration window answers with its own cover, so it
    builds no target polytope and normalizes no combination: every closed
    ``binpack`` window, and the first closed cutting stock and preemptive
    assignment of ``stock``, answer as before with both refused."""
    windows, closed = [], []
    window = solver.configuration_window

    def recording(parts, a):
        windows.append(window(parts, a))
        return windows[-1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "configuration_window", recording)
        for name in ("binpack", "stock"):
            for desc in workloads.catalogue(name, PINS[name][0]):
                text = workloads.render(desc)
                objective = workloads.solve_text(text)[2].objective
                lo, hi = windows[-1][:2]
                if lo == hi:
                    closed.append((name, desc[0], text, objective))
    kinds = [(name, kind) for name, kind, _text, _objective in closed]
    assert kinds.count(("binpack", "binpacking")) == 117
    chosen = [c for c in closed if c[0] == "binpack"]
    for kind in ("cuttingstock", "scheduling"):
        chosen.append(closed[kinds.index(("stock", kind))])

    def refuse(*args, **kwargs):
        raise AssertionError("a closed window built a target")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "box_polytope", refuse)
        patch.setattr(solver, "normalize_combination", refuse)
        for _name, _kind, text, objective in chosen:
            assert workloads.solve_text(text)[2].objective == objective


def _parsed(workloads, name, count):
    return [workloads.cli.parse_instance_text(workloads.render(d))
            for d in workloads.catalogue(name, count)]


def test_edf_polytopes_know_their_lp_bounds(workloads):
    """The clipped EDF polytopes of the ``stock`` and ``sched-np``
    catalogues carry the bounds that fresh LPs give."""
    from conepack.geometry import (Polytope, coordinate_bounds,
                                   down_closed_polytope)
    from conepack.scheduling import _edf_rows
    seen = 0
    for name in ("stock", "sched-np"):
        for kind, inst in _parsed(workloads, name, PINS[name][0]):
            if kind != "scheduling":
                continue
            for i in range(inst.m):
                poly = down_closed_polytope(*_edf_rows(inst, i),
                                            inst.multiplicities)
                assert poly._bounds == coordinate_bounds(
                    Polytope(poly.A, poly.b))
                seen += 1
    assert seen == 55


def test_cover_hulls_match_extreme_points(workloads):
    """The lattice hull from run ends equals ``extreme_points`` of the
    whole lattice on every ``cover`` polytope."""
    from conepack.geometry import (extreme_points, integer_hull_vertices,
                                   lattice_points)
    for _kind, poly in _parsed(workloads, "cover", PINS["cover"][0]):
        assert integer_hull_vertices(poly) == \
            extreme_points(lattice_points(poly))


def test_cover_solves_derive_no_runs(workloads, monkeypatch):
    """Solving the ``cover`` catalogue as the benchmark does reads every
    hull from the enumerator's runs and covers every cell by a point, so
    it never derives runs from a sorted point list."""
    from conepack import geometry
    derived = []
    column_runs = geometry._column_runs

    def recording(pts):
        derived.append(len(pts))
        return column_runs(pts)

    monkeypatch.setattr(geometry, "_column_runs", recording)
    for desc in workloads.catalogue("cover", PINS["cover"][0]):
        workloads.solve_text(workloads.render(desc))
    assert derived == []


def test_cover_solves_build_no_cells(workloads, monkeypatch):
    """Solving the ``cover`` catalogue as the benchmark does builds every
    cover from the order of its sorted lattice, so ``parallelepiped_cover``
    never folds rows into cells or covers a cell of two or more points."""
    from conepack import geometry
    reached = []
    for name in ("_slack_cells", "_cell_parallelepipeds"):
        def recording(*args, _name=name, _fn=getattr(geometry, name)):
            reached.append(_name)
            return _fn(*args)

        monkeypatch.setattr(geometry, name, recording)
    for desc in workloads.catalogue("cover", PINS["cover"][0]):
        workloads.solve_text(workloads.render(desc))
    assert reached == []


def test_stock_solves_run_no_probe(workloads, monkeypatch):
    """Solving the ``stock`` catalogue as the benchmark does decides every
    open window by the group relaxation at the window's basis, so it never
    calls ``multi_polytope_select``."""
    probes = []
    select = solver.multi_polytope_select

    def recording(*args, **kwargs):
        probes.append(args[2])
        return select(*args, **kwargs)

    monkeypatch.setattr(solver, "multi_polytope_select", recording)
    for desc in workloads.catalogue("stock", PINS["stock"][0]):
        workloads.solve_text(workloads.render(desc))
    assert probes == []


def test_listed_parts_build_polytopes_only_to_probe(workloads,
                                                   monkeypatch):
    """Solving the ``stock`` catalogue as the benchmark does lists every
    down-closed part's points from its rows, so it builds no ``Polytope``,
    and a ``binpack`` instance builds one only when it probes."""
    from conepack import geometry
    built, probed, seen = [], [], []
    init = geometry.Polytope.__init__
    select = solver.multi_polytope_select

    def building(self, *args):
        built.append(args)
        init(self, *args)

    def probing(*args, **kwargs):
        probed.append(args[2])
        return select(*args, **kwargs)

    monkeypatch.setattr(geometry.Polytope, "__init__", building)
    monkeypatch.setattr(solver, "multi_polytope_select", probing)
    for name in ("stock", "binpack"):
        for desc in workloads.catalogue(name, PINS[name][0]):
            del built[:], probed[:]
            workloads.solve_text(workloads.render(desc))
            seen.append((name, bool(built), bool(probed)))
    assert seen.count(("stock", False, False)) == PINS["stock"][0]
    assert seen.count(("binpack", False, False)) + \
        seen.count(("binpack", True, True)) == PINS["binpack"][0]
    assert ("binpack", True, True) in seen


def test_tardy_solves_run_no_probe(workloads, monkeypatch):
    """Solving the tardy instances of the first 120 ``sched-np`` catalogue
    entries as the benchmark does closes every window, so it never calls
    ``select_from_generators``."""
    from conepack import scheduling
    probes = []
    select = scheduling.select_from_generators

    def recording(*args):
        probes.append(args)
        return select(*args)

    monkeypatch.setattr(scheduling, "select_from_generators", recording)
    tardy = [desc for desc in workloads.catalogue("sched-np", 120)
             if desc[1] == "tardy"]
    for desc in tardy:
        workloads.solve_text(workloads.render(desc))
    assert len(tardy) == 60 and probes == []
