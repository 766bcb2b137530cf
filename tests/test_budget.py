"""The work budget spans a whole request, not one LP or one ILP."""

import pytest

from conepack import budget, exactmath, ilp, solver
from conepack.budget import limit
from conepack.errors import ResourceError
from conepack.exactmath import ExactLp
from conepack.rational import Rat
from conepack.solver import BinPackingInstance, bin_packing


def _work_of(inst, monkeypatch):
    """(largest pivots of one LP, largest nodes of one ILP, total work,
    pivots of the configuration window and states of its group).  The
    window runs its own simplex and the group its own shortest path, and
    both charge each step to the budget directly."""
    seen = {"pivots": 0, "most_pivots": 0, "nodes": 0, "most_nodes": 0,
            "window": 0}
    charge_pivot = ExactLp._charge_pivot
    ilp_feasible = solver.ilp_feasible
    charge, window = solver.charge, solver.configuration_window

    def counted_pivot(lp):
        charge_pivot(lp)
        seen["pivots"] += 1
        seen["most_pivots"] = max(seen["most_pivots"], lp.pivots_used)

    def counted_charge():
        charge()
        seen["pivots"] += 1
        seen["window"] += 1

    def counted_window(parts, a):
        out = window(parts, a)
        seen["most_pivots"] = max(seen["most_pivots"], seen["window"])
        return out

    def counted_ilp(*program, **bounds):
        res = ilp_feasible(*program, **bounds)
        seen["nodes"] += res.nodes
        seen["most_nodes"] = max(seen["most_nodes"], res.nodes)
        return res

    with monkeypatch.context() as patch:
        patch.setattr(ExactLp, "_charge_pivot", counted_pivot)
        patch.setattr(solver, "charge", counted_charge)
        patch.setattr(solver, "configuration_window", counted_window)
        patch.setattr(solver, "ilp_feasible", counted_ilp)
        bin_packing(inst)
    return (seen["most_pivots"], seen["most_nodes"],
            seen["pivots"] + seen["nodes"], seen["window"])


def test_limit_spans_the_request(monkeypatch):
    # the window [6, 7] stays open at its group's bound (D = 12), so the
    # request runs probes, each with LPs and an integer program
    inst = BinPackingInstance([Rat(1, 2), Rat(3, 7), Rat(1, 7)], [5, 5, 3])
    most_pivots, most_nodes, total, window = _work_of(inst, monkeypatch)
    assert window > 0 and most_nodes > 0
    above_each = max(most_pivots, most_nodes) + 1
    assert above_each < total
    with pytest.raises(ResourceError) as err, limit(above_each):
        bin_packing(inst)
    assert err.value.budget_name == "request work budget"
    with limit(total):
        assert bin_packing(inst).objective == 6
    with pytest.raises(ResourceError), limit(total - 1):
        bin_packing(inst)


def test_a_nested_limit_keeps_the_one_around_it():
    # the solve spends 18 pivots; a loose limit opened inside limit(5)
    # must not lift it, and the outer limit counts what the inner spends
    inst = BinPackingInstance([Rat(1, 3), Rat(1, 4), Rat(2, 7)], [40] * 3)
    with pytest.raises(ResourceError) as err, limit(5), limit(10 ** 6):
        bin_packing(inst)
    assert err.value.limit == 5
    with limit(10 ** 6):
        with limit(10 ** 6):
            assert bin_packing(inst).objective == 37
            inner = list(budget._OPEN.get())
        assert budget._OPEN.get() == inner
    assert inner[1] == 18


def test_no_limit_outside_the_block():
    inst = BinPackingInstance([Rat(1, 2)], [3])
    with pytest.raises(ResourceError), limit(0):
        bin_packing(inst)
    assert bin_packing(inst).objective == 2


# the caps that hold for one call without a limit, each patched to the
# work its call needs and to one unit less: a tableau's pivots, and the
# nodes of one branch and bound, whose sum is odd so no node is integral
PER_CALL_CAPS = [
    ("pivots", exactmath, "DEFAULT_PIVOT_BUDGET", 2, "simplex pivot budget",
     lambda: ExactLp([[-1, -1], [1, -2]], [-3, 0], lo=[0, 0]).find_feasible()),
    ("nodes", ilp, "DEFAULT_NODE_BUDGET", 11, "ilp node budget",
     lambda: ilp.ilp_feasible([[2, 2, 2], [-2, -2, -2]], [3, -3],
                              lo=[0] * 3, hi=[1] * 3).nodes),
]


@pytest.mark.parametrize("module,name,needs,budget_name,call",
                         [case[1:] for case in PER_CALL_CAPS],
                         ids=[case[0] for case in PER_CALL_CAPS])
def test_a_per_call_cap_stops_its_call(monkeypatch, module, name, needs,
                                       budget_name, call):
    monkeypatch.setattr(module, name, needs)
    assert call()
    monkeypatch.setattr(module, name, needs - 1)
    with pytest.raises(ResourceError) as err:
        call()
    assert err.value.budget_name == budget_name
    assert err.value.limit == needs - 1
