"""The work budget spans a whole request, not one LP or one ILP."""

import pytest

from conepack import solver
from conepack.budget import limit
from conepack.errors import ResourceError
from conepack.exactmath import ExactLp
from conepack.rational import Rat
from conepack.solver import BinPackingInstance, bin_packing


def _work_of(inst, monkeypatch):
    """(largest pivots of one LP, largest nodes of one ILP, total work)."""
    seen = {"pivots": 0, "most_pivots": 0, "nodes": 0, "most_nodes": 0}
    charge_pivot = ExactLp._charge_pivot
    ilp_feasible = solver.ilp_feasible

    def counted_pivot(lp):
        charge_pivot(lp)
        seen["pivots"] += 1
        seen["most_pivots"] = max(seen["most_pivots"], lp.pivots_used)

    def counted_ilp(problem):
        res = ilp_feasible(problem)
        seen["nodes"] += res.nodes
        seen["most_nodes"] = max(seen["most_nodes"], res.nodes)
        return res

    with monkeypatch.context() as patch:
        patch.setattr(ExactLp, "_charge_pivot", counted_pivot)
        patch.setattr(solver, "ilp_feasible", counted_ilp)
        bin_packing(inst)
    return (seen["most_pivots"], seen["most_nodes"],
            seen["pivots"] + seen["nodes"])


def test_limit_spans_the_request(monkeypatch):
    inst = BinPackingInstance([Rat(1, 3), Rat(1, 4)], [4, 5])
    most_pivots, most_nodes, total = _work_of(inst, monkeypatch)
    above_each = max(most_pivots, most_nodes) + 1
    assert above_each < total
    with pytest.raises(ResourceError) as err, limit(above_each):
        bin_packing(inst)
    assert err.value.budget_name == "request work budget"
    with limit(total):
        assert bin_packing(inst).objective == 3
    with pytest.raises(ResourceError), limit(total - 1):
        bin_packing(inst)


def test_no_limit_outside_the_block():
    inst = BinPackingInstance([Rat(1, 2)], [3])
    with pytest.raises(ResourceError), limit(0):
        bin_packing(inst)
    assert bin_packing(inst).objective == 2
