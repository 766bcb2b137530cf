import itertools
import random

import pytest

from conepack.budget import limit
from conepack.errors import InputError, ResourceError
from conepack.ilp import IlpProblem, ilp_feasible, lll_basis


def exhaustive(problem, box):
    """Reference check: scan the whole box for a feasible integer point."""
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for x in itertools.product(*ranges):
        ok = all(sum(c * v for c, v in zip(row, x)) <= b
                 for row, b in zip(problem.rows, problem.rhs))
        if ok:
            return x
    return None


class TestBasics:
    def test_equality_via_paired_rows(self):
        # 2x1 + 3x2 = 7, x >= 0
        p = IlpProblem.build(
            [[2, 3], [-2, -3], [-1, 0], [0, -1]], [7, -7, 0, 0])
        res = ilp_feasible(p)
        assert res.feasible and res.witness == (2, 1)

    def test_parity_infeasible(self):
        p = IlpProblem.build([[2], [-2]], [1, -1])
        res = ilp_feasible(p)
        assert not res.feasible and res.witness is None

    def test_empty_relaxation(self):
        p = IlpProblem.build([[1], [-1]], [-1, 0])
        assert not ilp_feasible(p).feasible

    def test_unbounded_needs_bounds(self):
        p = IlpProblem.build([[-1]], [0])
        with pytest.raises(InputError):
            ilp_feasible(p)
        bounded = IlpProblem.build([[-1]], [0], lo=[0], hi=[5])
        assert ilp_feasible(bounded).feasible

    def test_tight_box(self):
        p = IlpProblem.build([[1, 1]], [100], lo=[3, 4], hi=[3, 4])
        res = ilp_feasible(p)
        assert res.witness == (3, 4)

    def test_node_budget(self):
        # fractional vertex everywhere near the relaxation optimum
        rows = [[2, 2, 2], [-2, -2, -2]]
        p = IlpProblem.build(rows, [3, -3], lo=[0, 0, 0], hi=[1, 1, 1])
        with pytest.raises(ResourceError) as err, limit(1):
            ilp_feasible(p)
        assert err.value.budget_name == "request work budget"
        assert not ilp_feasible(p).feasible  # sum is odd, halves are not integral

    def test_witness_respects_bounds(self):
        p = IlpProblem.build([[1, 1], [0, -1]], [10, 0],
                             lo=[2, None], hi=[None, 3])
        res = ilp_feasible(p)
        assert res.feasible
        assert res.witness[0] >= 2 and res.witness[1] <= 3


def random_problem(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    rows = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-12, 12) for _ in range(m)]
    box = [(rng.randint(-4, 0), rng.randint(0, 4)) for _ in range(n)]
    p = IlpProblem.build(rows, rhs,
                         lo=[a for a, _ in box], hi=[b for _, b in box])
    return p, box


class TestOracle:
    def test_random_vs_exhaustive(self):
        rng = random.Random(91733)
        for _ in range(200):
            p, box = random_problem(rng)
            res = ilp_feasible(p)
            ref = exhaustive(p, box)
            assert res.feasible == (ref is not None)
            if res.feasible:
                x = res.witness
                assert all(sum(c * v for c, v in zip(row, x)) <= b
                           for row, b in zip(p.rows, p.rhs))
                assert all(a <= v <= b for v, (a, b) in zip(x, box))


class TestLll:
    def test_basis_is_unimodular(self):
        rng = random.Random(4021)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            U = lll_basis(rows, n)
            assert _det(U) in (1, -1)


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total
