import hashlib
import random

import pytest

from conepack.budget import limit
from conepack.errors import InputError, ResourceError
from conepack.exactmath import INFEASIBLE, OPTIMAL, ExactLp, lp_optimize
from conepack.geometry import box_polytope
from conepack.ilp import _derive_bounds, ilp_feasible, lll_basis
from conepack.rational import Rat, rat_ceil, rat_floor
from conepack.solver import multi_polytope_select

from genutil import exhaustive_ilp, pattern_polytope


def program(rows, rhs, lo=None, hi=None):
    """The program ``(rows, rhs, lo, hi)``, a missing bound vector as one
    None per variable, as ``_derive_bounds`` takes it."""
    n = len(rows[0])
    return rows, rhs, lo or [None] * n, hi or [None] * n


class TestBasics:
    def test_equality_via_paired_rows(self):
        # 2x1 + 3x2 = 7, x >= 0
        res = ilp_feasible([[2, 3], [-2, -3], [-1, 0], [0, -1]],
                           [7, -7, 0, 0])
        assert res.feasible and res.witness == (2, 1)

    def test_parity_infeasible(self):
        res = ilp_feasible([[2], [-2]], [1, -1])
        assert not res.feasible and res.witness is None

    def test_empty_relaxation(self):
        assert not ilp_feasible([[1], [-1]], [-1, 0]).feasible

    def test_unbounded_needs_bounds(self):
        with pytest.raises(InputError):
            ilp_feasible([[-1]], [0])
        assert ilp_feasible([[-1]], [0], lo=[0], hi=[5]).feasible

    def test_tight_box(self):
        res = ilp_feasible([[1, 1]], [100], lo=[3, 4], hi=[3, 4])
        assert res.witness == (3, 4)

    def test_node_budget(self):
        # fractional vertex everywhere near the relaxation optimum
        rows = [[2, 2, 2], [-2, -2, -2]]
        p = program(rows, [3, -3], lo=[0, 0, 0], hi=[1, 1, 1])
        with pytest.raises(ResourceError) as err, limit(1):
            ilp_feasible(*p)
        assert err.value.budget_name == "request work budget"
        # sum is odd, halves are not integral
        assert not ilp_feasible(*p).feasible

    def test_witness_respects_bounds(self):
        res = ilp_feasible([[1, 1], [0, -1]], [10, 0],
                           lo=[2, None], hi=[None, 3])
        assert res.feasible
        assert res.witness[0] >= 2 and res.witness[1] <= 3


# crossing bounds answer Empty without a search, so each shape is also
# tried with them: the program is checked before any answer
MALFORMED = [
    ("no-rows", ([], []), "at least one constraint row"),
    ("no-variables", ([[]], [0]), "at least one variable"),
    ("ragged", ([[1, 2], [1]], [1, 1]), "ragged constraint matrix"),
    ("rhs-count", ([[1]], [1, 2]), "1 rows but 2 right-hand sides"),
    ("lo-length", ([[1]], [1], [0, 0], [5]), "1 variables but 2 lo bounds"),
    ("hi-length", ([[1]], [1], [0], [5, 5]), "1 variables but 2 hi bounds"),
    ("crossing-ragged", ([[1, 2], [1]], [1, 1], [1, 1], [0, 0]),
     "ragged constraint matrix"),
    ("crossing-rhs-count", ([[1]], [1, 2], [1], [0]),
     "1 rows but 2 right-hand sides"),
    ("crossing-lo-length", ([[1]], [1], [1, 1], [0]),
     "1 variables but 2 lo bounds"),
    ("crossing-bound", ([[1]], [1], [Rat(1, 2)], [0]), "variable bound"),
]


@pytest.mark.parametrize("problem,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_a_malformed_program_is_refused(problem, message):
    with pytest.raises(InputError, match=message):
        ilp_feasible(*problem)


def random_problem(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    rows = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-12, 12) for _ in range(m)]
    box = [(rng.randint(-4, 0), rng.randint(0, 4)) for _ in range(n)]
    p = program(rows, rhs, lo=[a for a, _ in box], hi=[b for _, b in box])
    return p, box


class TestOracle:
    def test_random_vs_exhaustive(self):
        rng = random.Random(91733)
        for _ in range(200):
            p, box = random_problem(rng)
            res = ilp_feasible(*p)
            ref = exhaustive_ilp(*p[:2], box)
            assert res.feasible == (ref is not None)
            if res.feasible:
                x = res.witness
                assert all(sum(c * v for c, v in zip(row, x)) <= b
                           for row, b in zip(*p[:2]))
                assert all(a <= v <= b for v, (a, b) in zip(x, box))

    # (feasible, nodes, witness) of the 200 problems above, recorded before
    # the branch and bound kept each node's bounds in its tableau alone:
    # 109 feasible, 385 nodes
    TRAIL_SHA256 = (
        "c01dc9754b3df6e8f625c5b20a1b5645661802d093749b6f3dd506c6278d4c2c")

    def test_random_trail_is_pinned(self):
        rng = random.Random(91733)
        trail = []
        for _ in range(200):
            res = ilp_feasible(*random_problem(rng)[0])
            trail.append((res.feasible, res.nodes, res.witness))
        assert sum(t[0] for t in trail) == 109
        assert sum(t[1] for t in trail) == 385
        digest = hashlib.sha256(repr(trail).encode()).hexdigest()
        assert digest == self.TRAIL_SHA256


class TestNodeStack:
    def test_one_restore_per_branching(self, monkeypatch):
        # the node-heavy a = 40 cutting stock's Empty probe at its window's
        # low end, 110: 423 nodes over two programs.  The group at the
        # window's basis decides that window, so the probe is driven here
        sizes, a = [Rat(1, 3), Rat(1, 4), Rat(2, 7)], [40] * 3
        parts = [(pattern_polytope(sizes, w, a), c)
                 for w, c in [(Rat(1), 3), (Rat(1, 2), 2)]]
        calls = {"snapshot": 0, "restore": 0}
        snapshot, restore = ExactLp.snapshot, ExactLp.restore

        def counted_snapshot(lp):
            calls["snapshot"] += 1
            return snapshot(lp)

        def counted_restore(lp, snap):
            calls["restore"] += 1
            return restore(lp, snap)

        monkeypatch.setattr(ExactLp, "snapshot", counted_snapshot)
        monkeypatch.setattr(ExactLp, "restore", counted_restore)
        assert not multi_polytope_select(parts, box_polytope(a, a),
                                         110).found
        # each branching takes one snapshot; only its ceil child restores
        assert calls["snapshot"] == 211
        assert 0 < calls["restore"] <= calls["snapshot"]


def fresh_derive_bounds(rows, rhs, lo, hi):
    """Reference: one fresh LP per missing bound, each under the bounds
    derived before it."""
    lo, hi = list(lo), list(hi)
    n = len(lo)
    for j in range(n):
        for side, sense in ((0, "min"), (1, "max")):
            if (lo[j] if side == 0 else hi[j]) is not None:
                continue
            c = [int(i == j) for i in range(n)]
            res = lp_optimize(rows, rhs, c, sense=sense, lo=lo, hi=hi)
            if res.status == INFEASIBLE:
                return None
            if res.status != OPTIMAL:
                raise InputError(f"variable {j} is unbounded")
            if side == 0:
                lo[j] = rat_ceil(res.value)
            else:
                hi[j] = rat_floor(res.value)
    return lo, hi


def derive_or_error(derive, problem):
    try:
        return derive(*problem)
    except InputError:
        return "unbounded"


class TestDeriveBounds:
    def test_rounded_bound_empties_the_relaxation(self):
        # x = 1/2: the rounded lower bound 1 leaves the max LP no point
        p = program([[2], [-2]], [1, -1])
        assert fresh_derive_bounds(*p) is None
        assert _derive_bounds(*p) is None

    def test_last_rounded_bound_is_returned(self):
        # only the lower bound is missing, so no LP sees the rounded one
        p = program([[2], [-2]], [1, -1], hi=[5])
        assert _derive_bounds(*p) == fresh_derive_bounds(*p) == ([1], [5])
        assert not ilp_feasible(*p).feasible

    def test_unbounded_variable(self):
        p = program([[-1, 0], [0, -1], [0, 1]], [0, 0, 3])
        assert derive_or_error(fresh_derive_bounds, p) == "unbounded"
        with pytest.raises(InputError):
            _derive_bounds(*p)

    def test_no_missing_bound_solves_no_lp(self):
        # lo > hi is left for ilp_feasible to reject
        p = program([[1]], [-5], lo=[2], hi=[1])
        assert _derive_bounds(*p) == ([2], [1])
        res = ilp_feasible(*p)
        assert not res.feasible and res.nodes == 0

    def test_one_tableau_matches_fresh_lps(self):
        rng = random.Random(20417)
        seen = {"empty": 0, "unbounded": 0, "bounded": 0}
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-8, 8) for _ in range(m)]
            lo = [rng.choice([None, None, rng.randint(-3, 1)])
                  for _ in range(n)]
            hi = [rng.choice([None, None, rng.randint(-1, 3)])
                  for _ in range(n)]
            p = (rows, rhs, lo, hi)
            expected = derive_or_error(fresh_derive_bounds, p)
            assert derive_or_error(_derive_bounds, p) == expected
            key = expected if expected in (None, "unbounded") else "bounded"
            seen["empty" if key is None else key] += 1
        assert min(seen.values()) >= 20, seen


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
