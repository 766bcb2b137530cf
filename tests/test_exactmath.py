"""Exact linear algebra / LP tests.

The LP oracle used here enumerates candidate basic points directly: every
d-subset of tight constraints is solved exactly and the best feasible point
wins.  That is independent of the simplex implementation under test.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepack.budget import limit
from conepack.errors import InputError
from conepack.exactmath import (
    INFEASIBLE,
    OPTIMAL,
    SINGULAR,
    UNBOUNDED,
    UNIQUE,
    ExactLp,
    lp_feasible_point,
    lp_optimize,
    solve_linear_system,
)
from conepack.rational import Rat, format_rat


def dot(a, b):
    """Exact inner product of two vectors of the same length."""
    assert len(a) == len(b)
    return sum((x * y for x, y in zip(a, b)), Rat(0))


def test_linear_system_identity():
    res = solve_linear_system([[1, 0], [0, 1]], [3, 4])
    assert res.status == UNIQUE
    assert res.solution == (3, 4)


def test_linear_system_singular_rank_deficient():
    res = solve_linear_system([[1, 1], [2, 2]], [1, 2])
    assert res.status == SINGULAR


def test_linear_system_inconsistent_is_singular():
    res = solve_linear_system([[1, 1], [2, 2]], [1, 3])
    assert res.status == SINGULAR


def test_linear_system_overdetermined_consistent():
    # three equations, two unknowns, consistent and full column rank
    res = solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 5, 7])
    assert res.status == UNIQUE
    assert res.solution == (2, 5)


def test_linear_system_overdetermined_inconsistent():
    res = solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 5, 8])
    assert res.status == SINGULAR


def test_linear_system_rational_entries():
    res = solve_linear_system([[Rat(1, 2), 0], [0, Rat(1, 3)]], [1, 1])
    assert res.status == UNIQUE
    assert res.solution == (2, 3)


def test_lp_knapsack_face():
    # max x1 over x >= 0, 13/100 x1 + 41/200 x2 <= 1
    rows = [[-1, 0], [0, -1], [Rat(13, 100), Rat(41, 200)]]
    rhs = [0, 0, 1]
    res = lp_optimize(rows, rhs, [1, 0], sense="max")
    assert res.status == OPTIMAL
    assert res.value == Rat(100, 13)
    assert res.vertex == (Rat(100, 13), 0)


def test_lp_infeasible():
    # x <= -1 and x >= 0
    res = lp_optimize([[1], [-1]], [-1, 0], [1])
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    res = lp_optimize([[-1]], [0], [1], sense="max")
    assert res.status == UNBOUNDED


def test_lp_equality_rows():
    # x + y == 4, x - y <= 0, maximize x
    res = lp_optimize([[1, 1], [1, -1]], [4, 0], [1, 0],
                      sense="max", senses=["==", "<="])
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.vertex == (2, 2)


def test_lp_variable_bounds():
    res = lp_optimize([[1, 1]], [10], [1, 2], sense="max",
                      lo=[0, 0], hi=[3, 4])
    assert res.status == OPTIMAL
    assert res.value == 11
    assert res.vertex == (3, 4)


def test_lp_minimize():
    res = lp_optimize([[-1, 0], [0, -1], [1, 1]], [0, 0, 5], [2, 3], sense="min")
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.vertex == (0, 0)


def test_lp_feasible_point_none():
    assert lp_feasible_point([[1], [-1]], [-1, 0]) is None


def test_lp_feasible_point_found():
    pt = lp_feasible_point([[1, 1], [-1, 0], [0, -1]], [4, 0, 0])
    assert pt is not None
    x, y = pt
    assert x >= 0 and y >= 0 and x + y <= 4


def _oracle_lp_max(rows, rhs, c, box):
    """Enumerate all n-subsets of tight rows (plus box faces); exact."""
    n = len(c)
    all_rows = [list(r) for r in rows] + [[0] * n for _ in range(2 * n)]
    all_rhs = list(rhs) + [0] * (2 * n)
    for j in range(n):
        r = len(rows) + 2 * j
        all_rows[r][j] = 1
        all_rhs[r] = box
        all_rows[r + 1][j] = -1
        all_rhs[r + 1] = box
    best = None
    m = len(all_rows)
    for subset in combinations(range(m), n):
        sol = solve_linear_system([all_rows[i] for i in subset],
                                  [all_rhs[i] for i in subset])
        if sol.status != UNIQUE:
            continue
        pt = sol.solution
        if all(dot(all_rows[i], pt) <= all_rhs[i] for i in range(m)):
            v = dot(c, pt)
            if best is None or v > best:
                best = v
    return best


def _enumeration_lp(seed):
    """A random LP, and the same LP clamped inside the box |x_j| <= box."""
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 5)
    box = 20
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-3, 8) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    # clamp everything inside a box so the oracle enumeration is finite
    brows = [r[:] for r in rows]
    brhs = rhs[:]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        brows.append(e[:])
        brhs.append(box)
        e2 = [0] * n
        e2[j] = -1
        brows.append(e2)
        brhs.append(box)
    return rows, rhs, c, box, brows, brhs


def _bounded_lp(seed):
    """A random LP with native bounds on every column."""
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-2, 6) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    lo = [rng.randint(-3, 0) for _ in range(n)]
    hi = [rng.randint(0, 3) for _ in range(n)]
    return rows, rhs, c, lo, hi


def _rational_enumeration_lp(seed):
    """A random LP with rational rows and right-hand sides, and the box
    ``|x_j| <= box`` given as integer variable bounds."""
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 5)
    box = 20
    rows = [[Rat(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)]
    rhs = [Rat(rng.randint(-6, 16), rng.randint(1, 6)) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    return rows, rhs, c, box


def _assert_matches_enumeration(res, rows, rhs, c, box):
    oracle = _oracle_lp_max(rows, rhs, c, box)
    if oracle is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.value == oracle
        # the returned point must be feasible and achieve the value
        for row, b in zip(rows, rhs):
            assert dot(row, res.vertex) <= b
        assert all(-box <= v <= box for v in res.vertex)
        assert dot(c, res.vertex) == res.value


@pytest.mark.parametrize("seed", range(40))
def test_lp_matches_vertex_enumeration(seed):
    rows, rhs, c, box, brows, brhs = _enumeration_lp(seed)
    res = lp_optimize(brows, brhs, c, sense="max")
    _assert_matches_enumeration(res, rows, rhs, c, box)


@pytest.mark.parametrize("seed", range(60))
def test_rational_lp_matches_vertex_enumeration(seed):
    rows, rhs, c, box = _rational_enumeration_lp(seed)
    n = len(c)
    res = lp_optimize(rows, rhs, c, sense="max", lo=[-box] * n, hi=[box] * n)
    _assert_matches_enumeration(res, rows, rhs, c, box)


@pytest.mark.parametrize("seed", range(25))
def test_lp_bounded_columns_match_row_encoding(seed):
    """Native variable bounds must agree with the same bounds written as rows."""
    rows, rhs, c, lo, hi = _bounded_lp(seed)
    n = len(c)
    res_native = lp_optimize(rows, rhs, c, sense="max", lo=lo, hi=hi)
    rows2 = [r[:] for r in rows]
    rhs2 = rhs[:]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows2.append(e[:])
        rhs2.append(hi[j])
        e2 = [0] * n
        e2[j] = -1
        rows2.append(e2)
        rhs2.append(-lo[j])
    res_rows = lp_optimize(rows2, rhs2, c, sense="max")
    assert res_native.status == res_rows.status
    if res_native.status == OPTIMAL:
        assert res_native.value == res_rows.value


# Pivot count and optimal vertex (or "infeasible") of each seeded LP above,
# as Bland's rule found them on the Rat Gauss-Jordan tableau.  The integer
# tableau holds the same rational entries, so it must retrace every step.
PINNED_ENUMERATION = [
    (2, "9 -20"), (1, "-1/4"), (7, "20 20 23/2"), (3, "-20 20"),
    (2, "-20 20"), (1, "0 0"), (2, "-20 -23/3"), (1, "infeasible"),
    (4, "-20 249/20 187/10"), (1, "-2/3"), (3, "-9/20 27/10 7/4"),
    (3, "-45/4 -20"), (2, "20 20"), (2, "-1 1/4"), (2, "0 20 20"),
    (1, "1/3"), (2, "13/12 -1/3"), (1, "1 0"), (3, "10/3 11/3"), (1, "20"),
    (1, "1"), (4, "9 -20 1/3"), (1, "-1"), (2, "-5 -17/2"), (1, "1/2"),
    (1, "0"), (1, "3/2"), (1, "20"), (2, "-1 3/2"), (4, "-20 -7 16"),
    (1, "infeasible"), (7, "-249/16 -20 83/16"), (2, "1/3 1/3"),
    (5, "-20 20 20"), (1, "2/3"), (4, "20 -23/4 20"), (2, "-20 31/2"),
    (1, "-1/4"), (0, "infeasible"), (3, "-20 -21/17 105/17"),
]
PINNED_BOUNDED = [
    (0, "2 2 -2 0"), (0, "infeasible"), (1, "-1/3"), (2, "2"), (1, "0"),
    (1, "-1 0 -1/2 1"), (0, "1 0 1 -2"), (1, "-2 1"), (2, "-1/4 1/4"),
    (2, "-2 -5/4 -7/8"), (1, "0 1"), (4, "2 -1"), (2, "2"), (0, "2 0 -3 0"),
    (3, "-2 -1 0"), (2, "1"), (1, "0 2 -1 -3"), (1, "0 -1/3"), (0, "0 -2"),
    (1, "1 5/2"), (2, "1 0"), (8, "1 -3 2 2"), (4, "-1 2 -1/3"),
    (3, "-1 1 -2 -8/3"), (2, "0 2 0 1"),
]


def _assert_integer_tableau(lp):
    assert len(lp.tab) == len(lp.den) == lp.m
    for row, d in zip(lp.tab, lp.den):
        assert type(d) is int and d > 0
        assert len(row) == lp.ncols
        assert all(type(a) is int for a in row)


def _pinned_cases():
    for seed, pin in enumerate(PINNED_ENUMERATION):
        _rows, _rhs, c, _box, brows, brhs = _enumeration_lp(seed)
        yield pytest.param(brows, brhs, c, None, None, pin,
                           id=f"enumeration-{seed}")
    for seed, pin in enumerate(PINNED_BOUNDED):
        rows, rhs, c, lo, hi = _bounded_lp(seed)
        yield pytest.param(rows, rhs, c, lo, hi, pin, id=f"bounded-{seed}")


@pytest.mark.parametrize("rows,rhs,c,lo,hi,pin", _pinned_cases())
def test_bland_trail_is_pinned(rows, rhs, c, lo, hi, pin):
    lp = ExactLp(rows, rhs, lo=lo, hi=hi)
    _assert_integer_tableau(lp)
    if not lp.find_feasible():
        outcome = "infeasible"
    else:
        _assert_integer_tableau(lp)
        status, _value = lp.optimize(c, "max")
        assert status == OPTIMAL
        outcome = " ".join(format_rat(v) for v in lp.values())
    _assert_integer_tableau(lp)
    assert (lp.pivots_used, outcome) == pin


@pytest.mark.parametrize("bad", [Rat(1, 2), Rat(-5, 3), 0.5, "1/3"])
def test_bounds_must_be_integers(bad):
    for lo, hi in (([bad, 0], None), (None, [3, bad])):
        with pytest.raises(InputError):
            lp_optimize([[1, 1]], [1], [1, 1], lo=lo, hi=hi)
        with pytest.raises(InputError):
            ExactLp([[1, 1]], [1], lo=lo, hi=hi)
    lp = ExactLp([[1, 1]], [1], lo=[0, 0], hi=[3, 3])
    with pytest.raises(InputError):
        lp.set_var_bounds(0, bad, 3)
    with pytest.raises(InputError):
        lp.set_var_bounds(1, 0, bad)
    assert lp.lo[:2] == [0, 0] and lp.hi[:2] == [3, 3]
    # an integral Rat is an integer bound
    lp.set_var_bounds(0, Rat(0), Rat(4, 2))
    assert lp.hi[0] == 2 and type(lp.hi[0]) is int
    assert lp.find_feasible()


@pytest.mark.parametrize("lo,hi", [
    ([0, 0, 0, 0], None),  # more bounds than columns, slacks included
    ([0, 0, 0], None),     # the extra entry would bound the slack
    ([5], None),
    (None, [1]),
    ([0, 0], [1, 1, 1]),
])
def test_bound_vectors_must_match_the_columns(lo, hi):
    with pytest.raises(InputError):
        lp_optimize([[1, 1]], [1], [1, 1], lo=lo, hi=hi)


# -- warm starts: the sequence branch and bound runs ------------------------

_small = st.integers(-3, 3)


@st.composite
def _warm_start_case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_small, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(-2, 6), min_size=m, max_size=m))
    senses = draw(st.lists(st.sampled_from(["<=", "=="]), min_size=m,
                           max_size=m))
    lo = [draw(st.integers(-3, 0)) for _ in range(n)]
    hi = [draw(st.integers(0, 3)) for _ in range(n)]
    # bound changes (variable, new lo, new hi), each applied after a solve
    changes = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-3, 3),
                  st.integers(-3, 3)), max_size=4))
    return rows, rhs, senses, lo, hi, changes


@settings(max_examples=150, deadline=None)
@given(_warm_start_case())
def test_warm_start_matches_fresh_solve(case):
    rows, rhs, senses, lo, hi, changes = case
    lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    lp.find_feasible()
    lo, hi = lo[:], hi[:]
    for j, a, b in changes:
        snap = lp.snapshot()
        lp.set_var_bounds(j, 0, 0)  # a sibling branch, then rewound
        lp.find_feasible()
        lp.restore(snap)
        lp.set_var_bounds(j, a, b)
        lo[j], hi[j] = a, b
        lp.find_feasible()
    _assert_integer_tableau(lp)
    warm = lp.find_feasible()
    fresh = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi).find_feasible()
    assert warm == fresh
    if warm:
        x = lp.values()
        for j, v in enumerate(x):
            assert lo[j] <= v <= hi[j]
        for row, b, sense in zip(rows, rhs, senses):
            lhs = dot(row, x)
            assert lhs == b if sense == "==" else lhs <= b


# -- integer state: values and bounds held as ints ---------------------------


def _assert_integer_state(lp):
    assert len(lp.bn) == lp.m and all(type(v) is int for v in lp.bn)
    assert len(lp.val) == lp.ncols and all(type(v) is int for v in lp.val)
    for bounds in (lp.lo, lp.hi):
        assert len(bounds) == lp.ncols
        assert all(v is None or type(v) is int for v in bounds)


@pytest.mark.parametrize("rows,rhs,c,lo,hi,pin", _pinned_cases())
def test_pinned_solves_hold_only_ints(rows, rhs, c, lo, hi, pin):
    lp = ExactLp(rows, rhs, lo=lo, hi=hi)
    _assert_integer_state(lp)
    if lp.find_feasible():
        _assert_integer_state(lp)
        lp.optimize(c, "max")
    _assert_integer_state(lp)


_quarter = st.builds(Rat, st.integers(-12, 24), st.integers(1, 4))
_coef = st.one_of(_small, st.builds(Rat, st.integers(-6, 6),
                                    st.sampled_from([2, 3])))


@st.composite
def _rational_warm_start_case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_coef, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(_quarter, min_size=m, max_size=m))
    senses = draw(st.lists(st.sampled_from(["<=", "=="]), min_size=m,
                           max_size=m))
    lo = [draw(st.integers(-7, 2)) for _ in range(n)]
    hi = [a + draw(st.integers(0, 4)) for a in lo]
    c = draw(st.lists(_small, min_size=n, max_size=n))
    changes = [(j, a, a + w) for j, a, w in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-4, 4),
                  st.integers(0, 4)), max_size=4))]
    return rows, rhs, senses, lo, hi, c, changes


@settings(max_examples=150, deadline=None)
@given(_rational_warm_start_case())
def test_rational_data_warm_start_matches_fresh_solve(case):
    rows, rhs, senses, lo, hi, c, changes = case
    lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    lp.find_feasible()
    lo, hi = lo[:], hi[:]
    for j, a, b in changes:
        snap = lp.snapshot()
        lp.set_var_bounds(j, 0, 0)  # a sibling branch, then rewound
        lp.find_feasible()
        lp.restore(snap)
        lp.set_var_bounds(j, a, b)
        lo[j], hi[j] = a, b
        lp.find_feasible()
    _assert_integer_tableau(lp)
    _assert_integer_state(lp)
    warm = lp.find_feasible()
    fresh = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
    assert warm == fresh.find_feasible()
    if not warm:
        return
    assert lp.optimize(c, "max") == fresh.optimize(c, "max")
    _assert_integer_state(lp)
    x = lp.values()
    for j, v in enumerate(x):
        assert lo[j] <= v <= hi[j]
    for row, b, sense in zip(rows, rhs, senses):
        lhs = dot(row, x)
        assert lhs == b if sense == "==" else lhs <= b


@pytest.mark.parametrize("seed", range(60))
def test_optimize_value_is_the_objective_at_the_optimum(seed):
    """``optimize`` sums its value from the integer state; it must equal
    the objective at ``values()``, for rational objectives and both senses,
    also after a warm re-solve from the last basis.  ``point()`` agrees
    with ``values()``."""
    rng = random.Random(4000 + seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    rows = [[Rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)]
    rhs = [Rat(rng.randint(-4, 12), rng.randint(1, 5)) for _ in range(m)]
    lp = ExactLp(rows, rhs, lo=[-9] * n, hi=[9] * n)
    if not lp.find_feasible():
        return
    for _ in range(4):
        c = [Rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        sense = rng.choice(["max", "min"])
        status, value = lp.optimize(c, sense)
        assert status == OPTIMAL
        assert type(value) is Rat
        assert value == dot(c, lp.values())
        # point() holds the same values as int pairs over positive dens
        point = lp.point()
        assert all(type(num) is int and type(den) is int and den > 0
                   for num, den in point)
        assert tuple(Rat(num, den) for num, den in point) == lp.values()


# -- infeasibility proofs: repeated Empty verdicts without pivots -------------


def _refuted_call(lp):
    """``find_feasible`` and whether a stored proof answered it: False with
    no pivot spent and no proof added, although every bound pair is in
    order (phase 1 stores a proof whenever it fails)."""
    pivots, proofs = lp.pivots_used, len(lp._proofs)
    verdict = lp.find_feasible()
    in_order = all(a is None or b is None or a <= b
                   for a, b in zip(lp.lo, lp.hi))
    refuted = (not verdict and in_order and lp.pivots_used == pivots
               and len(lp._proofs) == proofs)
    return verdict, refuted


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_proof_verdicts_match_fresh_solves(rational):
    """Bound changes and snapshot/restore on one tableau: every verdict
    equals a fresh ``ExactLp``'s under the same bounds, and stored proofs
    answer some of the calls."""
    refuted_calls = 0
    for seed in range(40):
        rng = random.Random(9100 + seed)
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)

        def coef():
            if rational and rng.random() < 0.5:
                return Rat(rng.randint(-6, 6), rng.choice([2, 3]))
            return rng.randint(-3, 3)

        rows = [[coef() for _ in range(n)] for _ in range(m)]
        rhs = [Rat(rng.randint(-4, 12), rng.randint(1, 4)) if rational
               else rng.randint(-2, 6) for _ in range(m)]
        senses = [rng.choice(["<=", "<=", "=="]) for _ in range(m)]
        lo = [rng.randint(-3, 0) for _ in range(n)]
        hi = [a + rng.randint(0, 4) for a in lo]
        lp = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
        saved = []
        for _ in range(30):
            action = rng.random()
            if action < 0.2:
                saved.append((lp.snapshot(), lo[:], hi[:]))
            elif action < 0.4 and saved:
                snap, lo, hi = saved.pop()
                lp.restore(snap)
            else:
                j = rng.randrange(n)
                a = rng.choice([None, rng.randint(-3, 3)])
                b = rng.choice([None, (a or 0) + rng.randint(-1, 4)])
                lp.set_var_bounds(j, a, b)
                lo[j], hi[j] = a, b
            verdict, refuted = _refuted_call(lp)
            fresh = ExactLp(rows, rhs, senses=senses, lo=lo, hi=hi)
            assert verdict == fresh.find_feasible(), (seed, lo, hi)
            refuted_calls += refuted
            if verdict:
                x = lp.values()
                for v, a, b in zip(x, lo, hi):
                    assert (a is None or a <= v) and (b is None or v <= b)
                for row, r, sense in zip(rows, rhs, senses):
                    lhs = dot(row, x)
                    assert lhs == r if sense == "==" else lhs <= r
    assert refuted_calls > 0


def _proof_case():
    # x == y and x + y <= 1 leave y <= 1/2; z takes no part
    return ExactLp([[1, -1, 0], [1, 1, 0], [0, 0, 1]], [0, 1, 3],
                   senses=["==", "<=", "<="], lo=[0, 1, 0], hi=[5, 5, 1])


def test_refuted_call_spends_no_pivot_and_no_budget():
    lp = _proof_case()
    assert not lp.find_feasible()
    assert lp.pivots_used > 0 and len(lp._proofs) == 1
    pivots, state = lp.pivots_used, lp.snapshot()
    with limit(0):  # any pivot would exceed it
        assert lp.find_feasible() is False
    assert lp.pivots_used == pivots
    assert lp.snapshot() == state


def test_proof_survives_widening_a_column_it_does_not_use():
    lp = _proof_case()
    assert not lp.find_feasible()
    pivots = lp.pivots_used
    lp.set_var_bounds(0, -5, 9)
    lp.set_var_bounds(2, None, None)
    with limit(0):
        assert _refuted_call(lp) == (False, True)
    assert lp.pivots_used == pivots


def test_widening_a_column_the_proof_uses_runs_phase1_again():
    lp = _proof_case()
    assert not lp.find_feasible()
    pivots = lp.pivots_used
    lp.set_var_bounds(1, 0, 5)
    assert lp.find_feasible()
    assert lp.pivots_used > pivots
    x = lp.values()
    assert x[0] == x[1] and x[0] + x[1] <= 1 and x[1] >= 0
