"""Seeded random instance generators shared across test modules."""

import itertools
import math

import pytest

from conepack import geometry, solver
from conepack.exactmath import lp_optimize
from conepack.geometry import Polytope, box_polytope, lattice_points
from conepack.rational import Rat, rat_ceil
from conepack.errors import ResourceError


def rand_size(rng, max_den=20):
    """A random rational in (0, 1]."""
    den = rng.randint(2, max_den)
    num = rng.randint(1, den)
    return Rat(num, den)


def rand_bp_instance(rng, max_dim=3, max_den=20, max_items=10):
    """Sizes in (0,1] and multiplicities summing to at most max_items."""
    d = rng.randint(1, max_dim)
    sizes = [rand_size(rng, max_den) for _ in range(d)]
    total = rng.randint(1, max_items)
    cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
    mult = []
    prev = 0
    for c in list(cuts) + [total]:
        mult.append(c - prev)
        prev = c
    return sizes, mult


def pattern_polytope(sizes, capacity, a):
    """One bin's patterns clipped to the demand, ``{x : s.x <= capacity,
    0 <= x <= a}``, the polytope a cutting stock probe builds."""
    return geometry.down_closed_polytope(
        *solver._pattern_rows(sizes, capacity), a)


def mode_verdicts(inst, opt):
    """``multi_polytope_select``'s verdicts on a cutting stock (or bin
    packing) instance, faithful then joint, at the optimum ``opt`` and one
    step of the costs' gcd below it.

    A closed configuration window answers without either mode, so the
    modes are compared on the probes themselves.
    """
    mult = inst.multiplicities
    parts = [(pattern_polytope(inst.sizes, w, mult), c)
             for w, c in inst.bin_types]
    step = math.gcd(*(c for _w, c in inst.bin_types))
    target = box_polytope(mult, mult)
    return [solver.multi_polytope_select(parts, target, b, mode=mode).found
            for b in (opt, opt - step) for mode in ("faithful", "joint")]


def check_window(parts, a):
    """``configuration_window(parts, a)`` against the configuration LP over
    every non-zero point, solved by ``exactmath.lp_optimize``: ``lo`` is
    its optimum rounded up to the costs' gcd, the cover reaches ``a``
    exactly with points of their parts at cost ``hi``, and ``hi - lo`` is
    below ``len(a)`` times the dearest cost.  The basis record is an
    optimal basis: adj(B) times its columns is D times the identity, the
    tableau's last column is adj(B) a, the dual row prices each basic
    column at its cost and every column at no more, and its last entry is
    ``y . a``.  Returns ``(lo, hi, cover)``."""
    lo, hi, cover, basis = solver.configuration_window(parts, a)
    rows, D = basis.rows, basis.det
    assert rows == [j for j, v in enumerate(a) if v] and D > 0
    for k, (i, p) in enumerate(basis.columns):
        q = [p[j] for j in rows]
        price = sum(y * v for y, v in zip(basis.dual, q))
        assert price <= parts[i][1] * D
        if k in basis.basis:
            r = basis.basis.index(k)
            assert price == parts[i][1] * D
            assert [sum(x * v for x, v in zip(row, q))
                    for row in basis.tableau] == [D * (s == r)
                                                  for s in range(len(rows))]
    for row in basis.tableau:
        assert row[-1] == sum(x * a[j] for x, j in zip(row, rows))
    assert basis.dual[-1] == sum(y * a[j] for y, j in zip(basis.dual, rows))
    columns = [(p, c) for points, c in parts for p in points if any(p)]
    d = len(a)
    if any(a):
        res = lp_optimize([[p[j] for p, _c in columns] for j in range(d)],
                          list(a), [c for _p, c in columns], sense="min",
                          senses=["=="] * d, lo=[0] * len(columns))
        g = math.gcd(*(c for _p, c in columns)) or 1
        assert lo == -(-rat_ceil(res.value) // g) * g
    else:
        assert lo == 0
    reached = [0] * d
    for i, q, n in cover:
        assert n >= 1 and any(q) and q in parts[i][0]
        reached = [r + n * v for r, v in zip(reached, q)]
    assert reached == list(a)
    assert hi == sum(parts[i][1] * n for i, _q, n in cover)
    assert lo <= hi
    assert hi - lo < d * max([c for _p, c in columns], default=1)
    return lo, hi, cover


def singleton_target(vals):
    """The one-point polytope {vals}."""
    return box_polytope(vals, vals)


def rand_bounded_polytope(rng, max_dim=3, max_rows=6, coeff_cap=50,
                          box_cap=5, require_lattice=True,
                          lattice_budget=100_000):
    """A bounded integer polytope: a box plus a few random halfspaces.

    Resamples until the lattice is non-empty (when required) and within
    budget, so callers can rely on enumerability.
    """
    while True:
        d = rng.randint(1, max_dim)
        rows, rhs = [], []
        for j in range(d):
            unit = [0] * d
            unit[j] = 1
            b = rng.randint(0, box_cap)
            a = rng.randint(-box_cap, b)
            rows.append(list(unit))
            rhs.append(b)
            rows.append([-x for x in unit])
            rhs.append(-a)
        for _ in range(rng.randint(0, max_rows - 1)):
            row = [rng.randint(-coeff_cap, coeff_cap) for _ in range(d)]
            if all(v == 0 for v in row):
                continue
            rows.append(row)
            rhs.append(rng.randint(-coeff_cap, coeff_cap))
        poly = Polytope(rows, rhs)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "DEFAULT_LATTICE_BUDGET",
                              lattice_budget)
                pts = lattice_points(poly)
        except ResourceError:
            continue
        if pts or not require_lattice:
            return poly


def exhaustive_ilp(rows, rhs, box):
    """Reference for ``ilp_feasible``: the first integer point of the box
    ``[(lo, hi), ...]`` in lexicographic order that meets every row, or
    None."""
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if all(sum(c * v for c, v in zip(row, x)) <= b
               for row, b in zip(rows, rhs)):
            return x
    return None


def weighted_sum(weights):
    """``sum_x weight[x] * x`` of a ``{point: weight}`` combination; the
    empty combination sums to ``()``."""
    return tuple(map(sum, zip(*(tuple(w * v for v in p)
                                for p, w in weights.items()))))
