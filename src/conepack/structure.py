"""Support reduction and weight redistribution for integer combinations.

A combination is its weights: a ``{point: weight}`` dict from integer
points to positive integer weights, standing for the sum
``sum_x weight[x] * x``.  Each entry that takes a combination reads it
once through ``_weights``, which reads every coordinate and weight through
``rational.integer``, drops zero weights, and refuses a negative weight or
points of mixed dimension.  Three procedures keep the sum and the total
weight invariant while simplifying the support, and return plain dicts:

* ``reduce_support``: parity-pairing descent to at most ``2^d`` points,
  all inside the convex hull of the original support.
* ``redistribute_in_pp``: moves weight from one point of an integral
  parallelepiped onto its vertices, leaving at most ``2^d`` non-vertex
  points of weight 1.
* ``normalize_combination``: combines both against a precomputed
  ``StructureSet`` so that off the special-point set X all weights are
  0/1 and the support is small both inside and outside X.

All arithmetic is exact; each rewriting step asserts its progress measure
(squared-norm potential or off-X mass), which is what guarantees
termination.  Weight moves onto corners built by the parallelepiped's own
``Parallelepiped.corner``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Mapping, Sequence

from .errors import InputError, InternalError
from .geometry import (
    Parallelepiped,
    Polytope,
    lattice_points,
    parallelepiped_cover,
)
from .rational import integer, integers


def _weights(combo: Mapping) -> Dict[tuple, int]:
    """The ``{point: weight}`` dict of a combination, read once.

    Coordinates and weights go through ``rational.integer``, so integral
    rationals come back as ints; zero weights are dropped, and a negative
    weight, points of mixed dimension or a ``combo`` that is not a mapping
    raise ``InputError``.
    """
    try:
        items = combo.items()
    except AttributeError as exc:
        raise InputError(f"combination {combo!r} is not a mapping of points "
                         f"to weights") from exc
    store: Dict[tuple, int] = {}
    dim = None
    for point, w in items:
        pt = integers(point, "point coordinate")
        w = integer(w, "weight")
        if w < 0:
            raise InputError(f"negative weight {w} at {pt}")
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise InputError(f"point {pt} has dim {len(pt)}, expected {dim}")
        if w > 0:
            store[pt] = store.get(pt, 0) + w
    return store


def _sum(weights: Mapping, dim: int) -> tuple:
    """Exact ``sum_x weight[x] * x`` in ``dim`` coordinates."""
    acc = [0] * dim
    for p, w in weights.items():
        for i, v in enumerate(p):
            acc[i] += w * v
    return tuple(acc)


def _first_parity_pair(points: Sequence[tuple]):
    for i in range(len(points)):
        pi = tuple(v & 1 for v in points[i])
        for j in range(i + 1, len(points)):
            if pi == tuple(v & 1 for v in points[j]):
                return points[i], points[j]
    return None


def reduce_support(combo: Mapping) -> dict:
    """Shrink the support of a ``{point: weight}`` combination to at most
    ``2^d`` points; returns a new dict.

    While more than ``2^d`` points carry weight, two of them agree
    coordinate-wise mod 2; both shed ``t = min(weight)`` units onto their
    integral midpoint.  The squared-norm potential drops by
    ``t * |x - y|^2 / 2 >= 2t`` per step, so the loop terminates; sum and
    total weight are preserved exactly, and new points are midpoints, hence
    stay in the convex hull of the original support.
    """
    return _reduced(_weights(combo))


def _reduced(weights: Dict[tuple, int]) -> Dict[tuple, int]:
    """``reduce_support`` of weights already read; mutates and returns them."""
    if not weights:
        return weights
    bound = 1 << len(next(iter(weights)))
    while len(weights) > bound:
        pair = _first_parity_pair(sorted(weights))
        if pair is None:
            raise InternalError("pigeonhole failed: no same-parity pair")
        x, y = pair
        z = tuple((a + b) // 2 for a, b in zip(x, y))
        t = min(weights[x], weights[y])
        drop = t * sum((a - b) ** 2 for a, b in zip(x, y)) // 2
        if drop <= 0:
            raise InternalError("pairing step failed to decrease the potential")
        for p in (x, y):
            weights[p] -= t
            if weights[p] == 0:
                del weights[p]
        weights[z] = weights.get(z, 0) + 2 * t
    return weights


def _settle_in_pp(pp: Parallelepiped, weights: Dict[tuple, int],
                  frozen) -> bool:
    """Rewrite weights of movable points inside ``pp`` toward its vertices.

    ``frozen`` is a membership predicate (set) of points that never move;
    it must contain every vertex of ``pp``.  On return, every movable point
    inside ``pp`` has weight at most 1 and there are at most ``2^d`` of
    them.  Mutates ``weights`` in place; returns whether any step ran.
    """
    bound = 1 << pp.dim
    coords_cache: dict = {}

    def coords(p):
        if p not in coords_cache:
            coords_cache[p] = pp._numerators(p)
        return coords_cache[p]

    stepped = False
    while True:
        movable = sorted(p for p, w in weights.items()
                         if w > 0 and p not in frozen and coords(p) is not None)
        target = next((p for p in movable if weights[p] >= 2), None)
        if target is not None:
            # the corner signed like target's mu = num / den (den > 0)
            num, _den = coords(target)
            yv = pp.corner([1 if a >= 0 else -1 for a in num])
            z = tuple(2 * a - b for a, b in zip(target, yv))
            if coords(z) is None:
                raise InternalError(f"mirror point {z} left the parallelepiped")
            t = weights[target] // 2
            mass_before = sum(w for p, w in weights.items() if p not in frozen)
            weights[target] -= 2 * t
            if weights[target] == 0:
                del weights[target]
            weights[yv] = weights.get(yv, 0) + t
            weights[z] = weights.get(z, 0) + t
            mass_after = sum(w for p, w in weights.items() if p not in frozen)
            if mass_after >= mass_before:
                raise InternalError("mirror step failed to shed movable mass")
            stepped = True
            continue
        if len(movable) > bound:
            pair = _first_parity_pair(movable)
            if pair is None:
                raise InternalError("pigeonhole failed inside a parallelepiped")
            x, yv = pair
            z = tuple((a + b) // 2 for a, b in zip(x, yv))
            if coords(z) is None:
                raise InternalError(f"midpoint {z} left the parallelepiped")
            for p in (x, yv):
                weights[p] -= 1
                if weights[p] == 0:
                    del weights[p]
            weights[z] = weights.get(z, 0) + 2
            stepped = True
            continue
        return stepped


def redistribute_in_pp(pp: Parallelepiped, x_star: Sequence[int],
                       w: int) -> dict:
    """Spread ``w`` copies of a parallelepiped point onto its vertices.

    Returns a ``{point: weight}`` combination with the same sum
    ``w * x_star`` and total weight ``w`` whose non-vertex support points
    all carry weight 1 and number at most ``2^d``.  A vertex input comes
    back unchanged.
    """
    w = integer(w, "weight")
    if w <= 0:
        raise InputError(f"weight must be a positive integer, got {w!r}")
    x = integers(x_star, "point coordinate")
    if not pp.contains(x):
        raise InputError(f"{x} is not inside the parallelepiped")
    weights = {x: w}
    _settle_in_pp(pp, weights, frozenset(pp.vertices()))
    if _sum(weights, pp.dim) != tuple(w * v for v in x) or \
            sum(weights.values()) != w:
        raise InternalError("redistribution broke the sum or the weight")
    return weights


class StructureSet:
    """Cover of a polytope's lattice together with its special points.

    ``special_points`` (X) are exactly the parallelepiped vertices of the
    cover; ``locator`` maps every lattice point to the lowest index of a
    parallelepiped containing it.  It holds a dict and a polytope, so it
    compares and hashes by identity.
    """

    __slots__ = ("special_points", "cover", "locator", "polytope",
                 "special_set")

    def __init__(self, special_points: tuple, cover: tuple, locator: dict,
                 polytope: Polytope, special_set: frozenset):
        self.special_points = special_points
        self.cover = cover
        self.locator = locator
        self.polytope = polytope
        self.special_set = special_set


def compute_structure_set(poly: Polytope) -> StructureSet:
    """Cover the polytope and index its lattice points by parallelepiped.

    Every lattice point goes to the lowest index of a parallelepiped
    containing it.  A point element (``k = 0``) is its own vertex and
    contains only itself, so all of them are indexed in one pass over the
    cover, read from the last index back so that a repeated point keeps
    its lowest index.  When the cover is point elements alone and they
    hold every lattice point, each point is a cover vertex, so the sorted
    lattice list is the special points, and nothing more is done.
    Otherwise each element with directions, in index order, tests only
    the lattice points inside the bounding box of its vertices that no
    earlier element holds, and claims those it contains, taking over from
    a point element of a higher index.

    The lattice is read once.  The special points come out sorted by
    filtering that sorted list, so a cover vertex outside it raises
    ``InternalError``; then a locator as long as the list holds every
    point, and only a shorter one is scanned, to name a missed point.
    """
    cover = tuple(parallelepiped_cover(poly))
    points = lattice_points(poly)
    last = len(cover) - 1
    locator = {pp._center: idx  # integral, so stored unscaled
               for idx, pp in zip(range(last, -1, -1), reversed(cover))
               if not pp.vecs}
    if (len(locator) == len(cover) == len(points)
            and all(map(locator.__contains__, points))):
        # distinct point elements, one on every lattice point
        return StructureSet(tuple(points), cover, locator, poly,
                            frozenset(locator))
    special = set(locator)
    # the elements with directions, in index order
    boxed = [(idx, pp) for idx, pp in enumerate(cover) if pp.vecs]
    # sorted; the points that no k > 0 element has claimed yet
    unassigned = list(points)
    for idx, pp in boxed:
        verts = pp.vertices()
        special.update(verts)
        lo = tuple(map(min, zip(*verts)))
        hi = tuple(map(max, zip(*verts)))
        # every point of the box lies between lo and hi lexicographically
        start = bisect_left(unassigned, lo)
        stop = bisect_right(unassigned, hi)
        missed = []
        for p in unassigned[start:stop]:
            if locator.get(p, idx) < idx:
                continue  # an earlier point element holds it
            if all(a <= x <= b for a, x, b in zip(lo, p, hi)) and pp.contains(p):
                locator[p] = idx
            else:
                missed.append(p)
        unassigned[start:stop] = missed
    # every cover vertex is an integral point of P, so it is in the
    # sorted lattice list
    special_points = tuple(filter(special.__contains__, points))
    if len(special_points) != len(special):
        stray = min(special.difference(special_points))
        raise InternalError(f"cover vertex {stray} is not a lattice point")
    # the locator's keys are now lattice points, so equal counts mean
    # every point is claimed
    if len(locator) != len(points):
        missing = next(p for p in unassigned if p not in locator)
        raise InternalError(f"lattice point {missing} missed by the cover")
    return StructureSet(special_points, cover, locator, poly,
                        frozenset(special))


def normalize_combination(combo: Mapping, sset: StructureSet) -> dict:
    """Rewrite a ``{point: weight}`` combination into the structured
    normal form; returns a new dict.

    Post-conditions (asserted): sum and total weight unchanged; off the
    special set X every weight is 0 or 1; at most ``2^{2d}`` support points
    inside X and at most ``2^{2d}`` outside.  Every support point must be a
    covered lattice point, otherwise the input is rejected.
    """
    weights = _weights(combo)
    if not weights:
        return weights
    d = sset.polytope.dim
    dim = len(next(iter(weights)))
    if dim != d:
        raise InputError(f"combination dim {dim} vs polytope dim {d}")
    total = sum(weights.values())
    reached = _sum(weights, d)
    weights = _reduced(weights)
    xset = sset.special_set
    used = set()
    for p in weights:
        if p not in sset.locator:
            raise InputError(f"support point {p} is not a covered lattice point")
        if p not in xset:
            used.add(sset.locator[p])
    order = sorted(used)
    # settle every claimed parallelepiped until a full sweep is silent;
    # each step strictly shrinks (off-X mass, potential) lexicographically
    while True:
        if not any(_settle_in_pp(sset.cover[idx], weights, xset)
                   for idx in order):
            break
    if _sum(weights, d) != reached or sum(weights.values()) != total:
        raise InternalError("normalization broke the sum or the weight")
    on_x = sum(1 for p in weights if p in xset)
    off_x = len(weights) - on_x
    cap = 1 << (2 * d)
    if any(w > 1 for p, w in weights.items() if p not in xset):
        raise InternalError("off-X weight above 1 after normalization")
    if on_x > cap or off_x > cap:
        raise InternalError(
            f"support bounds violated: {on_x} on X, {off_x} off X, cap {cap}")
    return weights
