import hashlib
import random
import re
from collections import Counter

import pytest

from conepack import exactmath, geometry, oracle, structure
from conepack.errors import InputError, InternalError
from conepack.geometry import (
    Parallelepiped,
    Polytope,
    box_polytope,
    cell_partition,
    coordinate_bounds,
    in_convex_hull,
    integer_hull_vertices,
    lattice_points,
    slack_interval_index,
)
from conepack.rational import format_rat
from conepack.structure import (
    compute_structure_set,
    normalize_combination,
    redistribute_in_pp,
    reduce_support,
)

from genutil import weighted_sum


def square_pp():
    """The square with corners (0, -1) and (2, 1)."""
    return Parallelepiped((1, 0), ((1, 0), (0, 1)))


def normalized_in_box(combo):
    """``normalize_combination`` against the box [0, 3]^2, which holds
    every point of ``TestCombination``; its cover is its 16 points, so
    every point is special and a small support comes back as it is."""
    return normalize_combination(
        combo, compute_structure_set(box_polytope([0, 0], [3, 3])))


# the entries that take a {point: weight} combination
ENTRIES = [reduce_support, normalized_in_box]


class TestCombination:
    """A combination is its ``{point: weight}`` dict, read alike by every
    entry: zero weights dropped, a negative weight or mixed dimensions
    refused.  ``tests/test_intake.py`` reads coordinates and weights
    through ``rational.integer`` at each entry."""

    def test_zero_weights_dropped(self):
        for entry in ENTRIES:
            assert entry({(1, 2): 3, (0, 0): 0}) == {(1, 2): 3}
            assert entry({(0, 0): 0}) == {}

    def test_negative_weight_rejected(self):
        for entry in ENTRIES:
            with pytest.raises(InputError,
                               match=r"^negative weight -1 at \(1, 1\)$"):
                entry({(2, 2): 1, (1, 1): -1})
        with pytest.raises(InputError, match="^weight must be a positive"):
            redistribute_in_pp(square_pp(), (1, 0), -1)

    def test_dim_mismatch_rejected(self):
        for entry in ENTRIES:
            with pytest.raises(InputError,
                               match=r"^point \(3,\) has dim 1, expected 2$"):
                entry({(1, 2): 1, (3,): 1})
        with pytest.raises(InputError, match="^point dimension mismatch$"):
            redistribute_in_pp(square_pp(), (1,), 1)

    def test_sum(self):
        # every entry keeps the sum, and the empty combination stays empty
        for entry in ENTRIES:
            assert entry({}) == {}
            for combo, total in [({(1, 0): 2, (0, 3): 1}, (2, 3)),
                                 ({(3, 0): 1, (2, 1): 1}, (5, 1))]:
                assert weighted_sum(combo) == total
                assert weighted_sum(entry(combo)) == total
        assert weighted_sum(redistribute_in_pp(square_pp(), (1, 0), 5)) == \
            (5, 0)


class TestReduceSupport:
    def test_d1_example(self):
        assert reduce_support({(0,): 1, (1,): 2, (2,): 1}) == {(1,): 4}

    def test_small_support_unchanged(self):
        c = {(0, 0): 5, (3, 1): 2}
        assert reduce_support(c) == c

    def test_d2_five_points(self):
        c = {(0, 0): 1, (2, 0): 1, (0, 2): 1, (2, 2): 1, (1, 1): 1}
        out = reduce_support(c)
        assert len(out) <= 4
        assert weighted_sum(out) == (5, 5)
        assert sum(out.values()) == 5

    def test_empty(self):
        assert reduce_support({}) == {}

    def test_random_invariants(self):
        rng = random.Random(60523)
        for _ in range(150):
            d = rng.randint(1, 3)
            n = rng.randint(1, 10)
            c = {tuple(rng.randint(0, 20) for _ in range(d)): rng.randint(1, 50)
                 for _ in range(n)}
            out = reduce_support(c)
            assert len(out) <= 2 ** d
            assert weighted_sum(out) == weighted_sum(c)
            assert sum(out.values()) == sum(c.values())
            hull = list(c)
            for p in out:
                assert in_convex_hull(p, hull)


def segment_pp():
    return Parallelepiped((1,), ((1,),))


class TestRedistribute:
    def test_d1_weight5(self):
        out = redistribute_in_pp(segment_pp(), (1,), 5)
        assert out == {(0,): 2, (2,): 2, (1,): 1}

    def test_d1_weight2(self):
        out = redistribute_in_pp(segment_pp(), (1,), 2)
        assert out == {(0,): 1, (2,): 1}

    def test_vertex_unchanged(self):
        out = redistribute_in_pp(segment_pp(), (2,), 7)
        assert out == {(2,): 7}

    def test_outside_rejected(self):
        with pytest.raises(InputError):
            redistribute_in_pp(segment_pp(), (3,), 1)
        with pytest.raises(InputError):
            redistribute_in_pp(segment_pp(), (1,), 0)

    def test_square_center(self):
        pp = Parallelepiped((1, 1), ((1, 0), (0, 1)))
        out = redistribute_in_pp(pp, (1, 1), 9)
        verts = set(pp.vertices())
        assert weighted_sum(out) == (9, 9)
        assert sum(out.values()) == 9
        nonvert = {p: w for p, w in out.items() if p not in verts}
        assert all(w == 1 for w in nonvert.values())
        assert len(nonvert) <= 4

    def test_random_invariants(self):
        rng = random.Random(71219)
        pps = [
            Parallelepiped((2,), ((2,),)),
            Parallelepiped((2, 2), ((2, 0), (0, 2))),
            Parallelepiped((1, 1), ((1, 1), (1, -1))),
            Parallelepiped((3, 3, 3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ]
        for _ in range(120):
            pp = pps[rng.randrange(len(pps))]
            pts = [p for p in _pp_lattice(pp)]
            x = pts[rng.randrange(len(pts))]
            w = rng.randint(1, 60)
            out = redistribute_in_pp(pp, x, w)
            verts = set(pp.vertices())
            assert weighted_sum(out) == tuple(w * v for v in x)
            assert sum(out.values()) == w
            for p, wt in out.items():
                assert pp.contains(p)
                if p not in verts:
                    assert wt == 1
            assert sum(1 for p in out if p not in verts) <= 2 ** pp.dim


def _pp_lattice(pp):
    """All integer points of a parallelepiped, by box scan."""
    verts = pp.vertices()
    d = pp.dim
    lo = [min(v[i] for v in verts) for i in range(d)]
    hi = [max(v[i] for v in verts) for i in range(d)]
    out = []

    def rec(i, prefix):
        if i == d:
            if pp.contains(tuple(prefix)):
                out.append(tuple(prefix))
            return
        for v in range(lo[i], hi[i] + 1):
            rec(i + 1, prefix + [v])

    rec(0, [])
    return out


class TestStructureSet:
    def test_single_point(self):
        poly = Polytope([[1], [-1]], [2, -2])
        sset = compute_structure_set(poly)
        assert sset.special_points == ((2,),)
        assert len(sset.cover) == 1
        assert sset.locator[(2,)] == 0

    def test_segment(self):
        poly = Polytope([[-1], [1]], [0, 3])
        sset = compute_structure_set(poly)
        assert set(sset.special_points) == {(0,), (3,)}
        for x in range(4):
            assert (x,) in sset.locator

    def test_knapsack_locator_total(self):
        poly = Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200])
        sset = compute_structure_set(poly)
        pts = lattice_points(poly)
        assert all(p in sset.locator for p in pts)
        vertex_union = set()
        for pp in sset.cover:
            vertex_union.update(pp.vertices())
        assert set(sset.special_points) == vertex_union


def _box3(hi, cuts=()):
    rows, rhs = [], []
    for j, h in enumerate(hi):
        unit = [0, 0, 0]
        unit[j] = 1
        rows += [unit, [-v for v in unit]]
        rhs += [h, 0]
    for row, b in cuts:
        rows.append(row)
        rhs.append(b)
    return rows, rhs


# sha256 prefixes of (cover, special points, sorted locator), recorded with
# the locator that tried every parallelepiped on every lattice point; the
# two 2-d polygons after the knapsack have points in several
# parallelepipeds, and the last two 3-d boxes have segment cells
LOCATOR_PINS = [
    ([[-1, 0], [0, -1], [26, 41]], [0, 0, 200], "8ad247141959924b"),
    ([[-1, 0], [0, -1], [2, 3]], [0, 0, 60], "8a67d5bb685e5b09"),
    ([[-1, 0], [1, -2], [-1, 3], [1, 1]], [0, 0, 40, 45], "5cc302dfd5b53a34"),
    (*_box3((4, 4, 4), [([1, 1, 1], 6)]), "a1863ab0a8909ea4"),
    (*_box3((1, 1, 80)), "1a6e7a6ad02ac2b8"),
    (*_box3((1, 1, 60), [([1, 1, 3], 170)]), "cfd00a2598aa7c44"),
]


def _structure_digest(sset):
    cover = [([format_rat(c) for c in pp.center],
              [[format_rat(v) for v in dvec] for dvec in pp.directions])
             for pp in sset.cover]
    blob = repr((cover, sset.special_points, sorted(sset.locator.items())))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestLocator:
    @pytest.mark.parametrize("rows,rhs,pin", LOCATOR_PINS, ids=[
        "knapsack", "overlap-a", "overlap-b", "cut-box", "column",
        "cut-column"])
    def test_lowest_index_rule_is_pinned(self, rows, rhs, pin):
        poly = Polytope(rows, rhs)
        sset = compute_structure_set(poly)
        pts = lattice_points(poly)
        assert sorted(sset.locator) == pts
        for p in pts:
            first = next(idx for idx, pp in enumerate(sset.cover)
                         if pp.contains(p))
            assert sset.locator[p] == first
        assert _structure_digest(sset) == pin

    def test_slow_ellipsoid_cell_is_pinned(self):
        # cells whose ellipsoid step never reaches the tolerance; the digest
        # was recorded with the numpy iteration and a cap of 100,000 steps
        poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [5, -5]],
                        [30, 0, 26, 0, 48])
        sset = compute_structure_set(poly)
        assert _structure_digest(sset) == "7021b6eeb0a388e4"
        assert oracle.cover_verify(poly, sset.cover).ok

    def test_mixed_cover_keeps_the_lowest_index(self, monkeypatch):
        # points claim with a dict lookup, segments by a box scan; neither
        # may take a point an earlier element holds, nor lose one to a
        # later element
        cover = [Parallelepiped((1,), ((1,),)),   # 0, 1, 2
                 Parallelepiped((2,), ()),        # 2, held by 0
                 Parallelepiped((5,), ()),        # 5
                 Parallelepiped((4,), ((1,),)),   # 3, 4; 5 held by 2
                 Parallelepiped((3,), ()),        # 3, held by 3
                 Parallelepiped((6,), ()),        # 6
                 Parallelepiped((5,), ((1,),))]   # 4, 5, 6 all held
        monkeypatch.setattr(structure, "parallelepiped_cover",
                            lambda poly: list(cover))
        sset = compute_structure_set(Polytope([[1], [-1]], [6, 0]))
        assert sset.locator == {(0,): 0, (1,): 0, (2,): 0, (5,): 2,
                                (3,): 3, (4,): 3, (6,): 5}
        for p, idx in sset.locator.items():
            assert idx == next(i for i, pp in enumerate(cover)
                               if pp.contains(p))
        assert sset.special_points == ((0,), (2,), (3,), (4,), (5,), (6,))


def test_cover_like_polytopes_are_covered_by_bare_points():
    """3-d boxes with sides 3 to 9 cut by one to three random halfspaces,
    drawn as the benchmark's ``cover`` workload draws them.  Sides up to 9
    put every coordinate slack in an interval of its own, so each cell is
    one lattice point and each cover element a ``k = 0`` point, in the
    order of the points' slack signatures."""
    rng = random.Random(90317)
    done = 0
    while done < 12:
        box = [rng.randint(3, 9) for _ in range(3)]
        cuts = []
        for _ in range(rng.randint(1, 3)):
            row = [rng.randint(-6, 6) for _ in range(3)]
            if any(row):
                cuts.append((row, rng.randint(5, 40)))
        poly = Polytope(*_box3(box, cuts))
        pts = lattice_points(poly)
        if not 45 <= len(pts) <= 583:
            continue
        done += 1
        signed = sorted((tuple(
            slack_interval_index(b - sum(c * x for c, x in zip(row, p)), 3)
            for row, b in zip(poly.A, poly.b)), p) for p in pts)
        assert len({sig for sig, _p in signed}) == len(pts)
        order = [p for _sig, p in signed]
        sset = compute_structure_set(poly)
        assert all(pp.k == 0 for pp in sset.cover)
        assert list(sset.cover) == [Parallelepiped.point(p) for p in order]
        assert sset.special_points == tuple(pts)
        assert sset.locator == {p: i for i, p in enumerate(order)}
        report = oracle.cover_verify(poly, sset.cover)
        assert report.ok, report.violations[:2]


def test_cover_like_polytopes_solve_no_lp(monkeypatch):
    """The box rows of a ``cover`` polytope bound its lattice, so its
    structure set and integer hull build no ``ExactLp``; asked directly,
    ``coordinate_bounds`` still solves the exact bound LP."""
    built = []
    lp_init = exactmath.ExactLp.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        lp_init(self, *args, **kwargs)

    monkeypatch.setattr(exactmath.ExactLp, "__init__", counting)
    rng = random.Random(30418)
    for _ in range(8):
        box = [rng.randint(3, 9) for _ in range(3)]
        cuts = [([rng.randint(-6, 6) for _ in range(3)], rng.randint(5, 40))
                for _ in range(rng.randint(1, 3))]
        poly = Polytope(*_box3(box, cuts))
        compute_structure_set(poly)
        integer_hull_vertices(poly)
        assert built == []
        bounds = coordinate_bounds(poly)
        assert len(built) == 1
        fresh = []
        for j in range(3):
            c = [int(i == j) for i in range(3)]
            fresh.append(tuple(
                exactmath.lp_optimize(poly.A, poly.b, c, sense=sense).value
                for sense in ("min", "max")))
        assert bounds == fresh
        built.clear()


# 3-d slabs 40 long in x: the slack grid is coarse along x, so some cells
# are segments and the cover holds k = 1 elements
SLAB_PINS = [
    (*_box3((40, 3, 3)), 656, 624, {0: 592, 1: 32},
     [(0, 0, 0), (0, 0, 3), (0, 3, 0), (0, 3, 3),
      (40, 0, 0), (40, 0, 3), (40, 3, 0), (40, 3, 3)],
     "4554751425d917b1"),
    (*_box3((40, 4, 4), [([1, 2, 3], 44)]), 868, 855, {0: 842, 1: 13},
     [(0, 0, 0), (0, 0, 4), (0, 4, 0), (0, 4, 4), (24, 4, 4), (32, 0, 4),
      (36, 4, 0), (38, 0, 2), (40, 0, 0), (40, 0, 1), (40, 2, 0)],
     "8e65712e3aaac573"),
]


@pytest.mark.parametrize("rows,rhs,points,cells,per_k,hull,pin", SLAB_PINS,
                         ids=["box", "cut-box"])
def test_flat_slabs_build_segment_elements(rows, rhs, points, cells, per_k,
                                           hull, pin):
    poly = Polytope(rows, rhs)
    sset = compute_structure_set(poly)
    pts = lattice_points(poly)
    assert len(pts) == points
    assert len(cell_partition(poly)) == cells
    assert Counter(pp.k for pp in sset.cover) == per_k
    report = oracle.cover_verify(poly, sset.cover)
    assert report.ok, report.violations[:2]
    assert sorted(sset.locator) == pts
    assert _structure_digest(sset) == pin
    assert integer_hull_vertices(poly) == hull
    # the pinned vertices are extreme, and their hull holds every point
    for v in hull:
        assert not in_convex_hull(v, [w for w in hull if w != v])
    assert all(in_convex_hull(p, hull) for p in pts)


def _k_cover_polytopes():
    """Polytopes whose covers hold ``k > 0`` elements: the pinned slabs,
    the pinned locator polytopes, and seeded flat slabs (a long box, thin
    in the other coordinates, sometimes cut) whose coarse slack grid
    along x makes multi-point cells."""
    pinned = [Polytope(rows, rhs) for rows, rhs, *_pins in SLAB_PINS]
    pinned += [Polytope(rows, rhs) for rows, rhs, _pin in LOCATOR_PINS]
    polys = [poly for poly in pinned
             if any(pp.k for pp in compute_structure_set(poly).cover)]
    rng = random.Random(40531)
    seeded = 0
    while seeded < 6:
        box = (rng.randint(24, 40), rng.randint(1, 3), rng.randint(0, 2))
        cuts = []
        if rng.random() < 0.5:
            cuts.append(([1, rng.randint(1, 3), rng.randint(1, 3)],
                         rng.randint(box[0] // 2, box[0] + 4)))
        poly = Polytope(*_box3(box, cuts))
        if any(pp.k for pp in compute_structure_set(poly).cover):
            polys.append(poly)
            seeded += 1
    return polys


K_COVER_POLYTOPES = _k_cover_polytopes()


@pytest.mark.parametrize("poly", K_COVER_POLYTOPES)
def test_special_points_are_the_sorted_cover_vertices(poly):
    sset = compute_structure_set(poly)
    assert any(pp.k for pp in sset.cover)
    union = set()
    for pp in sset.cover:
        union.update(pp.vertices())
    assert sset.special_points == tuple(sorted(union))


@pytest.mark.parametrize("poly", K_COVER_POLYTOPES)
def test_multi_point_cells_reach_the_run_pruner(poly, monkeypatch):
    """Each cell of two or more points has its hull read from its column
    runs: ``_cell_parallelepipeds`` derives them once per such cell, and
    nothing else on the cover's path does."""
    read = []
    column_runs = geometry._column_runs

    def recording(pts):
        read.append(tuple(pts))
        return column_runs(pts)

    monkeypatch.setattr(geometry, "_column_runs", recording)
    cover = geometry.parallelepiped_cover(poly)
    assert any(pp.k for pp in cover)
    assert read == [members for members in cell_partition(poly)
                    if len(members) > 1]


@pytest.mark.parametrize("poly", K_COVER_POLYTOPES)
def test_a_dropped_element_names_the_missed_point(poly, monkeypatch):
    """Drop the first ``k > 0`` element that alone holds some point, and
    the first such ``k = 0`` element: the check names the least point that
    no remaining element contains."""
    sset = compute_structure_set(poly)
    cover = list(sset.cover)
    owned = {}
    for p, idx in sset.locator.items():
        owned.setdefault(idx, []).append(p)

    def missed_without(i):
        # a point claimed by i is missed iff no later element holds it;
        # an earlier one would have claimed it
        return [p for p in owned.get(i, ())
                if not any(pp.contains(p) for pp in cover[i + 1:])]

    drops = []
    for want_k in (True, False):
        for i, pp in enumerate(cover):
            if bool(pp.k) == want_k and missed_without(i):
                drops.append(i)
                break
    assert len(drops) == 2
    for i in drops:
        missed = missed_without(i)
        kept = cover[:i] + cover[i + 1:]
        with monkeypatch.context() as patch:
            patch.setattr(structure, "parallelepiped_cover",
                          lambda _poly: list(kept))
            with pytest.raises(InternalError, match=re.escape(
                    f"lattice point {min(missed)} missed by the cover")):
                compute_structure_set(poly)


def test_a_cover_vertex_off_the_lattice_is_rejected(monkeypatch):
    # every lattice point is claimed, but one element sits outside P
    poly = Polytope([[1], [-1]], [3, 0])
    cover = [Parallelepiped.point((x,)) for x in range(4)]
    cover.append(Parallelepiped((6,), ((1,),)))
    monkeypatch.setattr(structure, "parallelepiped_cover",
                        lambda _poly: list(cover))
    with pytest.raises(InternalError, match=re.escape(
            "cover vertex (5,) is not a lattice point")):
        compute_structure_set(poly)


def _point_cover_polytope():
    """A cut 3-d box as the ``cover`` workload draws them, whose cover is
    all ``k = 0`` points."""
    poly = Polytope(*_box3((4, 3, 5), [([2, -1, 3], 17)]))
    assert all(pp.k == 0 for pp in compute_structure_set(poly).cover)
    return poly


@pytest.mark.parametrize("at", [0, 7, None])
def test_a_stray_point_element_is_rejected(at, monkeypatch):
    """A point element off the lattice, first, inside or last in a cover
    of points that claims every lattice point, is named."""
    poly = _point_cover_polytope()
    cover = list(compute_structure_set(poly).cover)
    cover.insert(len(cover) if at is None else at,
                 Parallelepiped.point((2, 4, 0)))
    monkeypatch.setattr(structure, "parallelepiped_cover",
                        lambda _poly: list(cover))
    with pytest.raises(InternalError, match=re.escape(
            "cover vertex (2, 4, 0) is not a lattice point")):
        compute_structure_set(poly)


def test_a_dropped_point_element_is_named(monkeypatch):
    """Dropping a point from a cover of points names that point, for each
    of a seeded few; with a stray point added too, the stray is named."""
    poly = _point_cover_polytope()
    cover = list(compute_structure_set(poly).cover)
    rng = random.Random(80231)
    for i in rng.sample(range(len(cover)), 6):
        point, = cover[i].vertices()
        kept = cover[:i] + cover[i + 1:]
        with monkeypatch.context() as patch:
            patch.setattr(structure, "parallelepiped_cover",
                          lambda _poly: list(kept))
            with pytest.raises(InternalError, match=re.escape(
                    f"lattice point {point} missed by the cover")):
                compute_structure_set(poly)
            kept.append(Parallelepiped.point((0, 0, 6)))
            with pytest.raises(InternalError, match=re.escape(
                    "cover vertex (0, 0, 6) is not a lattice point")):
                compute_structure_set(poly)


def test_a_repeated_point_element_keeps_the_lowest_index(monkeypatch):
    poly = _point_cover_polytope()
    sset = compute_structure_set(poly)
    cover = list(sset.cover)
    again = [cover[5], cover[0], cover[5]]
    monkeypatch.setattr(structure, "parallelepiped_cover",
                        lambda _poly: cover + again)
    repeated = compute_structure_set(poly)
    assert repeated.locator == sset.locator
    assert repeated.special_points == sset.special_points
    assert repeated.special_set == sset.special_set


class TestNormalize:
    def test_empty(self):
        poly = Polytope([[-1], [1]], [0, 3])
        sset = compute_structure_set(poly)
        assert normalize_combination({}, sset) == {}

    def test_on_special_points_unchanged(self):
        poly = Polytope([[-1], [1]], [0, 3])
        sset = compute_structure_set(poly)
        c = {(0,): 5, (3,): 7}
        assert normalize_combination(c, sset) == c

    def test_segment_interior_weight(self):
        poly = Polytope([[-1], [1]], [0, 3])
        sset = compute_structure_set(poly)
        out = normalize_combination({(1,): 10}, sset)
        assert weighted_sum(out) == (10,)
        assert sum(out.values()) == 10
        xset = set(sset.special_points)
        for p, w in out.items():
            if p not in xset:
                assert w == 1

    def test_unlocatable_rejected(self):
        poly = Polytope([[-1], [1]], [0, 3])
        sset = compute_structure_set(poly)
        with pytest.raises(InputError):
            normalize_combination({(9,): 1}, sset)

    def test_random_conditions(self):
        rng = random.Random(81031)
        polys = [
            Polytope([[-1], [1]], [0, 6]),
            Polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 4]),
            Polytope([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 3, 3]),
            Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200]),
        ]
        ssets = [compute_structure_set(p) for p in polys]
        for _ in range(60):
            i = rng.randrange(len(polys))
            sset = ssets[i]
            pts = lattice_points(polys[i])
            support = rng.sample(pts, min(len(pts), rng.randint(1, 6)))
            c = {p: rng.randint(1, 30) for p in support}
            out = normalize_combination(c, sset)
            d = polys[i].dim
            cap = 2 ** (2 * d)
            xset = set(sset.special_points)
            assert weighted_sum(out) == weighted_sum(c)
            assert sum(out.values()) == sum(c.values())
            on_x = [p for p in out if p in xset]
            off_x = [p for p in out if p not in xset]
            assert all(out[p] == 1 for p in off_x)
            assert len(on_x) <= cap
            assert len(off_x) <= cap
