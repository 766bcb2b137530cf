"""Relations between optimal answers, checked with no oracle.

At 10^12-10^30 copies no brute force can check an optimum, but some
relations hold between the optima of related instances whatever their
size.  Each side of a relation runs through its own lattices, windows
and probes, so when both sides agree one code path cannot have faked
both answers.  The instances are the 150 bin-packing and cutting-stock
instances of the ``binpack`` and ``stock`` catalogues
(``conebench/workloads.py``, loaded from its file and only read), with
every multiplicity scaled by 10^12 and by 10^30 and raised by 0-3
seeded copies.  Every solve runs under ``budget.limit(200000)``, and a
``ResourceError`` fails the check that met it.

The relations, for OPT the least total bin cost:

* permuting the item types, or the bin types, leaves OPT unchanged;
* multiplying every cost by 3 gives 3 OPT;
* one more copy of a type never lowers OPT;
* splitting a type into two types of the same size, whose
  multiplicities sum to the original, leaves OPT unchanged;
* scaling every size and capacity by 7/5 leaves OPT unchanged;
* adding a bin type that an existing one dominates (no larger capacity,
  no lower cost) leaves OPT unchanged;
* OPT(a + b) <= OPT(a) + OPT(b).
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conepack import budget
from conepack.solver import CuttingStockInstance, cutting_stock

WORKLOADS = Path(__file__).resolve().parent.parent / "conebench" / "workloads.py"

SCALES = (10 ** 12, 10 ** 30)
WORK_LIMIT = 200_000


def _descriptions():
    spec = importlib.util.spec_from_file_location("_related_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return (module.catalogue("binpack", 120)
            + [d for d in module.catalogue("stock", 60)
               if d[0] == "cuttingstock"])


def _instance(desc):
    """``(sizes, multiplicities, bin types)`` of a catalogue description;
    bin packing has the one bin type ``(1, 1)``."""
    items = desc[1]
    bins = desc[2] if desc[0] == "cuttingstock" else [((1, 1), 1)]
    return ([Fraction(*s) for s, _m in items], [m for _s, m in items],
            [(Fraction(*w), c) for w, c in bins])


@pytest.fixture(scope="module")
def bases():
    """Each catalogue instance at each scale, perturbed by seeded copies."""
    rng = random.Random(2024)
    out = []
    for desc in _descriptions():
        sizes, mult, bins = _instance(desc)
        for scale in SCALES:
            out.append((sizes, [m * scale + rng.randint(0, 3) for m in mult],
                        bins))
    assert len(out) == 300
    return out


_solved: dict = {}


def opt(sizes, mult, bins):
    """The optimum of the cutting stock, under the work limit."""
    key = (tuple(sizes), tuple(mult), tuple(bins))
    if key not in _solved:
        with budget.limit(WORK_LIMIT):
            _solved[key] = cutting_stock(
                CuttingStockInstance(sizes, mult, bins)).objective
    return _solved[key]


def _shuffled(rng, values):
    """``values`` in a seeded order other than their own, when there is
    one."""
    order = list(range(len(values)))
    while len(order) > 1 and order == sorted(order):
        rng.shuffle(order)
    return order


def test_permuting_item_types_keeps_opt(bases):
    rng = random.Random("test_permuting_item_types_keeps_opt")
    for sizes, mult, bins in bases:
        order = _shuffled(rng, sizes)
        assert opt([sizes[j] for j in order], [mult[j] for j in order],
                   bins) == opt(sizes, mult, bins), (sizes, mult, bins)


def test_permuting_bin_types_keeps_opt(bases):
    rng = random.Random("test_permuting_bin_types_keeps_opt")
    permuted = 0
    for sizes, mult, bins in bases:
        if len(bins) > 1:
            order = _shuffled(rng, bins)
            assert opt(sizes, mult, [bins[k] for k in order]) == opt(
                sizes, mult, bins), (sizes, mult, bins)
            permuted += 1
    assert permuted == 60


def test_tripled_costs_triple_opt(bases):
    for sizes, mult, bins in bases:
        tripled = [(w, 3 * c) for w, c in bins]
        assert opt(sizes, mult, tripled) == 3 * opt(sizes, mult, bins), (
            sizes, mult, bins)


def test_one_more_copy_never_lowers_opt(bases):
    rng = random.Random("test_one_more_copy_never_lowers_opt")
    for sizes, mult, bins in bases:
        j = rng.randrange(len(sizes))
        more = [m + (i == j) for i, m in enumerate(mult)]
        assert opt(sizes, more, bins) >= opt(sizes, mult, bins), (
            sizes, mult, bins, j)


def test_splitting_a_type_keeps_opt(bases):
    rng = random.Random("test_splitting_a_type_keeps_opt")
    for sizes, mult, bins in bases:
        j = rng.randrange(len(sizes))
        part = rng.randint(0, mult[j])
        split = list(mult)
        split[j] -= part
        assert opt(sizes + [sizes[j]], split + [part], bins) == opt(
            sizes, mult, bins), (sizes, mult, bins, j, part)


def test_scaling_sizes_and_capacities_keeps_opt(bases):
    r = Fraction(7, 5)
    for sizes, mult, bins in bases:
        assert opt([s * r for s in sizes], mult,
                   [(w * r, c) for w, c in bins]) == opt(sizes, mult, bins), (
            sizes, mult, bins)


def test_a_dominated_bin_type_keeps_opt(bases):
    rng = random.Random("test_a_dominated_bin_type_keeps_opt")
    for sizes, mult, bins in bases:
        w, c = rng.choice(bins)
        dominated = (w * rng.choice((1, Fraction(1, 2), Fraction(2, 3))),
                     c + rng.randint(0, 2))
        assert opt(sizes, mult, bins + [dominated]) == opt(
            sizes, mult, bins), (sizes, mult, bins, dominated)


def test_opt_is_subadditive(bases):
    rng = random.Random("test_opt_is_subadditive")
    for sizes, mult, bins in bases:
        first = [rng.randint(0, m) for m in mult]
        second = [m - f for m, f in zip(mult, first)]
        assert opt(sizes, mult, bins) <= (
            opt(sizes, first, bins) + opt(sizes, second, bins)), (
            sizes, mult, bins, first)
