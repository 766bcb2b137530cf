"""conepack: exact solvers for bin packing, cutting stock and
high-multiplicity scheduling with a constant number of item/job types.

The pipeline: enumerate the lattice points of a rational polytope, cover
them with few integral parallelepipeds, normalize integer conic
combinations onto the cover's vertex set, and decide membership of a
target in the integer cone through small exact integer programs.  All
arithmetic is exact rational; brute-force oracles cross-check every solver
path at desk scale.
"""

__version__ = "0.1.0"

from .errors import InfeasibleError, InputError, InternalError, ResourceError
from .rational import Rat
from .geometry import Polytope, lattice_points, coordinate_bounds
from .structure import parallelepiped_cover, normalize_combination
from .ilp import IlpResult, ilp_feasible
from .solver import (BinPackingInstance, CuttingStockInstance,
                     PackingSolution, IntConeResult, SelectResult,
                     int_cone_intersect, bin_packing, cutting_stock,
                     multi_polytope_select, select_from_generators,
                     verify_solution)
from .scheduling import (SchedulingInstance, ScheduleSolution, EdfResult,
                         build_edf_polytope, edf_simulate,
                         build_nonpreemptive_polytope, CycleLayout,
                         nonpreemptive_completable, extract_cyclic_schedule,
                         schedulable_vectors, preemptive_assign,
                         nonpreemptive_assign, tardy_min_penalty,
                         validate_preemptive_schedule,
                         validate_nonpreemptive_schedule)

__all__ = [
    "InfeasibleError",
    "InputError",
    "InternalError",
    "ResourceError",
    "Rat",
    "Polytope",
    "lattice_points",
    "coordinate_bounds",
    "parallelepiped_cover",
    "normalize_combination",
    "IlpResult",
    "ilp_feasible",
    "BinPackingInstance",
    "CuttingStockInstance",
    "PackingSolution",
    "IntConeResult",
    "SelectResult",
    "int_cone_intersect",
    "bin_packing",
    "cutting_stock",
    "multi_polytope_select",
    "select_from_generators",
    "verify_solution",
    "SchedulingInstance",
    "ScheduleSolution",
    "EdfResult",
    "build_edf_polytope",
    "edf_simulate",
    "build_nonpreemptive_polytope",
    "CycleLayout",
    "nonpreemptive_completable",
    "extract_cyclic_schedule",
    "schedulable_vectors",
    "preemptive_assign",
    "nonpreemptive_assign",
    "tardy_min_penalty",
    "validate_preemptive_schedule",
    "validate_nonpreemptive_schedule",
]
