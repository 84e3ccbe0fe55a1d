"""Exact-arithmetic toolkit for multiple vector bundles over finite bases.

Presentations pair a finite base with charts and partition-indexed
multilinear transition families; everything downstream (cores,
pullbacks, splittings, decompositions, section calculus, towers) is
checked with zero-tolerance rational arithmetic.
"""

from .atlas import (
    AtlasPresentation,
    Chart,
    FiniteBase,
    associated_decomposed,
    associated_vacant,
    decomposed,
    diagonal,
    vacant,
    validate,
)
from .bundle import (
    BundleElement,
    BundleMorphism,
    add,
    canonicalize,
    element,
    elements_equal,
    face,
    hom_bundle,
    project,
    scale,
    tangent_prolongation,
    transport,
    zero_element,
    zero_lift,
)
from .cores import (
    CoreSpec,
    core,
    core_by_stages,
    core_morphism,
    pullback,
    ultracore_sequence,
)
from .cubecat import (
    DiagonalPartition,
    IndexSet,
    Partition,
    coarsen,
    partitions,
    subsets,
)
from .exactlin import MultiTensor, kernel_basis, rank, solve_linear
from .gauge import DimAssignment, Gauge, identity_gauge
from .split import (
    Decomposition,
    Splitting,
    decompose,
    find_splitting,
    normalize_atlas,
    split_pullback,
    splitting_to_decomposition,
    torsor_statomorphism,
)
from .tower import InfinityPresentation, decompose_infinity

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
