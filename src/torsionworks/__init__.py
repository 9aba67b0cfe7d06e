"""Adjoint Reidemeister torsion of CW complexes and disk sums."""

from .algebra import (
    GroupPresentation,
    GroupRingElement,
    GroupRingMatrix,
    LieAlgebraBasis,
    Representation,
    Target,
    Word,
    adjoint_matrix,
    check_representation,
    evaluate_word,
    killing_form,
    orthonormal_sl2_basis,
)
from .complexes import (
    CwComplexData,
    HomologyData,
    TwistedChainComplex,
    change_lift,
    euler_characteristic,
    homology,
    twist,
    untwisted_betti0,
)
from .errors import (
    BadHomologyBasisError,
    DimensionMismatchError,
    DiskSumError,
    HomologyError,
    InconsistentLiftsError,
    RankAmbiguityError,
    SceneError,
    SequenceError,
    SplittingError,
    TorsionworksError,
    TransportError,
)
from .glue import (
    DiskSumResult,
    GluedPair,
    MvSequence,
    analyze_disk_sum,
    disk_sum,
    free_product_rep,
    gluing_torsion,
    mv_sequence,
    verify_multiplicativity,
    verify_mv_identity,
)
from .scenes import (
    Scene,
    circle,
    diagonal_representation,
    disk,
    handlebody_model,
    parse_scene,
    point,
    scene_text,
    wedge_of_circles,
)
from .torsion import (
    HomologySplitting,
    TorsionResult,
    build_splitting,
    rebased,
    rescaled,
    torsion_independence_check,
    torsion_of,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
