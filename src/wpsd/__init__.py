"""Toolkit for weakly positive semidefinite matrix-valued kernels.

Builds and verifies minimal linearisations (Kolmogorov decompositions),
induced *-semigroup representations, reproducing kernel spaces, domination
constants, and operator/semigroup-map lifts, all at finite dimension.
"""

from .algebra import (
    Action,
    StarSemigroup,
    cyclic_group,
    idempotent_pair,
    left_translation_action,
    validate_action,
    validate_semigroup,
)
from .dilation import (
    BoundEstimate,
    KolmogorovDecomposition,
    StarRepresentation,
    bound_constant,
    build_kolmogorov,
    build_representation,
    linearity_preservation_check,
    unitary_equivalence,
    verify_linearisation,
)
from .errors import (
    HermitianMismatchError,
    HypothesisFailsError,
    IllDefinedError,
    InjectivityFailureError,
    NoIsometryError,
    NotAdjointableError,
    NotHermitianError,
    NotInvariantError,
    NoUnitError,
    SchemaError,
    WeakPositivityError,
    WpsdError,
    ZeroDenominatorError,
)
from .kernels import (
    Kernel,
    PositivityVerdict,
    Witness,
    adjoint_kernel,
    block_matrix,
    is_hermitian,
    is_invariant,
    random_block_psd_kernel,
    strong_positivity,
    twopos_diagnostics,
    weak_positivity,
)
from .lifts import (
    GnsInstance,
    LiftedKernel,
    OperatorOnH,
    SemigroupMapT,
    VEModuleH,
    adjoint_solve,
    gns_instance,
    gram_semigroup_map,
    hilbert_module,
    left_multiplication,
    left_regular_star_rep,
    lift_operator_kernel,
    lift_semigroup_map,
    matrix_module,
    recover_operator_dilation,
    right_multiplication,
    verify_factorization,
)
from .repkernel import RKSpace, build_rk, reconstruct_kernel, rk_representation, verify_reproducing
from .zspace import (
    Tolerances,
    ZSpaceDescriptor,
    gram_pair,
    hermitian_space,
    in_cone,
    involution,
    leq,
    polarisation_check,
    scalar_space,
    schwarz_check,
    seminorm,
    ve_seminorm,
)

__version__ = "0.1.0"
