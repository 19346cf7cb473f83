"""Toolkit for progression-closed subsets of prime fields, group-ring
vanishing identities, polynomial coefficient dualities, and nowhere-zero
solvability properties of matrices over F_p."""

from .budget import Budget, current_budget, parse_budget
from .errors import (
    AjtError,
    BudgetExceeded,
    ConstructionFailed,
    DegreeMismatch,
    InputError,
    MathViolation,
    NotFound,
    NotPrime,
    PartitionNotFound,
    PhaseInNonCyclotomicRing,
    PreconditionViolated,
    RadiusTooLarge,
    RingMismatch,
    SingularMatrix,
)
from .fp_core import (
    FpMatrix,
    FpVector,
    Prime,
    enumerate_nonsingular,
    is_probable_prime,
    nonsingular_count,
    random_nonsingular,
)
from .apsets import (
    ApWitness,
    AppendixRow,
    GoodSubsets,
    MinS1Result,
    MultiplierCertificate,
    NkReport,
    Partition,
    ResidueSet,
    SkConstruction,
    SkReport,
    appendix_rows,
    build_s1_log,
    build_sk,
    good_subsets,
    is_nk_type,
    is_sk_type,
    min_s1_search,
    multipliers_valid,
    partition_nk,
    random_multipliers,
    verify_appendix,
)
from .group_ring import (
    CyclotomicRing,
    FactorSpec,
    GroupRingElem,
    IntegerRing,
    ModPRing,
    check_p3,
    check_p4,
    one_minus_g,
    product_of_factors,
    sigma_of_factors,
    sigma_vanishing_candidate,
)
from .fp_poly import (
    DualityResult,
    ReducedPoly,
    check_p2,
    check_p5,
    duality_check,
    mul_reduce,
    reduce_exponent,
    scalar_product_condition,
)
from .properties import (
    ForbiddenSpec,
    FunctionTable,
    PairingReport,
    PropertyReport,
    check_all,
    check_multi,
    check_p1,
    delta,
    image_membership_routes,
    line_sum,
    multiplier_invariance_test,
    pairing_test,
)

__version__ = "0.1.0"
