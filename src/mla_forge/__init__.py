"""Verifiable computational algebra for bracket structures on finite groups:
group presets and Cayley-table machinery, bracket axiom checking, bracket
induction on split products, exhaustive enumeration and classification."""

from .brackets import (
    LieBracket,
    MlaViolation,
    bracket_orbit,
    commutator_bracket,
    derived_subalgebra,
    end_mla,
    is_ideal,
    reverse_bracket,
    trivial_bracket,
    verify_mla,
)
from .construction import (
    Action,
    ConditionReport,
    ConstructionData,
    GammaMap,
    PairingMap,
    check_gamma_identities,
    check_theorem_conditions,
    decompose_bracket,
    induce_bracket,
    section_independence_check,
    semidirect_product,
    sigma_gamma_commute_check,
)
from .errors import (
    BoundExceededError,
    ConditionsViolatedError,
    MlaForgeError,
    NotIdealError,
    ReconstructionMismatchError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    automorphism_count,
    automorphism_generators,
    automorphisms,
    direct_product,
    identify_small_group,
    is_isomorphic,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    make_semidirect,
    subgroup_generated,
    verify_group,
)
from .search import (
    EnumerationResult,
    SearchConfig,
    enumerate_brackets,
    enumerate_gamma,
    enumerate_induced,
    enumerate_mla_homs,
    enumerate_pairings,
    tau,
    verify_coprime_determination,
)

__version__ = "0.1.0"
