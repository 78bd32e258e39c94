"""Exact computations on finite quandles.

Cayley-table quandles and the standard families, their inner automorphism
groups, conjugacy and character data for the affine case, tensor squares
of the pair space, and two independent multiplicity-freeness tests (the
orbital centralizer algebra and double-coset commutativity).
"""

__version__ = "0.1.0"

from .abelian import (
    AbelianGroup,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    automorphism_group,
    automorphism_permutations,
)
from .analysis import (
    AnalysisReport,
    analyze,
    quandles_isomorphic,
    recognize_affine,
)
from .cayley import (
    AffineSpec,
    AxiomViolation,
    CayleyQuandle,
    NotAUnit,
    NotAutomorphism,
    NotCentralized,
    QuandleError,
    affine_quandle,
    coset_quandle,
    dihedral_quandle,
    is_fixed_point_free,
    is_latin,
    left_division,
    right_translation,
    trivial_quandle,
    validate_quandle,
)
from .characters import (
    BadParameters,
    ClassFunction,
    DecompositionResult,
    GroupMismatch,
    MetacyclicFamily,
    burnside_rank,
    class_label,
    decompose_prime_affine,
    inertia_group_size,
    inner_product,
    metacyclic_irreducibles,
    permutation_character,
    trivial_character,
)
from .gelfand import (
    CommutationWitness,
    DoubleCosetPartition,
    MultiplicityFreeResult,
    NotConnected,
    double_cosets,
    is_gelfand_pair,
    is_multiplicity_free,
)
from .inner import (
    InnerPresentation,
    NotInGroup,
    RelationFailure,
    element_from_normal_form,
    inner_generators,
    inner_group,
    is_connected,
    normal_form,
    presentation,
    translation_power_exponents,
    verify_translation_class,
)
from .modular import conjugate_orbit, geometric_sum, is_prime, multiplicative_order, units
from .perms import (
    ConjugacyClassSet,
    GroupTooLarge,
    NotASubgroup,
    Permutation,
    PermutationGroup,
    cayley_index_table,
    close_group,
    conjugacy_classes,
    cycle_structure,
    element_order,
    element_order_profile,
    fixed_points,
    orbits,
    stabilizer,
)
from .tables import (
    TableFormatError,
    bundled_order12,
    format_table,
    load_table,
    parse_table,
)
from .tensor import (
    TauQuotient,
    TensorSquare,
    affine_tensor_class,
    affine_tensor_class_swapped,
    orbital_invariant,
    predicted_tau_size,
    predicted_tensor_size,
    tau_quotient,
    tensor_square,
)
