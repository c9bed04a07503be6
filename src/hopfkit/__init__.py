"""hopfkit: exact Hopf envelopes and cofree Hopf algebras of
finite-dimensional bialgebras given by structure constants.

Scalars are arbitrary-precision rationals or prime fields; every check
in the package is an exact identity with a witness on failure.
"""

__version__ = "0.1.0"

from .bialgebra import (
    AxiomReport,
    Bialgebra,
    BialgebraMorphism,
    assert_valid,
    augmentation_ideal,
    cop_bialgebra,
    dual_bialgebra,
    ideal_closure,
    is_coideal,
    is_grouplike,
    make_bialgebra,
    morphism_check,
    op_bialgebra,
    primitives,
    quotient_by_biideal,
    sub_bialgebra,
    tensor_bialgebra,
    trivial_bialgebra,
    verify_axioms,
)
from .canonical import (
    BoxslashSpace,
    FrobeniusReport,
    OslashSpace,
    S_witness,
    T_witness,
    build_boxslash,
    build_oslash,
    frobenius_report,
)
from .cofree import (
    DualityResult,
    K_of,
    cocommutative_cofree,
    cofree_hopf,
    duality_check,
    iterate_K,
)
from .convolution import (
    NAntipodeResult,
    antipode_shape_check,
    central_n_antipode,
    conv,
    conv_inverse,
    conv_power,
    conv_unit,
    minimal_left_n_antipode,
    minimal_right_n_antipode,
)
from .envelope import (
    HopfResult,
    Q_of,
    cocommutative_envelope_check,
    hopf_envelope,
    iterate_Q,
    oslash_iso_check,
)
from .errors import (
    ConstructionError,
    DimensionError,
    FieldMismatchError,
    HopfkitError,
    InvariantViolation,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .families import (
    matrix_coalgebra,
    quotient_quantum_plane,
    radford_adjoin_unit,
    radford_dual,
    sweedler_h4,
)
from .fields import QQ, Field, PrimeField, RationalField, parse_field
from .linalg import (
    Subspace,
    image,
    kernel,
    rank,
    rref,
    solve,
    solve_matrix,
    subspace_from_rows,
    subspace_intersection,
    subspace_sum,
)
from .monoid import (
    FiniteMonoid,
    cancellativity_report,
    cyclic_group,
    direct_product,
    enveloping_group,
    full_transformation_monoid_2,
    make_monoid,
    monogenic,
    monoid_bialgebra,
    units_and_left_units,
)
