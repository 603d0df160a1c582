"""Exact-arithmetic derivation algebras of block parabolic subalgebras of gl_n.

Everything is computed over the rationals with no floating point anywhere:
the block parabolic q of gl_n for a composition of n is built with an
adapted basis, its derivation algebra is found as the exact kernel of the
Leibniz system, and every derivation splits as a center-valued map plus an
inner one. The split is produced constructively, cross-checked against an
independent linear projection, and the dimension count
(center + simple - selected) * center + dim(trace-zero part)
is verified against the kernel dimension for every composition swept.
"""

from .derivations import (
    DecompositionError,
    DecompositionResult,
    NotADerivationError,
    VerificationReport,
    cartan_solve,
    complexify,
    constructive_decompose,
    derivation_algebra,
    dimension_formula,
    extend_derivation,
    inner_derivations,
    l_ideal,
    random_combination,
    root_line_reduction,
    split_derivation,
    verify_main_theorem,
)
from .lie import (
    EndoMatrix,
    LieAlgebra,
    ValidationReport,
    ad_matrix,
    bracket,
    bracket_span,
    center,
    first_leibniz_violation,
    is_derivation,
    restrict,
    validate_structure,
)
from .linalg import (
    Q,
    Subspace,
    contains,
    is_direct_sum,
    nullspace_of_rows,
    solve,
    subspace_intersect,
    subspace_sum,
)
from .parabolic import (
    BlockComposition,
    ParabolicAlgebra,
    RootDatumA,
    build_gl,
    build_standard_parabolic,
    compositions,
    parabolic_from_delta_prime,
    root_value,
    semisimple_restriction,
)

__version__ = "0.1.0"
