"""Exact computational toolkit for basic matrix Lie superalgebras, their
one-odd-variable central extensions, Fock/Whittaker realizations, characters,
and the data behind the associated finite W-algebra equivalences.

Everything computes over the Gaussian rationals; there is no floating point.
"""

__version__ = "0.1.0"

from .exactlin import Scalar, SparseMatrix, SparseVector, kernel_basis, rank, solve
from .superalg import (
    RootDatum,
    SuperAlgebra,
    Weight,
    build_gl,
    centralizer_dim,
    grading_by_adh,
    subalgebra_from_span,
    verify_algebra,
    weyl_vector,
)
from .takiff import (
    TakiffAlgebra,
    build_takiff,
    cocycle_alpha_d,
    dual_bases,
    odd_form_prime,
    verify_takiff,
)
from .fockrep import (
    FockModule,
    ModuleVector,
    build_fock,
    clifford_module_dim,
    verify_highest_weight,
    verify_lift_identities,
    verify_whittaker_covariance,
)
from .charfun import (
    FormalCharacter,
    fock_character,
    verify_factorization,
    verma_character,
)
from .wfinite import (
    NilCharacter,
    appendix_pairing_check,
    graded_nilradical,
    hat_eta,
    nil_character,
    nilchar_from_e,
    regularity_check,
    solve_dual_elements,
    verify_skryabin_conditions,
    whittaker_vectors,
    zeta_from_chi,
)
