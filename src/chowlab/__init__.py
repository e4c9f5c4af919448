"""chowlab: exact graded-ring, invariant-theory and finite-geometry workbench."""

from .algebra import F2, Z, AlgebraPresentation, Element, GeneratorSpec, free_polynomial_ring
from .errors import (
    BudgetError,
    ChowlabError,
    ConfigurationError,
    ExactDivisionError,
    PresentationError,
    UsageError,
)
from .finitefields import (
    HermitianSpace,
    PrimeField,
    QuadExtField,
    QuadraticSpace,
    count_isotropic,
    count_singular,
    hermitian_space,
    jacobson_check,
    orth_count_polynomial,
    trace_quadratic,
    witt_index_hermitian,
    witt_index_quadratic,
)
from .grassmann import (
    SubringClosure,
    annihilator,
    class_xr_even,
    class_xr_odd,
    isochow_quotient,
    max_orth_ring,
    odd_case_pipeline,
    odd_quotient_ring,
    prev_max_orth_ring,
    prev_max_sigma,
    subring_basis,
    uniqueness_in_codim,
)
from .invariants import (
    SwapInvolution,
    class_generator_certificate,
    codim_le2_generation_check,
    codim_le2_generators,
    invariant_basis,
    non_generation_witness,
    norm_image_basis,
    quotient_generation_check,
    swap_polynomial_ring,
)
from .motives import (
    Atom,
    Motive,
    cd2_identity_check,
    decompose_step,
    dim_orthogonal,
    dim_unitary,
    dvamr_check,
    essential_poincare,
    j_min,
    kvadrika_check,
    split_quadric_poincare,
    witt_decompose_whole,
)
from .polynomials import PoincarePolynomial
from .weil import build as build_weil_bundle, freeness_check, product_relation_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
