"""Connections and covariant derivatives induced by reproducing kernels.

Closed-form connection formulas for Bergman, Fock, Grassmannian and
CP-map-dilation kernels, cross-validated against direct and sampled numeric
oracles through one shared kernel-to-connection pipeline.
"""

from .numerics import (
    DEFAULT_STEP,
    DEFAULT_TOL,
    NumericsError,
    format_complex,
    hermitian_eigh,
    hermitian_solve,
    matrix_from_csv_text,
    matrix_to_csv_text,
    parse_complex,
    read_matrix_csv,
)
from .kernels import (
    BundleMorphism,
    DomainError,
    Kernel,
    UnitaryDomain,
    VectorDomain,
    admissibility_report,
    gram_matrix,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    make_group_kernel,
    make_rank_one_kernel,
    positivity_certificate,
    pull_back_kernel,
)
from .rkhs import (
    RKHSElement,
    SampledRKHS,
    build_rkhs,
    embed,
    evaluate_element,
    inner,
    project_fiber,
    universality_residual,
)
from .connections import (
    ConnectionEvaluator,
    Curve,
    Section,
    connection_form,
    connection_forms,
    covariant_derivative_closed_form,
    covariant_derivative_direct,
    gauge_pullback_connection,
    intertwining_residual,
    leibniz_residual,
    make_evaluator,
    parallel_transport,
)
from .grassmann import (
    GrassDomain,
    GrassTangent,
    HermitianProjector,
    conditional_expectation,
    coordinate_projector,
    fiber_basis,
    homogeneous_covariant_derivative,
    homogeneous_kernel,
    maurer_cartan,
    random_grass_tangent,
    reductive_axioms_residual,
    reductive_covariant_derivative,
    universal_covariant_derivative,
    universal_kernel,
)
from .cpmaps import (
    CPMap,
    StinespringTriple,
    choi_from_kraus,
    cp_classifying_morphism,
    cp_covariant_derivative,
    cp_kernel,
    kraus_from_choi,
    lambda_kernel,
    pullback_identity_residual,
    random_unital_cpmap,
    random_unitary,
    stinespring_dilate,
    verify_dilation,
)
from .verify import MODULE_NAMES, run_suite

__version__ = "0.1.0"
