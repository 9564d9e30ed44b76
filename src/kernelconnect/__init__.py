"""Connections and covariant derivatives induced by reproducing kernels.

Closed-form connection formulas for Bergman, Fock, Grassmannian and
CP-map-dilation kernels, cross-validated against direct and sampled numeric
oracles through one shared kernel-to-connection pipeline.

`import kernelconnect` loads no submodule: the first use of an exported name, or of a
submodule such as `kernelconnect.grassmann`, imports the module that defines it (PEP 562).
"""

__version__ = "0.1.0"

MODULE_NAMES = ("kernels", "rkhs", "connections", "grassmann", "cpmaps")  # the verify suites

_EXPORTS = {  # submodule -> the names the package exports from it
    "numerics": "DEFAULT_STEP DEFAULT_TOL NumericsError format_complex hermitian_eigh "
                "hermitian_solve matrix_from_csv_text matrix_to_csv_text parse_complex "
                "random_unitary read_matrix_csv",
    "kernels": "BundleMorphism DomainError Kernel UnitaryDomain VectorDomain admissibility_report "
               "feature_kernel gram_matrix make_bergman_disk make_bergman_halfplane make_fock "
               "positivity_certificate pull_back_kernel",
    "rkhs": "RKHSElement SampledRKHS build_rkhs evaluate_element project_fiber "
            "universality_residual",
    "connections": "ConnectionEvaluator Curve Section connection_form connection_forms "
                   "covariant_derivative_closed_form covariant_derivative_direct "
                   "gauge_pullback_connection intertwining_residual leibniz_residual "
                   "make_evaluator parallel_transport",
    "grassmann": "GrassDomain GrassTangent HermitianProjector conditional_expectation "
                 "coordinate_projector fiber_basis homogeneous_covariant_derivative "
                 "homogeneous_kernel maurer_cartan random_grass_tangent reductive_axioms_residual "
                 "reductive_covariant_derivative universal_covariant_derivative universal_kernel",
    "cpmaps": "CPMap StinespringTriple choi_from_kraus cp_classifying_morphism "
              "cp_covariant_derivative cp_kernel kraus_from_choi lambda_kernel "
              "pullback_identity_residual random_unital_cpmap stinespring_dilate verify_dilation",
    "verify": "run_suite",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_SOURCE, "MODULE_NAMES"]


def __getattr__(name: str):
    """Import the submodule `name`, or the one that defines `name`, and bind the name here."""
    module = _SOURCE.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # as an import statement: binds it, -X importtime lists it
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list:
    return sorted({*globals(), *__all__})
