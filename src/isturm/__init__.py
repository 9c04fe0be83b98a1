"""Forward and inverse solver for the Sturm-Liouville eigenproblem with an
antiderivative-form (possibly distributional) potential and polynomials of the
spectral parameter in the boundary conditions."""

from .errors import IsturmError
from .forward import (SolutionTrace, char_delta, find_eigenvalues,
                      forward_spectral_data, integrate_solution, weight_numbers,
                      weyl_M, weyl_M1)
from .maineq import (MainEquationContext, PhiTable, build_system, recover_phi,
                     solve_on_grid, solve_system, xi_chi)
from .model import ModelData, kernel_D
from .problem import (FullProblem, Polynomial, ProblemL, SigmaFunction,
                      SigmaGridSamples, SigmaPolynomialInX, SigmaStep,
                      SigmaZero, normalize_pair, poly_eval, poly_gcd_degree,
                      problem_from_json, problem_to_json)
from .reconstruct import (ContourSpec, ReconstructionResult, choose_contour,
                          dphi_K_dx, invert_spectral_data, phi_K_of_lambda,
                          reconstruct_r1, reconstruct_r2, reconstruct_sigma)
from .regular import check_r2_shift, estimate_bN2
from .spectral import (SpectralData, detect_M1, eval_partial_fraction,
                       group_multiplicities, reduce_weyl, spectral_data_from_json,
                       spectral_data_to_json)
from .verify import (coeff_error, regular_roundtrip, roundtrip,
                     sigma_l2_error, sigma_l2_norm)

__version__ = "0.1.0"

__all__ = [
    "IsturmError",
    "SolutionTrace", "char_delta", "find_eigenvalues", "forward_spectral_data",
    "integrate_solution", "weight_numbers", "weyl_M", "weyl_M1",
    "MainEquationContext", "PhiTable", "build_system", "recover_phi",
    "solve_on_grid", "solve_system", "xi_chi",
    "ModelData", "kernel_D",
    "FullProblem", "Polynomial", "ProblemL", "SigmaFunction", "SigmaGridSamples",
    "SigmaPolynomialInX", "SigmaStep", "SigmaZero", "normalize_pair", "poly_eval",
    "poly_gcd_degree", "problem_from_json", "problem_to_json",
    "ContourSpec", "ReconstructionResult", "choose_contour", "dphi_K_dx",
    "invert_spectral_data", "phi_K_of_lambda", "reconstruct_r1", "reconstruct_r2",
    "reconstruct_sigma",
    "check_r2_shift", "estimate_bN2",
    "SpectralData", "detect_M1", "eval_partial_fraction", "group_multiplicities",
    "reduce_weyl", "spectral_data_from_json", "spectral_data_to_json",
    "coeff_error", "regular_roundtrip", "roundtrip", "sigma_l2_error", "sigma_l2_norm",
]
