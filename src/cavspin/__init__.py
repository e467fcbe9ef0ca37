"""Spin squeezing of bichromatically driven atoms in a lossy optical cavity.

Subpackages
-----------
params
    Physical parameters, derived rates, validity checks and config parsing.
moments
    Linearized second-moment dynamics and the squeezing parameter.
dicke
    Exact symmetric-subspace evolution of the ideal effective Hamiltonian.
oracle
    Brute-force Lindblad models validating the adiabatic-elimination chain.
optimize
    Derivative-free minimization of the squeezing parameter and sweeps.
    The package attribute ``cavspin.optimize`` is the function of that name,
    re-exported below, not the submodule: ``from cavspin.optimize import ...``
    and ``importlib.import_module("cavspin.optimize")`` reach the module,
    while ``import cavspin.optimize as m`` binds the function.
cli
    Batch command-line interface.
"""

__version__ = "0.1.0"

from .params import (PhysicalParams, DerivedParams, ValidityReport, ConfigError,
                     derive, check_validity, decoherence_budget, balance_stark,
                     match_raman, kappa_prime, read_config, params_from_mapping)
from .moments import (MomentState, MomentGenerator, SqueezingTrace,
                      initial_state, assemble_generator, propagate,
                      squeezing_parameter, evolve_squeezing)
from .dicke import (EffectiveCoeffs, DickeState, effective_coeffs, dicke_evolve,
                    dicke_moments, oat_min_squeezing, stretched_state)
from .oracle import (HilbertSpec, DensityMatrix, Liouvillian, build_full_model,
                     build_intermediate_model, integrate_master, extract_moments,
                     validate_elimination)
from .optimize import (OptimizationProblem, OptimumReport, optimize,
                       scaling_sweep, delta_zero_check, problem_for_cooperativity)

__all__ = [
    "PhysicalParams", "DerivedParams", "ValidityReport", "ConfigError",
    "derive", "check_validity", "decoherence_budget", "balance_stark",
    "match_raman", "kappa_prime", "read_config", "params_from_mapping",
    "MomentState", "MomentGenerator", "SqueezingTrace", "initial_state",
    "assemble_generator", "propagate", "squeezing_parameter", "evolve_squeezing",
    "EffectiveCoeffs", "DickeState", "effective_coeffs", "dicke_evolve",
    "dicke_moments", "oat_min_squeezing", "stretched_state",
    "HilbertSpec", "DensityMatrix", "Liouvillian", "build_full_model",
    "build_intermediate_model", "integrate_master", "extract_moments",
    "validate_elimination",
    "OptimizationProblem", "OptimumReport", "optimize", "scaling_sweep",
    "delta_zero_check", "problem_for_cooperativity",
    "__version__",
]
