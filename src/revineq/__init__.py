"""Numerical verification of reverse integral inequalities on homogeneous
Lie groups: reverse Stein-Weiss and Hardy-Littlewood-Sobolev bounds for the
growing-kernel convolution, reverse Hardy / L^p-Sobolev /
Caffarelli-Kohn-Nirenberg inequalities for radially decreasing data, their
forward counterparts as cross-checks, and empirical best-constant search
over trial-function families.
"""

__version__ = "0.1.0"

from .exceptions import (ConfigError, DegenerateInputError, DivergenceError,
                         EstimationError, EvaluationError, NumericalError,
                         ParameterError, RevineqError, ShapeError)
from .groups import (Check, HomogeneousGroup, QuasiNorm, abelian_group,
                     anisotropic_gauge, as_points, check_group_axioms,
                     check_quasi_norm_axioms, cygan_norm, dilate,
                     dilation_quadratic_form, euclidean_norm, group_inv,
                     group_mul, heisenberg_group, koranyi_norm)
from .inequalities import (AdmissibilityReport, InequalityParams,
                           VerificationReport, analytic_A1, analytic_A2,
                           balanced_lambda, bracket_kappa, conjugate_exponent,
                           stein_weiss_lower_constant, validate_params,
                           verify_forward_ckn, verify_forward_hardy,
                           verify_forward_sobolev, verify_reverse_ckn,
                           verify_reverse_hardy, verify_reverse_hls,
                           verify_reverse_integral_hardy,
                           verify_reverse_sobolev, verify_stein_weiss)
from .operators import (RadialProfile, kernel_bound_report, lp_functional,
                        reverse_holder_gap, stein_weiss_form,
                        weighted_p_integral)
from .quadrature import (DecayEnvelope, IntegralResult, QuadratureSpec,
                         RadialSampler, integrate_cartesian,
                         integrate_radial_err, polar_consistency_check,
                         sample_group_points, sphere_measure,
                         sphere_measure_direct, sphere_measure_mc,
                         unit_sphere_area)
from .trials import (FAMILIES, EstimateRecord, SearchSpec, TrialFamily,
                     estimate_best_constant, make_profile)
