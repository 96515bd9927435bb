"""Certified memory loss for sequential open interval and torus maps.

Ulam-discretized transfer operators for schedules of piecewise expanding
maps with holes, variation and oscillation seminorms, Lasota-Yorke and
mixing certificates, cone-parameter selection with explicit projective
contraction rates, and reproducible experiment runs.
"""

from .errors import (CertificateError, ConfigError,
                     DegenerateParametersWarning, ParameterError,
                     PreconditionError, SelectionError, TotalEscapeError)
from .phase import (Grid, PartitionSpec, diam_lambda, dyadic_partition,
                    metric_diam, partition_from_labels, torus_delta)
from .maps import (Branch1D, MapSequence, MapSpec, affine_map, balance_check,
                   beta_map, doubling_map, full_branch_map, map_from_config,
                   matrix_map, perturbation_distance, quadratic_full_branch,
                   tripling_map, unit_ball_volume)
from .holes import (HoleSequence, HoleSpec, disk_hole, hole_from_config,
                    interval_hole, rect_hole, survivor_indicator,
                    survivor_measure)
from .transfer import (GridDensity, OperatorCache, UlamOperator, build_closed,
                       build_open, escape_mass, evolve, l1_distance,
                       normalize, push, schedule_operators)
from .seminorm import (ControlReport, LYCertificate, OscParams, SeminormSpec,
                       cone_member, control_bounds_check,
                       element_expectations, estimate_LY, ly_ensemble,
                       oscillation_seminorm, total_variation, verify_ly)
from .cone import (ConeParams, RateConstants, birkhoff_factor, c_lip, delta0,
                   hilbert_distance_bound, rate_constants,
                   sample_cone_density, select_parameters,
                   verify_cone_contraction)
from .mixing import (MixingCertificate, certify_mixing, default_perturbation,
                     find_mixing_time, mixing_ratios, perturb_full_branch,
                     random_hole, ratio_profile)
from .experiments import (FAMILIES, ExperimentConfig, RunResult, emit_report,
                          fit_exponential, run_global, run_local)

__version__ = "0.1.0"
