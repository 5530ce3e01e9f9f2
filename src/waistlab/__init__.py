"""waistlab: sphere-neighborhood measures, convex-body oracles, and
randomized intersection experiments at desk scale."""

from .bodies import (Body, BodySpec, ball, construct_body, cross_polytope, cube,
                     difference_body, ellipsoid, intersect, linear_image,
                     mc_volume, minkowski_sum, neighborhood, orthonormal_frame, polar,
                     product_body, slab_body, truncated_cylinder,
                     unit_ball_volume, vertex_polytope, volume_ratio)
from .errors import (ConfigError, DomainError, EmptyFiberError, EvaluationError,
                     HypothesisError, InfeasibleScheduleError, NetConstructionError,
                     SpecError, WaistlabError)
from .estimators import (DiameterResult, InclusionResult, covering_number_upper,
                         diameter_of_intersection, entropy_bound, inclusion_radius,
                         mc_sigma_body, section_diameter)
from .experiments import (ExperimentReport, ScheduleParams, run_core_lemma,
                          run_global_vr, run_higher_sphere, run_projection,
                          run_sections, run_two_bodies, theorem_schedule)
from .geometry import (SphereNet, build_net, canonical_frame, geodesic_distance,
                       haar_rotation, haar_rotations, lift_waist, random_subspace,
                       segment_cap_check, spherical_projection)
from .measures import (DEFAULT_CONSTANTS, BoundConstants, CapBounds,
                       GaussianFactReport, LipBounds, SubsphereQuery, cap_angle,
                       cap_angle_compl, cap_bounds, chisq_cdf, gaussian_fact_check,
                       lip_bounds, sigma_ball_product, sigma_exact, sigma_exact_array,
                       sigma_lip_lower, sigma_mc)
from .optimize import OptimizerConfig, minimize_on_sphere

__version__ = "0.1.0"
