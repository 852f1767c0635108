"""knotgauge: certified knot-equivalence analysis of sampled closed curves."""

__version__ = "0.1.0"

from .curve import (Curve, CurveError, EmbeddingError, circle,
                    hausdorff_distance, load_curve, param_distance,
                    resample_arclength, save_curve)
from .distortion import (DistortionAngle, DistortionProfile,
                         EquivalenceCertificate, arc_chord_ratio,
                         certify_equivalence, distortion_angle,
                         distortion_profile, distortion_threshold,
                         find_admissible_scale, global_distortion,
                         local_distortion, threshold_angle)
from .sobolev import (bilip_constant, bilip_lower_bound,
                      fractional_admissible_scale, seminorm_sq)
from .substitution import (GoodSets, SubstitutionReport, good_sets,
                           mean_direction, substitute, theta3, theta4,
                           THETA1)
from .flowfield import (DirectionSet, FlowTrace, direction_set, flow,
                        vector_field)
from .mobius import (EnergyState, MinimizeConfig, MinimizeResult,
                     SymmetrySpec, minimize_symmetric, mobius_energy,
                     mobius_gradient, symmetrize_curve, symmetrize_field,
                     symmetry_residual, torus_knot)
from .concentration import (ConcentrationReport, Detection, EPSILON,
                            detect_concentrations, pipeline, select_scale)
