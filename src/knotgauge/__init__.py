"""knotgauge: certified knot-equivalence analysis of sampled closed curves."""

__version__ = "0.1.0"

from .curve import Curve, circle
from .distortion import (arc_chord_ratio, certify_equivalence,
                         distortion_angle, distortion_threshold,
                         find_admissible_scale, global_distortion,
                         local_distortion, threshold_angle)
from .sobolev import bilip_constant, fractional_admissible_scale
from .substitution import substitute
from .flowfield import flow
from .mobius import (MinimizeConfig, minimize_symmetric, mobius_energy,
                     mobius_gradient, torus_knot)
from .concentration import detect_concentrations, pipeline
