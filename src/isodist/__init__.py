"""Dimension-free distance bounds between small subsets of convex bodies.

Inside a unit-volume convex body, two subsets of volume eps < 1/2 can
never be too far apart, and the bound does not grow with the dimension.
This package computes the bounds, the extremal constructions that show
their sharpness, and the discrete and Monte Carlo checks around them:

    specfun      gaussian-type distribution functions and their inverses
    profiles     isoperimetric profiles, radii and the per-family formulas
    enlargement  the ODE comparison bound 2 int_eps^{1/2} dt/I(t)
    sections     hyperplane sections and their n -> inf limit laws
    witness      explicit far-apart pairs and two-sided bound reports
    lattice      exact discrete analogue on small grids
    montecarlo   deterministic samplers and numerical lemma checks
    cli          the `isodist` command
"""

from .bodies import BodyFamily
from .enlargement import (EnlargementResult, delta_closed_form,
                          distance_upper_bound, time_to_half)
from .errors import (BudgetExceededError, DimensionMismatchError, DomainError,
                     EmptySetError, IsodistError, NonConvergenceError,
                     RangeError)
from .lattice import (Cell, ExtremalCheck, Grid, SubsetHandle,
                      count_cells_sum_le, final_segment, initial_segment,
                      scaled_max_distance, set_distance, simplicial_cmp,
                      t_boundary, verify_extremal_pairs)
from .montecarlo import (AvgDistanceResult, CutoffCheck, EstimateWithCI,
                         ExpTailCheck, SampleBatch, TMapCheck, TransferCheck,
                         average_distance_experiment, cutoff_gradient_check,
                         cutoff_product_check, estimate_cap_volume,
                         exp_tail_check, sample_uniform, t_map_lipschitz_check,
                         transfer_map_check)
from .profiles import IsoProfile, make_profile, unit_volume_radius
from .sections import (ConvergenceReport, SectionCurve, convergence_report,
                       cube_sum_cdf, lp_section_area, lp_tail_volume,
                       psi_p_density_limit, section_curve,
                       sphere_projection_cdf)
from .specfun import (kappa, phi, phi_inv, phi_inv_asymptote, phi_p,
                      phi_p_inv, psi_p, psi_p_inv, psi_p_inv_asymptote)
from .witness import (BoundReport, RegionDescriptor, RegionPair,
                      ball_caps_witness, bound_report, cube_diagonal_witness,
                      lp_caps_witness, simplex_corner_witness)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
