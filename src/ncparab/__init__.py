"""Galerkin solver and verification suite for complex-valued parabolic
problems with degenerate (non-coercive) Robin boundary conditions."""

from .assembly import (
    AssembledForms,
    assemble_forms,
    assemble_load,
    dual_norm,
)
from .estimates import (
    EstimateReport,
    apriori_bounds,
    check_continuity,
    check_uniqueness_condition,
    compute_constants,
)
from .integrator import (
    GalerkinTrajectory,
    build_galerkin_system,
    discretize,
    evolve_theta,
    project_initial,
    reconstruct_solution,
    solve_evolution,
)
from .meshing import Mesh, build_mesh
from .problem import (
    Interval,
    ProblemSpec,
    Rectangle,
    UnitDiskPolygon,
    factorize_principal,
    split_zero_order,
    validate_coefficients,
)
from .sharpness import (
    find_divergence_epsilon,
    series_hs_lower_bound,
    series_plus_norm,
)
from .spectral import EigenBasis, generalized_eigenbasis, verify_orthogonality

__version__ = "0.1.0"
