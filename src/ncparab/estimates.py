"""A priori bounds, the uniqueness criterion and the continuity diagnostic,
which every report carries, and the exact lower-order form bound.

The energy argument for the evolution problem yields two exponential-in-time
bounds: a sup bound on the squared L2 norm and an energy bound on the time
integral of the squared energy norm, both with right side

    (|u0|_L2^2 + int_0^T |f|_-^2 dt) * exp((2 c2 + 2 c1^2) T),

where c1 controls the directional-derivative coefficients and c2 the
zero-order remainder, both maxima over the mesh's quadrature points; the
right side does not depend on the basis size. Verification on a computed
trajectory uses trapezoidal quadrature of the norm traces and a fixed slack
``BOUND_SLACK`` for quadrature and projection error; violations are
reported, not raised, so near-degenerate configurations can still be
explored. The uniqueness criterion reads the modal matrix Chat that the
trajectory carries (``interaction``); the exact lower-order form bound
takes its one eigenvalue from ``spectral.arpack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import GalerkinTrajectory
from .fields import axes
from .problem import ProblemSpec, split_zero_order
from .spectral import arpack

UNIQUENESS_TOL = 1e-10
BOUND_SLACK = 0.02


@dataclass
class EstimateReport:
    gronwall_factor: float
    sup_lhs: float
    sup_rhs: float
    energy_lhs: float
    energy_rhs: float
    sup_ok: bool
    energy_ok: bool

    @property
    def bounds_ok(self) -> bool:
        return self.sup_ok and self.energy_ok


def compute_constants(spec: ProblemSpec, mesh) -> tuple[float, float]:
    """Constants (c1, c2) from coefficient maxima over the element
    quadrature points of ``mesh``.

    c1 is the Euclidean norm of the per-direction maxima of |a_l| (their
    directional derivatives are dominated by the energy norm); c2 is the
    maximum of |a0 - a00|, the remainder of the split that the forms take
    (``split_zero_order``). The discrete forms see the coefficients only at
    these points, and the rules integrate products of P1 functions exactly
    with positive weights, so the maxima bound the discrete forms exactly:
    never an underestimate, and attained by the coefficients the forms use.
    """
    coords = axes(mesh.quadrature.points)

    def sup(values):  # a float64, whose square overflows to inf, not an exception
        return np.max(np.abs(np.asarray(values, dtype=complex)))

    with np.errstate(over="ignore"):
        c1 = float(np.sqrt(sum(sup(a_l(*coords)) ** 2 for a_l in spec.first_order or [])))
    c2 = 0.0 if spec.zero_order is None else sup(split_zero_order(spec.zero_order(*coords))[1])
    return c1, float(c2)


def apriori_bounds(trajectory: GalerkinTrajectory, c1: float, c2: float) -> EstimateReport:
    """Check the sup and energy bounds on a computed trajectory over its
    whole grid [0, T].

    The squared L2 norm of the trajectory's reduced nodal initial vector
    enters the right side through the mass matrix, k-independently.
    """
    u0 = trajectory.initial
    u0_sq = float(np.real(np.vdot(u0, trajectory.forms.mass @ u0)))
    T = trajectory.times[-1]
    with np.errstate(over="ignore"):  # an infinite bound or integral, not an exception
        f_int = float(np.trapezoid(trajectory.dual_f_sq, trajectory.times))
        factor = float(np.exp((2.0 * c2 + 2.0 * np.float64(c1) ** 2) * T))
        energy_int = float(np.trapezoid(trajectory.norm_plus_sq, trajectory.times))
    rhs = (u0_sq + f_int) * factor

    sup_lhs = float(np.max(trajectory.norm_l2_sq))
    energy_lhs = 0.5 * energy_int + float(trajectory.norm_l2_sq[-1])

    return EstimateReport(
        gronwall_factor=factor,
        sup_lhs=sup_lhs,
        sup_rhs=rhs,
        energy_lhs=energy_lhs,
        energy_rhs=rhs,
        sup_ok=sup_lhs <= rhs * (1.0 + BOUND_SLACK) + 1e-30,
        energy_ok=energy_lhs <= rhs * (1.0 + BOUND_SLACK) + 1e-30,
    )


def check_uniqueness_condition(interaction: np.ndarray) -> tuple[float, bool]:
    """Smallest eigenvalue of the Hermitian part of the dense modal matrix
    Chat = H* C H of the lower-order form (``trajectory.interaction``).

    Nonnegativity (up to ``UNIQUENESS_TOL``) is the discrete version of the
    sign condition under which the evolution problem has exactly one
    solution. The modal matrix sees only the span of H: the nodal C agrees
    with it in the sign of the minimum eigenvalue when k = N (the Hermitian
    parts are congruent, Sylvester's law of inertia), not in its value, and
    with k < N not even in sign. On heat1d at resolution 400 with a0 = -40
    on |x - 0.01| < 0.006 and 0.5 elsewhere, the nodal value is -0.095, the
    modal one -0.0036 at k = N and +0.0019 at k = 5.
    """
    herm = 0.5 * (interaction + interaction.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(herm))) if len(herm) else 0.0
    return min_eig, min_eig >= -UNIQUENESS_TOL


def check_continuity(trajectory: GalerkinTrajectory) -> float:
    """Largest jump of the L2 norm between adjacent grid times.

    Shrinks proportionally to the step size for trajectories approximating
    a solution continuous in L2.
    """
    norms = np.sqrt(trajectory.norm_l2_sq)
    if len(norms) < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(norms))))


def check_cauchy_bound(forms, c1: float, c2: float) -> tuple[float, bool]:
    """Exact check of the lower-order form bound.

    For the constant c = c1 + c2 the form must satisfy
    |v* C u| <= c ||u||_E ||v||_E with E = K+ + M. The smallest such
    constant over the whole discrete space is the largest generalized
    singular value of C in the E-norm: sqrt(mu) for the largest mu of
    C* E^-1 C x = mu E x, the largest eigenvalue of E^-1 C* E^-1 C, from
    ``spectral.arpack`` on the factor of E (``NotSPD`` if E is not positive
    definite). Returns the constant and whether it stays below c (with
    roundoff headroom).

    ``arpack`` reads the factor's certificate once ARPACK has returned, so
    on a 2D mesh SuperLU's copies of L and U are made only after the Arnoldi
    workspace is gone.
    """
    C = forms.first_order
    mu = 0.0
    if C.count_nonzero():
        E = forms.k_plus + forms.mass
        CH = C.conj().T.tocsr()
        dtype = np.result_type(C.dtype, E.dtype)
        (mu,), _ = arpack(E, "K+ + M", lambda solve: lambda x: solve(CH @ solve(C @ x)), dtype, 1)
    ratio = float(np.sqrt(max(float(np.real(mu)), 0.0)))
    c = c1 + c2
    return ratio, ratio <= c * (1.0 + 1e-9) + 1e-12
