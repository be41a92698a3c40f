"""A priori bounds, the uniqueness criterion, and trajectory diagnostics.

The energy argument for the evolution problem yields two exponential-in-time
bounds: a sup bound on the squared L2 norm and an energy bound on the time
integral of the squared energy norm, both with right side

    (|u0|_L2^2 + int_0^T |f|_-^2 dt) * exp((2 c2 + 2 c1^2) T),

where c1 controls the directional-derivative coefficients and c2 the
zero-order remainder, both maxima over the mesh's quadrature points. The
right side does not depend on the basis size.
Verification on a computed trajectory uses trapezoidal quadrature of the
norm traces and an explicit slack for quadrature and projection error;
violations are reported, not raised, so near-degenerate configurations can
still be explored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence
from .integrator import GalerkinTrajectory
from .fields import axes
from .problem import ProblemSpec
from .spectral import factor

UNIQUENESS_TOL = 1e-10
BOUND_SLACK = 0.02


@dataclass
class EstimateReport:
    c1: float
    c2: float
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
    maximum of |delta_a0|. The discrete forms see the coefficients only at
    these points, and the rules integrate products of P1 functions exactly
    with positive weights, so the maxima bound the discrete forms exactly:
    never an underestimate, and attained by the coefficients the forms use.
    """
    coords = axes(mesh.quadrature.points)

    def sup(f):
        return float(np.max(np.abs(np.asarray(f(*coords), dtype=complex))))

    c1 = float(np.sqrt(sum(sup(a_l) ** 2 for a_l in spec.first_order or [])))
    c2 = 0.0 if spec.zero_order_delta_a0 is None else sup(spec.zero_order_delta_a0)
    return c1, c2


def apriori_bounds(
    trajectory: GalerkinTrajectory, c1: float, c2: float, slack: float = BOUND_SLACK
) -> EstimateReport:
    """Check the sup and energy bounds on a computed trajectory over its
    whole grid [0, T].

    The squared L2 norm of the trajectory's reduced nodal initial vector
    enters the right side through the mass matrix, k-independently.
    """
    u0 = trajectory.initial
    u0_sq = float(np.real(np.vdot(u0, trajectory.forms.mass @ u0)))
    f_int = float(np.trapezoid(trajectory.dual_f_sq, trajectory.times))
    T = trajectory.times[-1]
    factor = float(np.exp((2.0 * c2 + 2.0 * c1**2) * T))
    rhs = (u0_sq + f_int) * factor

    sup_lhs = float(np.max(trajectory.norm_l2_sq))
    energy_lhs = 0.5 * float(
        np.trapezoid(trajectory.norm_plus_sq, trajectory.times)
    ) + float(trajectory.norm_l2_sq[-1])

    return EstimateReport(
        c1=c1,
        c2=c2,
        gronwall_factor=factor,
        sup_lhs=sup_lhs,
        sup_rhs=rhs,
        energy_lhs=energy_lhs,
        energy_rhs=rhs,
        sup_ok=sup_lhs <= rhs * (1.0 + slack) + 1e-30,
        energy_ok=energy_lhs <= rhs * (1.0 + slack) + 1e-30,
    )


def check_uniqueness_condition(interaction, tol: float = UNIQUENESS_TOL) -> tuple[float, bool]:
    """Smallest eigenvalue of the Hermitian part of the lower-order matrix.

    Nonnegativity (up to ``tol``) is the discrete version of the sign
    condition under which the evolution problem has exactly one solution.
    Accepts the modal matrix H* C H or the nodal one C, which agree in the
    sign of the minimum eigenvalue only, not in its value: with all N basis
    vectors H is invertible and the two Hermitian parts are congruent
    (Sylvester's law of inertia); with k < N the modal matrix sees only the
    span of H. On heat1d at resolution 400 with delta_a0 = -40 on
    |x - 0.01| < 0.006 and 0.5 elsewhere, the nodal value is -0.095, the
    modal one -0.0036 at k = N and +0.0019 at k = 5.
    """
    A = interaction.toarray() if sp.issparse(interaction) else np.asarray(interaction)
    herm = 0.5 * (A + A.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(herm))) if len(herm) else 0.0
    return min_eig, min_eig >= -tol


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
    C* E^-1 C x = mu E x. It comes from one sparse factor of E (``NotSPD``
    if E is not positive definite) and ARPACK with one wanted pair and a
    fixed start vector, or, when N <= 2, below ARPACK's smallest size, from
    one dense generalized eigensolve of the pair formed with that factor.
    Returns the constant and whether it stays below c (with roundoff
    headroom).
    """
    C = forms.first_order
    n = forms.N
    mu = 0.0
    if C.count_nonzero():
        E = forms.k_plus + forms.mass
        solve = factor(E, "K+ + M", hermitian=True)
        CH = C.conj().T.tocsr()
        if n <= 2:
            mu = sla.eigh(CH @ solve(C.toarray()), E.toarray(), eigvals_only=True)[-1]
        else:
            dtype = np.result_type(C.dtype, E.dtype)
            normal = spla.LinearOperator((n, n), matvec=lambda x: CH @ solve(C @ x), dtype=dtype)
            e_inv = spla.LinearOperator((n, n), matvec=solve, dtype=dtype)
            v0 = np.random.default_rng(0).standard_normal(n).astype(dtype)
            try:
                (mu,) = spla.eigsh(
                    normal, 1, M=E, Minv=e_inv, which="LM", v0=v0, return_eigenvectors=False
                )
            except spla.ArpackError as exc:
                raise NoConvergence(f"ARPACK: {exc}") from exc
    ratio = float(np.sqrt(max(float(np.real(mu)), 0.0)))
    c = c1 + c2
    return ratio, ratio <= c * (1.0 + 1e-9) + 1e-12
