"""Time integration of the Galerkin system.

Expanding the approximate solution in the energy-orthonormal basis turns
the weak problem into a k-dimensional linear ODE system

    g_i(t) + sum_j Chat[i, j] g_j(t) + d_i g_i'(t) = Fhat_i(t),

where ``Chat`` pairs the lower-order form against the basis and
``d_i`` is the squared L2 norm of the i-th basis vector. The system may be
complex, and it is stepped in complex arithmetic with a one-parameter
implicit theta scheme (theta = 1/2 Crank-Nicolson by default, theta = 1
backward Euler). The coefficients do not depend on time, so the step matrix
is factored once, by LAPACK, and each step applies a constant propagator.
The source is called once per block of grid times; only the modal loads and
the dual norms of each block are kept.

When the basis spans the whole finite element space (k = N), the modal
system is the nodal system M u' + (K+ + C) u = F written in another basis.
``solve_nodal`` steps that system directly with the same theta step over the
sparse pair (M, K+ + C): one sparse factor of M/dt + theta (K+ + C)
(``spectral.factor``) and one sparse product per step, with no eigensolve
and no dense N x N array, and keeps only the current state and one block of
loads. It runs in real arithmetic when the pair, the initial data and the
loads are real. The convergence studies take this path.

``discretize`` is the one path from a problem to its forms and energy basis;
``solve_evolution`` the one place that projects the system and the initial
data, which the trajectory then carries for the checks.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import AssembledForms, assemble_forms, assemble_load, dual_norm, real_if_exact
from .errors import SingularStepMatrix, TimeOffGrid
from .fields import axes
from .meshing import build_mesh
from .problem import ProblemSpec, validate_coefficients
from .spectral import EigenBasis, factor, generalized_eigenbasis

# Grid times per source call: bounds the source values of one call to
# (E*Q, LOAD_BLOCK) and the full-size loads that solve_evolution and
# solve_nodal hold at once to (LOAD_BLOCK, N). The energy-identity check
# walks the same blocks.
LOAD_BLOCK = 64


@dataclass
class GalerkinSystem:
    """Coefficient data of the k-dimensional evolution system."""

    dimension: int
    interaction: np.ndarray  # (k, k), modal matrix of the lower-order form
    capacitance: np.ndarray  # (k,), squared L2 norms of the basis vectors

    def theta_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The modal pair (D, A) = (diag d, I + Chat) of the theta step."""
        return np.diag(self.capacitance), self.interaction + np.eye(self.dimension)


@dataclass
class GalerkinTrajectory:
    """Computed trajectory on a uniform time grid with norm traces."""

    times: np.ndarray  # (M+1,)
    coefficients: np.ndarray  # (M+1, k)
    norm_plus_sq: np.ndarray  # |g|^2, the energy norm squared
    norm_l2_sq: np.ndarray  # sum d_i |g_i|^2
    dual_f_sq: np.ndarray  # squared dual norm of the full load
    theta: float
    initial: np.ndarray = field(repr=False)  # reduced nodal initial vector u0
    system: GalerkinSystem = field(repr=False)
    basis: EigenBasis = field(repr=False)
    forms: AssembledForms = field(repr=False)
    # (M+1, k) modal loads H* F(t); None for a source-free problem
    modal_loads: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def time_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 * max(1.0, float(self.times[-1])):
            raise TimeOffGrid(f"t = {t} is not on the trajectory grid")
        return idx


def discretize(
    spec: ProblemSpec, resolution: int, k: Optional[int]
) -> tuple[AssembledForms, Optional[EigenBasis]]:
    """Validated forms of ``spec`` on a mesh of the given resolution and the
    first min(k, N) pairs of their energy basis (all N pairs for k = None,
    no basis and no eigensolve for k = 0).

    The coefficients are validated at the mesh's quadrature points, where
    the forms evaluate them, so the mesh is built first. Each stage is
    called through its name in this module, so a caller that rebinds those
    names (a tracer, a test) sees every stage.
    """
    mesh = build_mesh(spec.domain, resolution, spec.dirichlet_selector)
    validate_coefficients(spec, mesh)
    forms = assemble_forms(mesh, spec)
    if k == 0:
        return forms, None
    count = forms.N if k is None else min(k, forms.N)
    return forms, generalized_eigenbasis(forms.k_plus, forms.mass, count)


def build_galerkin_system(forms: AssembledForms, basis: EigenBasis, k: int) -> GalerkinSystem:
    """Project the assembled forms onto the first k basis vectors."""
    H = basis.vectors[:, :k]
    interaction = H.conj().T @ (forms.first_order @ H)
    capacitance = basis.mass_norms[:k].copy()
    return GalerkinSystem(dimension=k, interaction=interaction, capacitance=capacitance)


def project_initial(u0: np.ndarray, basis: EigenBasis, mass) -> np.ndarray:
    """L2-orthogonal projection coefficients of the nodal vector u0."""
    Mu = mass @ np.asarray(u0, dtype=complex)
    return (basis.vectors.conj().T @ Mu) / basis.mass_norms


def _dense_factor(lhs):
    """Solver for the dense modal step matrix, one LAPACK LU, refusing a
    pivot below 1e-300. LAPACK's warning about an exactly zero pivot is
    silenced: the SingularStepMatrix raised here reports it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(lhs, overwrite_a=True)
    if np.min(np.abs(np.diag(lu[0]))) < 1e-300:
        raise SingularStepMatrix("implicit step matrix is singular")

    def solve(b):
        return sla.lu_solve(lu, b, overwrite_b=True)

    return solve


def evolve_theta(
    system: Union[GalerkinSystem, tuple],
    g0: np.ndarray,
    theta: float,
    dt: float,
    steps: int,
    loads: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Theta-scheme states from ``g0`` on a uniform grid: all steps + 1 of
    them (steps + 1, n) for a dense pair, the final one (n,) for a sparse pair.

    Each step solves

        D (g_{m+1} - g_m) / dt + A (theta g_{m+1} + (1 - theta) g_m)
            = theta F_{m+1} + (1 - theta) F_m,

    that is lhs g_{m+1} = rhs g_m + q_m with lhs = D/dt + theta A,
    rhs = D/dt - (1 - theta) A and q_m = theta F_{m+1} + (1 - theta) F_m.
    ``system`` gives the pair (D, A): a GalerkinSystem its dense modal pair
    (diag d, I + Chat), or a sparse nodal pair (M, K+ + C) is passed as is.
    ``loads`` holds F at the steps + 1 grid times, or None for a
    source-free problem: a (steps + 1, n) array, or for a sparse pair also
    any iterable of its consecutive row blocks.

    A dense pair is stepped with the constant propagator P = lhs^-1 rhs and
    the increments lhs^-1 q_m, all from one factorization; a sparse pair by
    ``_step_sparse``.
    """
    D, A = system.theta_pair() if isinstance(system, GalerkinSystem) else system
    lhs, rhs = D / dt + theta * A, D / dt - (1.0 - theta) * A
    del D, A
    if sp.issparse(rhs):
        return _step_sparse(lhs, rhs, g0, theta, steps, loads)
    solve = _dense_factor(lhs)
    del lhs
    increments = None
    if loads is not None:
        increments = theta * loads[1:] + (1.0 - theta) * loads[:-1]
    coeffs = np.zeros((steps + 1, len(g0)), dtype=complex)
    coeffs[0] = g0
    prop = solve(rhs)
    del rhs
    if increments is not None:
        coeffs[1:] = solve(increments.T).T
    del solve
    for m in range(steps):
        coeffs[m + 1] += prop @ coeffs[m]
    return coeffs


def _step_sparse(lhs, rhs, g0, theta: float, steps: int, loads) -> np.ndarray:
    """The theta recurrence lhs g_{m+1} = rhs g_m + q_m over a sparse pair,
    carrying one state: one sparse factor of lhs, one product and one solve
    per step. The loads come one row block at a time, and the increments
    q_m of a block need only it and the last load of the previous one.

    The state dtype is picked once, from the pair, g0 and the first load
    block, and lhs is factored in it, so real data step in real arithmetic.
    The loads must then keep that dtype: a source is real or complex at
    every time.
    """
    blocks = (np.atleast_2d(F) for F in (() if loads is None else loads))
    first = next(blocks, None)
    dtype = np.result_type(lhs.dtype, rhs.dtype, g0, *(() if first is None else (first,)))
    solve = factor(lhs.astype(dtype, copy=False), "implicit step matrix")
    g = np.asarray(g0, dtype=dtype)
    if first is None:
        for _ in range(steps):
            g = solve(rhs @ g)
        return g
    last = first[0]
    for F in itertools.chain([first[1:]], blocks):
        ext = np.concatenate([last[None], F])
        for q in theta * ext[1:] + (1.0 - theta) * ext[:-1]:
            b = rhs @ g
            b += q
            g = solve(b)
        last = ext[-1]
    return g


def _load_blocks(source: Callable, forms: AssembledForms, times: np.ndarray):
    """Reduced loads F(t) at the grid times, LOAD_BLOCK times per block:
    pairs of the block's slice and its (block length, N) loads."""
    for start in range(0, len(times), LOAD_BLOCK):
        block = slice(start, start + LOAD_BLOCK)
        yield block, assemble_load(forms.mesh, source, times[block])


def _modal_loads(source: Callable, forms: AssembledForms, H: np.ndarray, times: np.ndarray):
    """Modal loads H* F(t), one row per grid time, and the squared dual norms
    of the full loads F(t)."""
    Hc = H.conj()
    modal = np.empty((len(times), H.shape[1]), dtype=complex)
    dual_sq = np.empty(len(times))
    for block, F in _load_blocks(source, forms, times):
        modal[block] = F @ Hc
        dual_sq[block] = dual_norm(F, forms) ** 2
    return modal, dual_sq


def _initial_vector(spec: ProblemSpec, forms: AssembledForms) -> np.ndarray:
    """Reduced nodal initial vector u0, zero without initial data; real
    when its values are."""
    if spec.initial is None:
        return np.zeros(forms.N)
    values = np.asarray(spec.initial(*axes(forms.mesh.nodes)), dtype=complex)
    return real_if_exact(forms.dofmap.reduce(values))


def solve_evolution(
    spec: ProblemSpec,
    forms: AssembledForms,
    basis: EigenBasis,
    k: int,
    time_steps: int,
    theta: float = 0.5,
) -> GalerkinTrajectory:
    """Full trajectory on [0, T] with energy, L2 and dual-norm traces.

    The dual-norm trace uses the full discrete load, not its truncation to
    the first k modes. The trajectory keeps the projected system and the
    reduced nodal initial vector for the checks.
    """
    system = build_galerkin_system(forms, basis, k)
    T = spec.final_time
    dt = T / time_steps
    times = np.linspace(0.0, T, time_steps + 1)

    u0 = _initial_vector(spec, forms)
    sub_basis = EigenBasis(
        eigenvalues=basis.eigenvalues[:k],
        vectors=basis.vectors[:, :k],
        mass_norms=basis.mass_norms[:k],
    )
    if spec.source is None:
        modal_loads = None
        dual_f_sq = np.zeros(time_steps + 1)
    else:
        modal_loads, dual_f_sq = _modal_loads(spec.source, forms, sub_basis.vectors, times)
    g0 = project_initial(u0, sub_basis, forms.mass)
    coeffs = evolve_theta(system, g0, theta, dt, time_steps, modal_loads)

    norm_plus_sq = np.sum(np.abs(coeffs) ** 2, axis=1)
    norm_l2_sq = np.sum(system.capacitance[None, :] * np.abs(coeffs) ** 2, axis=1)
    return GalerkinTrajectory(
        times=times,
        coefficients=coeffs,
        norm_plus_sq=norm_plus_sq,
        norm_l2_sq=norm_l2_sq,
        dual_f_sq=dual_f_sq,
        theta=theta,
        initial=u0,
        system=system,
        basis=sub_basis,
        forms=forms,
        modal_loads=modal_loads,
    )


def solve_nodal(
    spec: ProblemSpec, forms: AssembledForms, time_steps: int, theta: float = 0.5
) -> np.ndarray:
    """Reduced nodal state (N,) at T of M u' + (K+ + C) u = F on [0, T].

    This is the Galerkin solution with k = N: the same theta step as
    ``evolve_theta`` over the nodal pair (M, K+ + C), started from the nodal
    u0, which the full basis would reproduce exactly. Without the eigenbasis
    the definiteness of M and K+ is checked by their factors, as the
    eigensolver would (``NotSPD``). The loads are stepped through block by
    block, so at most LOAD_BLOCK of them are held at once.
    """
    factor(forms.mass, "mass matrix", hermitian=True)
    factor(forms.k_plus, "energy matrix K+", hermitian=True)
    T = spec.final_time
    loads = None
    if spec.source is not None:
        times = np.linspace(0.0, T, time_steps + 1)
        loads = (F for _, F in _load_blocks(spec.source, forms, times))
    pair = (forms.mass, forms.k_plus + forms.first_order)
    u0 = _initial_vector(spec, forms)
    return evolve_theta(pair, u0, theta, T / time_steps, time_steps, loads)


def reconstruct_solution(trajectory: GalerkinTrajectory, t: float) -> np.ndarray:
    """Nodal solution values at a grid time, zeros reinstated on the
    constrained nodes."""
    reduced = trajectory.basis.vectors @ trajectory.coefficients[trajectory.time_index(t)]
    return trajectory.forms.dofmap.expand(reduced)


def energy_identity_residuals(trajectory: GalerkinTrajectory) -> np.ndarray:
    """Relative defect of the discrete energy balance at each theta step.

    Pairing the step equation D (g_{m+1} - g_m)/dt + A g_theta = F_theta,
    with g_theta = theta g_{m+1} + (1 - theta) g_m, A = I + Chat and
    F_theta = theta F_{m+1} + (1 - theta) F_m, against g_theta gives, after
    taking real parts,

        Re<g_theta, D (g_{m+1} - g_m)/dt> + |g_theta|^2
            + Re(g_theta* Chat g_theta) = Re<g_theta, F_theta>,

    exact for every theta, which a correctly solved step satisfies to solver
    precision. The system and the modal loads come from the trajectory;
    nothing is reassembled.
    """
    system = trajectory.system
    g = trajectory.coefficients
    theta = trajectory.theta
    dt = trajectory.dt
    d = system.capacitance
    loads = trajectory.modal_loads
    res = np.zeros(len(g) - 1)
    for start in range(0, len(res), LOAD_BLOCK):
        block = slice(start, start + LOAD_BLOCK)
        old, new = g[:-1][block], g[1:][block]
        g_th = theta * new + (1.0 - theta) * old
        norm_sq = np.sum(np.abs(g_th) ** 2, axis=1)
        lhs = (
            np.real(np.sum(g_th.conj() * (d * (new - old) / dt), axis=1))
            + norm_sq
            + np.real(np.sum(g_th.conj() * (g_th @ system.interaction.T), axis=1))
        )
        rhs = np.zeros(len(g_th))
        if loads is not None:
            f_th = theta * loads[1:][block] + (1.0 - theta) * loads[:-1][block]
            rhs = np.real(np.sum(g_th.conj() * f_th, axis=1))
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), np.maximum(norm_sq, 1e-30))
        res[block] = np.abs(lhs - rhs) / scale
    return res
