"""Time integration of the Galerkin system.

Expanding the approximate solution in the energy-orthonormal basis turns
the weak problem into a k-dimensional linear ODE system

    g_i(t) + sum_j Chat[i, j] g_j(t) + d_i g_i'(t) = Fhat_i(t),

where ``Chat`` pairs the lower-order form against the basis and
``d_i`` is the squared L2 norm of the i-th basis vector, so the system is
the pair (D, A) = (diag d, I + Chat). It is stepped with a one-parameter
implicit theta scheme (theta = 1/2 Crank-Nicolson by default, theta = 1
backward Euler) by ``evolve_theta``, which steps any dense or sparse pair
(D, A) and yields the state at each grid time, so that each caller keeps
only what it needs of them. The coefficients do not depend on time, so the
step matrix is factored once. The source is called once per block of grid
times; only the modal loads and the dual norms of each block are kept.

When the basis spans the whole finite element space (k = N), the modal
system is the nodal system M u' + (K+ + C) u = F written in another basis.
``solve_nodal`` steps that system directly over the sparse pair
(M, K+ + C), with no eigensolve and no dense N x N array, and keeps only
the last state; the convergence studies take this path. Each nodal step is
one compiled CSR product, the kernel behind ``rhs @ g`` called directly
because its dispatch cost more than its work, and one solve.

``discretize`` is the one path from a problem to its forms and energy basis;
``solve_evolution`` the one place that projects the system and the initial
data; the trajectory carries Chat (``interaction``), its basis, whose
``mass_norms`` are d, and u0 for the checks.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# the compiled kernel that ``rhs @ g`` ends in for a CSR matrix and a vector
# (scipy.sparse._compressed._matmul_vector); tests/test_integrator.py pins
# the two to the same bits
from scipy.sparse._sparsetools import csr_matvec

from .assembly import AssembledForms, assemble_forms, assemble_load, dual_norm, real_if_exact
from .errors import NumericalError, SingularStepMatrix, TimeOffGrid
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
class GalerkinTrajectory:
    """Computed trajectory on a uniform time grid with norm traces."""

    times: np.ndarray  # (M+1,)
    coefficients: np.ndarray  # (M+1, k)
    norm_plus_sq: np.ndarray  # |g|^2, the energy norm squared
    norm_l2_sq: np.ndarray  # sum d_i |g_i|^2
    dual_f_sq: np.ndarray  # squared dual norm of the full load
    theta: float
    initial: np.ndarray = field(repr=False)  # reduced nodal initial vector u0
    interaction: np.ndarray = field(repr=False)  # (k, k) modal matrix Chat = H* C H
    basis: EigenBasis = field(repr=False)  # its mass_norms are d
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


def build_galerkin_system(forms: AssembledForms, basis: EigenBasis, k: int) -> np.ndarray:
    """The modal matrix Chat = H* C H of the lower-order form on the first
    k basis vectors. A product that overflows (the energy-normalized H is
    large where K+ is tiny) raises ``NumericalError``."""
    H = basis.vectors[:, :k]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        interaction = H.conj().T @ (forms.first_order @ H)
    if not np.all(np.isfinite(interaction)):
        raise NumericalError("the modal matrix H* C H of the lower-order form is not finite")
    return interaction


def project_initial(u0: np.ndarray, basis: EigenBasis, mass) -> np.ndarray:
    """L2-orthogonal projection coefficients of the nodal vector u0."""
    Mu = mass @ np.asarray(u0, dtype=complex)
    return (basis.vectors.conj().T @ Mu) / basis.mass_norms


def evolve_theta(
    pair: tuple, g0: np.ndarray, theta: float, dt: float, steps: int, loads=None, hermitian=False
) -> Iterator[np.ndarray]:
    """Theta-scheme states g_0, ..., g_steps from ``g0`` on a uniform grid,
    yielded one at a time for a dense and a sparse pair alike; the step
    matrix is factored at the first ``next``, so its errors come before any
    state.

    Each step solves

        D (g_{m+1} - g_m) / dt + A (theta g_{m+1} + (1 - theta) g_m)
            = theta F_{m+1} + (1 - theta) F_m,

    that is lhs g_{m+1} = rhs g_m + q_m with lhs = D/dt + theta A,
    rhs = D/dt - (1 - theta) A and q_m from ``_theta_loads``. ``pair`` is
    (D, A): the dense modal pair (diag d, I + Chat), stepped by
    ``_step_dense``, or the sparse nodal pair (M, K+ + C), stepped by
    ``_step_sparse``. ``loads`` holds F at the steps + 1 grid times, or None
    for a source-free problem: a (steps + 1, n) array, which is one block,
    or any iterable of its consecutive row blocks. ``hermitian`` vouches
    that a sparse pair has D Hermitian positive definite and A Hermitian
    positive semidefinite, as ``solve_nodal`` knows of (M, K+): lhs is then
    Hermitian positive definite for theta >= 0 and dt > 0. Either factor
    refuses a non-finite entry, as D/dt has when dt is tiny.
    """
    D, A = pair
    with np.errstate(over="ignore"):  # an infinite D/dt is refused with the factor
        D = D / dt
        lhs, rhs = D + theta * A, D - (1.0 - theta) * A
    del pair, D, A
    increments = None if loads is None else _theta_loads(theta, loads)
    if sp.issparse(rhs):
        states = _step_sparse(lhs, rhs, g0, steps, increments, hermitian)
    else:
        states = _step_dense(lhs, rhs, g0, steps, increments)
    del lhs, rhs  # the kernel lets them go once factored
    yield from states


def _theta_loads(theta: float, loads) -> Iterator[np.ndarray]:
    """The increments q_m = theta F_{m+1} + (1 - theta) F_m, one array per
    block of ``loads`` (an ndarray is one block): the q_m of a block need
    only it and the last load of the block before."""
    last = None
    for F in [loads] if isinstance(loads, np.ndarray) else loads:
        ext = F if last is None else np.concatenate([last[None], F])
        yield theta * ext[1:] + (1.0 - theta) * ext[:-1]
        last = ext[-1]


def _step_dense(lhs, rhs, g0, steps: int, increments) -> Iterator[np.ndarray]:
    """The theta recurrence over a dense pair in complex arithmetic, as
    g_{m+1} = z_m + P g_m with P = lhs^-1 rhs and z_m = lhs^-1 q_m (zero
    without loads), solved a block at a time, from one LAPACK LU of lhs. The
    LU refuses a pivot below 1e-300 (``SingularStepMatrix``), so LAPACK's
    warning about an exactly zero pivot is silenced."""
    if not np.all(np.isfinite(lhs)):
        raise SingularStepMatrix("implicit step matrix has a non-finite entry")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(lhs, overwrite_a=True)
    del lhs
    if np.min(np.abs(np.diag(lu[0]))) < 1e-300:
        raise SingularStepMatrix("implicit step matrix is singular")
    prop = sla.lu_solve(lu, rhs, overwrite_b=True)
    del rhs
    g = np.array(g0, dtype=complex)
    yield g
    if increments is None:
        blocks = [[np.zeros(len(g), dtype=complex)] * steps]
    else:
        blocks = (sla.lu_solve(lu, q.T, overwrite_b=True).T for q in increments)
    for z in itertools.chain.from_iterable(blocks):
        g = z + prop @ g
        yield g


def _csr_product(mat, dtype):
    """The product g -> mat @ g for vectors g of type ``dtype``, bit for bit
    as scipy forms it: one call of scipy's compiled ``csr_matvec`` on the
    CSR form of ``mat`` into zeros of ``dtype``, the call that ``mat @ g``
    ends in. ``mat`` is not cast, since scipy's cast sums duplicates and
    sorts indices, which can reorder a row's sum; the kernel takes a real
    matrix with a complex vector itself. Called directly, it skips the
    Python dispatch of ``@``, which costs more than its work on a 1D mesh."""
    mat = mat.tocsr()
    rows, cols = mat.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data

    def product(g):
        b = np.zeros(rows, dtype)
        csr_matvec(rows, cols, indptr, indices, data, g, b)
        return b

    return product


def _step_sparse(lhs, rhs, g0, steps: int, increments, hermitian: bool) -> Iterator[np.ndarray]:
    """The theta recurrence lhs g_{m+1} = rhs g_m + q_m over a sparse pair,
    carrying one state: one sparse factor of lhs, then per step one compiled
    CSR product with rhs (``_csr_product``, the kernel behind ``rhs @ g``)
    and one solve. lhs is factored as Hermitian definite if ``hermitian``
    (``NotSPD`` if it is not; ``?pttrf`` in 1D, where a solve costs about
    half of ``?gttrs``), with partial pivoting otherwise
    (``SingularStepMatrix``). The state dtype is picked once, from the pair,
    g0 and the first block of increments, and lhs is factored in it, so real
    data step in real arithmetic; a source is then real or complex at every
    time.
    """
    first = None if increments is None else next(increments, None)
    dtype = np.result_type(lhs.dtype, rhs.dtype, g0, *(() if first is None else (first,)))
    solve = factor(lhs.astype(dtype, copy=False), "implicit step matrix", hermitian=hermitian)
    del lhs
    product = _csr_product(rhs, dtype)
    del rhs
    g = np.asarray(g0, dtype=dtype)
    yield g
    blocks = [[None] * steps] if first is None else itertools.chain([first], increments)
    for q in itertools.chain.from_iterable(blocks):
        b = product(g)
        if q is not None:
            b += q
        g = solve(b)
        yield g


def _load_blocks(source: Callable, forms: AssembledForms, times: np.ndarray):
    """Reduced loads F(t) at the grid times, LOAD_BLOCK times per block:
    pairs of the block's slice and its (block length, N) loads."""
    for start in range(0, len(times), LOAD_BLOCK):
        block = slice(start, start + LOAD_BLOCK)
        yield block, assemble_load(forms, source, times[block])


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
    the first k modes. The modal pair (diag d, I + Chat) is stepped by
    ``evolve_theta``; the trajectory keeps Chat and the reduced nodal
    initial vector for the checks. A trajectory that overflows (an
    explicit step on a large A, say) raises ``NumericalError``.
    """
    interaction = build_galerkin_system(forms, basis, k)
    T = spec.final_time
    dt = T / time_steps
    times = np.linspace(0.0, T, time_steps + 1)

    u0 = _initial_vector(spec, forms)
    sub_basis = EigenBasis(basis.eigenvalues[:k], basis.vectors[:, :k], basis.mass_norms[:k])
    modal_loads, dual_f_sq = None, np.zeros(time_steps + 1)
    if spec.source is not None:
        modal_loads, dual_f_sq = _modal_loads(spec.source, forms, sub_basis.vectors, times)
    g0 = project_initial(u0, sub_basis, forms.mass)
    d = sub_basis.mass_norms
    coeffs = np.zeros((time_steps + 1, k), dtype=complex)
    # the pair is built in the call, so the stepper can let it go
    states = evolve_theta(
        (np.diag(d), interaction + np.eye(k)), g0, theta, dt, time_steps, modal_loads
    )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for m, g in enumerate(states):
            coeffs[m] = g
        norm_plus_sq = np.sum(np.abs(coeffs) ** 2, axis=1)
        norm_l2_sq = np.sum(d[None, :] * np.abs(coeffs) ** 2, axis=1)
    # a coefficient that is not finite makes both traces so
    if not np.isfinite([norm_plus_sq, norm_l2_sq]).all():
        raise NumericalError("the theta scheme overflowed: the trajectory is not finite")

    return GalerkinTrajectory(
        times=times,
        coefficients=coeffs,
        norm_plus_sq=norm_plus_sq,
        norm_l2_sq=norm_l2_sq,
        dual_f_sq=dual_f_sq,
        theta=theta,
        initial=u0,
        interaction=interaction,
        basis=sub_basis,
        forms=forms,
        modal_loads=modal_loads,
    )


def solve_nodal(
    spec: ProblemSpec, forms: AssembledForms, time_steps: int, theta: float = 0.5
) -> np.ndarray:
    """Reduced nodal state (N,) at T of M u' + (K+ + C) u = F on [0, T].

    This is the Galerkin solution with k = N: the last state of
    ``evolve_theta`` over the nodal pair (M, K+ + C) from the nodal u0, which
    the full basis would reproduce exactly, with one block of loads held at a
    time; in real arithmetic when the pair, u0 and the loads are real. K+ is
    factored once as Hermitian, which refuses an indefinite or exactly
    singular K+ (``NotSPD``) but, without the eigenbasis's ``NULL_FLOOR``,
    certifies no definiteness (``spectral.factor``); M is definite by the
    mesh check of ``assemble_forms``. When C vanishes the step matrix
    M/dt + theta K+ is Hermitian positive definite for every theta in [0, 1]
    and is factored as such; otherwise with partial pivoting.
    """
    factor(forms.k_plus, "energy matrix K+", hermitian=True)
    T = spec.final_time
    loads = None
    if spec.source is not None:
        times = np.linspace(0.0, T, time_steps + 1)
        loads = (F for _, F in _load_blocks(spec.source, forms, times))
    hermitian = not forms.first_order.count_nonzero()
    A = forms.k_plus if hermitian else forms.k_plus + forms.first_order
    u0 = _initial_vector(spec, forms)
    states = evolve_theta((forms.mass, A), u0, theta, T / time_steps, time_steps, loads, hermitian)
    return deque(states, maxlen=1).pop()


def reconstruct_solution(trajectory: GalerkinTrajectory, t: float) -> np.ndarray:
    """Nodal solution values at a grid time, zeros reinstated on the
    constrained nodes."""
    reduced = trajectory.basis.vectors @ trajectory.coefficients[trajectory.time_index(t)]
    return trajectory.forms.dofmap.expand(reduced)


# The largest relative defect per step that the energy-identity check passes.
ENERGY_TOL = 1e-9


def energy_identity_residuals(trajectory: GalerkinTrajectory) -> np.ndarray:
    """Relative defect of the discrete energy balance at each theta step.

    Pairing the step equation D (g_{m+1} - g_m)/dt + A g_theta = F_theta,
    with g_theta = theta g_{m+1} + (1 - theta) g_m, A = I + Chat and
    F_theta = theta F_{m+1} + (1 - theta) F_m, against g_theta gives, after
    taking real parts,

        Re<g_theta, D (g_{m+1} - g_m)/dt> + |g_theta|^2
            + Re(g_theta* Chat g_theta) = Re<g_theta, F_theta>,

    exact for every theta, which a correctly solved step satisfies to solver
    precision. The defect is relative to the largest of the two sides,
    |g_theta|^2 and sum_j |g_theta,j| d_j (|g_{m+1},j| + |g_m,j|)/dt, the
    size of the terms the difference quotient cancels: a small dt makes
    those terms, and the rounding they leave, large against the balance.
    Chat, d (the basis's ``mass_norms``) and the modal loads come from the
    trajectory; nothing is reassembled. A step whose terms overflow (a tiny
    dt) has no finite defect, and gets an infinite one, so the check fails.
    """
    g = trajectory.coefficients
    theta = trajectory.theta
    dt = trajectory.dt
    d = trajectory.basis.mass_norms
    loads = trajectory.modal_loads
    res = np.zeros(len(g) - 1)
    # an overflow leaves a defect that is not finite, made infinite below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(res), LOAD_BLOCK):
            block = slice(start, start + LOAD_BLOCK)
            old, new = g[:-1][block], g[1:][block]
            g_th = theta * new + (1.0 - theta) * old
            norm_sq = np.sum(np.abs(g_th) ** 2, axis=1)
            lhs = (
                np.real(np.sum(g_th.conj() * (d * (new - old) / dt), axis=1))
                + norm_sq
                + np.real(np.sum(g_th.conj() * (g_th @ trajectory.interaction.T), axis=1))
            )
            rhs = np.zeros(len(g_th))
            if loads is not None:
                f_th = theta * loads[1:][block] + (1.0 - theta) * loads[:-1][block]
                rhs = np.real(np.sum(g_th.conj() * f_th, axis=1))
            cancelled = np.sum(np.abs(g_th) * d * (np.abs(new) + np.abs(old)), axis=1) / dt
            scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), norm_sq, cancelled])
            res[block] = np.abs(lhs - rhs) / np.maximum(scale, 1e-30)
    res[~np.isfinite(res)] = np.inf
    return res
