import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import integrator
from ncparab.assembly import assemble_load
from ncparab.config import RunConfig, build_problem, preset_problem
from ncparab.errors import NotSPD, SingularStepMatrix
from ncparab.fields import axes
from ncparab.integrator import (
    LOAD_BLOCK,
    build_galerkin_system,
    discretize,
    energy_identity_residuals,
    evolve_theta,
    project_initial,
    reconstruct_solution,
    solve_evolution,
    solve_nodal,
)
from ncparab.spectral import factor, generalized_eigenbasis
from tests.conftest import build_pipeline


def _modal_pair(d, interaction):
    """The modal pair (diag d, I + Chat) that solve_evolution steps."""
    return np.diag(d), np.eye(len(d)) + interaction


def test_backward_euler_scalar_decay_closed_form():
    # rho g' + g = 0 discretizes to g_{m+1} = g_m / (1 + dt/rho)
    rho, dt = 0.7, 0.05
    pair = _modal_pair(np.array([rho]), np.zeros((1, 1), dtype=complex))
    g = np.array(list(evolve_theta(pair, np.array([1.0 + 0.0j]), 1.0, dt, 3)))
    for m in range(3):
        assert g[m + 1, 0] == pytest.approx(g[m, 0] / (1.0 + dt / rho), rel=1e-14)


def test_constant_forcing_fixed_point():
    rng = np.random.default_rng(1)
    C = 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    Fhat = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pair = _modal_pair(np.array([1.0, 2.0, 0.5]), C)
    g_star = np.linalg.solve(np.eye(3) + C, Fhat)
    loads = np.tile(Fhat, (4, 1))
    for theta in (0.5, 1.0):
        g = np.array(list(evolve_theta(pair, g_star, theta, 0.1, 3, loads)))
        assert np.allclose(g, g_star[None, :], atol=1e-12)


def test_crank_nicolson_local_error_third_order():
    # Richardson halving against the exact scalar exponential
    rho = 1.0
    pair = _modal_pair(np.array([rho]), np.zeros((1, 1), dtype=complex))
    errors = []
    for dt in (0.1, 0.05):
        g1 = np.array(list(evolve_theta(pair, np.array([1.0 + 0.0j]), 0.5, dt, 1)))[1]
        errors.append(abs(g1[0] - np.exp(-dt / rho)))
    ratio = errors[0] / errors[1]
    assert 6.0 <= ratio <= 10.0


def test_project_initial_reproduces_basis_vector(heat_pipeline):
    _, _, forms, basis, k = heat_pipeline
    u0 = basis.vectors[:, 0]
    g0 = project_initial(u0, basis, forms.mass)
    expected = np.zeros(k)
    expected[0] = 1.0
    assert np.allclose(g0, expected, atol=1e-9)
    assert np.allclose(project_initial(np.zeros(forms.N), basis, forms.mass), 0.0)


def test_project_initial_full_basis_round_trip(heat_pipeline):
    _, _, forms, _, _ = heat_pipeline
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, forms.N)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(forms.N) + 1j * rng.standard_normal(forms.N)
    g0 = project_initial(u0, basis, forms.mass)
    assert np.linalg.norm(basis.vectors @ g0 - u0) <= 1e-8 * np.linalg.norm(u0)


def test_projection_does_not_increase_l2_norm(heat_pipeline):
    spec, _, forms, basis, k = heat_pipeline
    u0 = solve_evolution(spec, forms, basis, k, 1, 0.5).initial
    g0 = project_initial(u0, basis, forms.mass)
    proj_norm_sq = float(np.sum(basis.mass_norms * np.abs(g0) ** 2))
    full_norm_sq = float(np.real(np.vdot(u0, forms.mass @ u0)))
    assert proj_norm_sq <= full_norm_sq * (1.0 + 1e-12)


def test_heat_solution_matches_separation_of_variables():
    spec, mesh, forms, basis, k = build_pipeline("heat1d", resolution=100, k=40)
    trajectory = solve_evolution(spec, forms, basis, k, 100, 0.5)  # dt = 1e-3
    u = reconstruct_solution(trajectory)
    x = mesh.nodes[:, 0]
    exact = np.exp(-np.pi**2 * spec.final_time) * np.sin(np.pi * x)
    err = np.linalg.norm(u - exact) / np.linalg.norm(exact)
    assert err < 1e-2


def test_zero_data_zero_trajectory():
    spec, mesh, forms, basis, k = build_pipeline("zero1d", resolution=16, k=8)
    trajectory = solve_evolution(spec, forms, basis, k, 20, 0.5)
    assert np.max(np.abs(trajectory.coefficients)) == 0.0
    assert np.max(trajectory.norm_plus_sq) == 0.0


def test_disk_l2_norm_non_increasing(disk_pipeline):
    spec, mesh, forms, basis, k = disk_pipeline
    trajectory = solve_evolution(spec, forms, basis, k, 80, 1.0)
    l2 = np.sqrt(trajectory.norm_l2_sq)
    assert np.all(np.diff(l2) <= 1e-12)
    assert np.all(trajectory.norm_plus_sq >= 0.0)
    assert np.all(trajectory.norm_l2_sq >= 0.0)


def test_norm_traces_match_reconstruction(heat_pipeline):
    spec, mesh, forms, basis, k = heat_pipeline
    trajectory = solve_evolution(spec, forms, basis, k, 25, 0.5)
    reduced = basis.vectors[:, :k] @ trajectory.coefficients[-1]
    plus_sq = float(np.real(np.vdot(reduced, forms.k_plus @ reduced)))
    l2_sq = float(np.real(np.vdot(reduced, forms.mass @ reduced)))
    assert plus_sq == pytest.approx(trajectory.norm_plus_sq[-1], rel=1e-8)
    assert l2_sq == pytest.approx(trajectory.norm_l2_sq[-1], rel=1e-8)
    u = reconstruct_solution(trajectory)
    assert np.allclose(u[forms.dofmap.free], reduced)
    assert np.all(u[forms.mesh.dirichlet_nodes()] == 0.0)


def test_reconstruct_initial_and_single_mode(heat_pipeline):
    spec, mesh, forms, basis, k = heat_pipeline
    trajectory = solve_evolution(spec, forms, basis, k, 10, 0.5)
    g0 = project_initial(trajectory.initial, basis, forms.mass)
    expected = forms.dofmap.expand(basis.vectors[:, :k] @ g0[:k])
    trajectory.coefficients[-1] = trajectory.coefficients[0]
    assert np.allclose(reconstruct_solution(trajectory), expected)


def test_single_mode_trajectory_is_basis_vector(heat_pipeline):
    spec, mesh, forms, basis, k = heat_pipeline
    trajectory = solve_evolution(spec, forms, basis, k, 10, 1.0)
    trajectory.coefficients[-1] = 0.0
    trajectory.coefficients[-1, 0] = 1.0
    u = reconstruct_solution(trajectory)
    assert np.allclose(u[forms.dofmap.free], basis.vectors[:, 0])


def test_backward_euler_energy_identity(heat_pipeline):
    # pairing with g_theta makes the identity exact for every theta, not
    # only backward Euler; forced1d puts a source on the right side and
    # runs over several load blocks, the last one partial
    forced = build_pipeline("forced1d", resolution=30, k=10)
    for theta in (0.0, 0.5, 1.0):
        for (spec, _, forms, basis, k), steps in ((heat_pipeline, 50), (forced, 200)):
            trajectory = solve_evolution(spec, forms, basis, k, steps, theta)
            assert (trajectory.modal_loads is None) == (spec.source is None)
            assert np.max(energy_identity_residuals(trajectory)) <= 1e-9


@pytest.mark.parametrize("T", [1e-6, 0.1])
def test_energy_identity_holds_at_small_steps_and_flags_a_perturbed_step(T):
    # a small dt makes the difference quotient cancel large terms; the
    # defect is relative to them, so a correct run passes at any dt and a
    # step off by a relative 1e-6 fails at every dt
    cfg = RunConfig(
        problem_preset="inline", problem_domain="interval(0,1)", problem_u0="sine", problem_T=T
    )
    spec, resolution, k, steps = build_problem(cfg)
    forms, basis = discretize(spec, resolution, k)
    trajectory = solve_evolution(spec, forms, basis, k, steps, 0.5)
    assert np.max(energy_identity_residuals(trajectory)) <= 1e-9
    trajectory.coefficients[50] *= 1.0 + 1e-6
    res = energy_identity_residuals(trajectory)
    assert np.max(res) > 1e-9
    assert np.max(np.delete(res, [49, 50])) <= 1e-9  # the two steps next to it


def test_theta_step_satisfies_galerkin_consistency():
    # the scheme itself is the discrete weak statement; residual is solver
    # roundoff only
    for name in ("heat1d", "forced1d"):
        spec, _, forms, basis, k = build_pipeline(name, resolution=50, k=20)
        for theta in (0.5, 1.0):
            trajectory = solve_evolution(spec, forms, basis, k, 20, theta)
            g = trajectory.coefficients
            F = trajectory.modal_loads
            if F is None:
                F = np.zeros_like(g)
            dt = trajectory.dt
            D, A = _modal_pair(trajectory.basis.mass_norms, trajectory.interaction)
            for m in range(len(g) - 1):
                mid = theta * g[m + 1] + (1.0 - theta) * g[m]
                Fmid = theta * F[m + 1] + (1.0 - theta) * F[m]
                res = D @ (g[m + 1] - g[m]) / dt + A @ mid - Fmid
                scale = max(1.0, np.max(np.abs(g[m])), np.max(np.abs(Fmid)))
                assert np.max(np.abs(res)) <= 1e-11 * scale


def test_norm_derivative_two_ways_second_order():
    # centered differences of the L2 trace against 2 Re <g', D g> from the
    # ODE right side agree to O(dt^2)
    spec, mesh, forms, basis, k = build_pipeline("forced1d", resolution=30, k=10)
    D = basis.mass_norms[:k]
    A = np.eye(k) + build_galerkin_system(forms, basis, k)
    errs = []
    for steps in (40, 80):
        trajectory = solve_evolution(spec, forms, basis, k, steps, 0.5)
        g = trajectory.coefficients
        dt = trajectory.dt
        worst = 0.0
        for m in range(1, len(g) - 1):
            fd = (trajectory.norm_l2_sq[m + 1] - trajectory.norm_l2_sq[m - 1]) / (2 * dt)
            gprime = (trajectory.modal_loads[m] - A @ g[m]) / D
            analytic = 2.0 * float(np.real(np.vdot(g[m], D * gprime)))
            worst = max(worst, abs(fd - analytic))
        errs.append(worst)
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.5


def test_solve_evolution_agrees_with_lu_solve_reference():
    # the propagator form must reproduce one factored solve per step
    spec, _, forms, basis, k = build_pipeline("forced1d", resolution=50, k=20)
    for theta in (0.5, 1.0):
        trajectory = solve_evolution(spec, forms, basis, k, 5, theta)
        dt = trajectory.dt
        D, A = _modal_pair(trajectory.basis.mass_norms, trajectory.interaction)
        factor = sla.lu_factor(D / dt + theta * A)
        rhs = D / dt - (1.0 - theta) * A
        F = trajectory.modal_loads
        g = trajectory.coefficients[0]
        for m in range(5):
            b = rhs @ g + theta * F[m + 1] + (1.0 - theta) * F[m]
            g = sla.lu_solve(factor, b)
            assert np.allclose(g, trajectory.coefficients[m + 1], rtol=1e-13, atol=1e-13)


def test_l2_trace_jumps_shrink_linearly_with_dt():
    spec, mesh, forms, basis, k = build_pipeline("heat1d", resolution=40, k=15)
    jumps = []
    for steps in (20, 40, 80):
        trajectory = solve_evolution(spec, forms, basis, k, steps, 0.5)
        norms = np.sqrt(trajectory.norm_l2_sq)
        jumps.append(float(np.max(np.abs(np.diff(norms)))))
    for coarse, fine in zip(jumps[:-1], jumps[1:]):
        assert 1.5 <= coarse / fine <= 2.5


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["heat1d", "drift1d", "growth1d"]),
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0.5, 1.0]),
)
def test_nodal_step_is_the_full_basis_galerkin_solution(name, resolution, steps, theta):
    # with k = N the modal system is the nodal one in another basis, so both
    # theta schemes give the same final state
    spec = preset_problem(name)
    forms, _ = discretize(spec, resolution, 0)
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, forms.N)
    modal = solve_evolution(spec, forms, basis, basis.size, steps, theta)
    expected = basis.vectors @ modal.coefficients[-1]
    nodal = solve_nodal(spec, forms, steps, theta)
    assert nodal.shape == (forms.N,)
    diff = nodal - expected
    err = np.sqrt(np.real(np.vdot(diff, forms.mass @ diff)))
    ref = np.sqrt(np.real(np.vdot(expected, forms.mass @ expected)))
    assert err <= 1e-9 * ref


def _dense_theta_state(spec, forms, steps, theta):
    """Final state of the nodal theta recurrence, one dense solve per step."""
    dt = spec.final_time / steps
    A = (forms.k_plus + forms.first_order).toarray()
    M = forms.mass.toarray()
    F = np.zeros((steps + 1, forms.N))
    if spec.source is not None:
        F = assemble_load(forms, spec.source, np.linspace(0.0, spec.final_time, steps + 1))
    u = forms.dofmap.reduce(np.asarray(spec.initial(*axes(forms.mesh.nodes)), dtype=complex))
    for m in range(steps):
        b = (M / dt - (1.0 - theta) * A) @ u + theta * F[m + 1] + (1.0 - theta) * F[m]
        u = np.linalg.solve(M / dt + theta * A, b)
    return u


def test_nodal_step_matches_a_direct_sparse_solve():
    # the final state after 1..6 steps against the dense theta recurrence
    spec = preset_problem("forced1d")
    forms, _ = discretize(spec, 20, 0)
    for steps in range(1, 7):
        u = _dense_theta_state(spec, forms, steps, 0.5)
        assert np.allclose(solve_nodal(spec, forms, steps, 0.5), u, rtol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_nodal_step_matrix_is_factored_hermitian_exactly_when_c_vanishes(theta, monkeypatch):
    # without a lower-order form M/dt + theta K+ is Hermitian positive
    # definite and gets L D L^H (1D) or symmetric-mode SuperLU (2D); a drift
    # or a negative a0 (drift1d, growth1d) gives a C and partial pivoting.
    # 200 steps keep theta = 0 inside its stability bound on these meshes
    kinds = {}

    def recording(mat, name, hermitian=False):
        kinds[name] = hermitian
        return factor(mat, name, hermitian)

    monkeypatch.setattr(integrator, "factor", recording)
    steps = 200
    for name, resolution, hermitian in (
        ("heat1d", 8, True),
        ("heat2d", 4, True),
        ("forced1d", 8, True),
        ("drift1d", 8, False),
        ("growth1d", 8, False),
    ):
        spec = preset_problem(name)
        forms, _ = discretize(spec, resolution, 0)
        nodal = solve_nodal(spec, forms, steps, theta)
        assert kinds["implicit step matrix"] is hermitian
        u = _dense_theta_state(spec, forms, steps, theta)
        assert np.max(np.abs(nodal - u)) <= 1e-12 * np.max(np.abs(u))


def test_nodal_loads_stream_block_by_block():
    # 150 steps span three load blocks, the last one partial; the state is
    # real on forced1d (real pair, u0 and loads) and complex on drift1d
    theta, steps = 0.5, 150
    for name, dtype in (("forced1d", np.float64), ("drift1d", np.complex128)):
        spec = preset_problem(name)
        forms, _ = discretize(spec, 20, 0)
        u = _dense_theta_state(spec, forms, steps, theta)
        nodal = solve_nodal(spec, forms, steps, theta)
        assert nodal.dtype == dtype
        assert np.max(np.abs(nodal - u)) <= 1e-12 * np.max(np.abs(u))


def test_nodal_stepping_holds_one_load_block():
    # the loads of 4000 steps are never held at once: the peak stays below
    # the size of one (steps, N) array of them
    spec = preset_problem("forced1d")
    forms, _ = discretize(spec, 200, 0)
    steps = 4000
    solve_nodal(spec, forms, 1)  # builds the mesh's load operator
    tracemalloc.start()
    try:
        solve_nodal(spec, forms, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < steps * forms.N * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("steps, calls", [(1, 1), (63, 1), (64, 2), (2000, 32)])
def test_source_is_called_once_per_load_block(steps, calls):
    # ceil((steps + 1) / LOAD_BLOCK) calls, each with a whole block of times
    spec = preset_problem("forced1d")
    forms, basis = discretize(spec, 20, 4)
    widths = []

    def counting(x, t):
        widths.append(np.shape(t)[-1])
        return spec.source(x, t)

    solve_evolution(dataclasses.replace(spec, source=counting), forms, basis, 4, steps)
    assert len(widths) == calls == -(-(steps + 1) // LOAD_BLOCK)
    assert sum(widths) == steps + 1
    widths.clear()
    solve_nodal(dataclasses.replace(spec, source=counting), forms, steps)
    assert len(widths) == calls and sum(widths) == steps + 1


def test_nodal_step_refuses_indefinite_or_singular_forms():
    spec = preset_problem("heat1d")
    forms, basis = discretize(spec, 10, 0)
    assert basis is None
    K = forms.k_plus.tolil()
    K[0, :] = 0.0
    K[:, 0] = 0.0
    # an indefinite or singular M is refused by assembly, from the mesh
    # (tests/test_assembly.py), so only K+ is factored here
    for bad in (-forms.k_plus, K.tocsr()):
        with pytest.raises(NotSPD):
            solve_nodal(spec, dataclasses.replace(forms, k_plus=bad), 4, 0.5)


def test_step_matrix_with_a_non_finite_entry_is_refused_without_a_warning():
    # dt = 1e-322 makes D/dt overflow; the suite turns numpy's overflow
    # warning into an error, so this also checks that none escapes
    eye = sp.identity(4, format="csr")
    cases = (
        (_modal_pair(np.ones(4), np.zeros((4, 4))), False, SingularStepMatrix),
        ((eye, eye), False, SingularStepMatrix),
        ((eye, eye), True, NotSPD),
    )
    for pair, hermitian, error in cases:
        with pytest.raises(error, match="non-finite"):
            next(evolve_theta(pair, np.ones(4), 0.5, 1e-322, 2, hermitian=hermitian))


def test_singular_step_matrix_raises_for_dense_and_sparse_pairs():
    # D/dt + theta A vanishes: with dt = 0.5 and theta = 1, A = -2 D
    dense = _modal_pair(np.ones(2), -3.0 * np.eye(2))
    sparse = (sp.identity(2, format="csr"), -2.0 * sp.identity(2, format="csr"))
    for pair in (dense, sparse):
        states = evolve_theta(pair, np.ones(2, dtype=complex), 1.0, 0.5, 3)
        with pytest.raises(SingularStepMatrix):  # at the first next, before any state
            next(states)


@pytest.mark.parametrize("source", [False, True])
def test_dense_and_sparse_pairs_yield_every_state_alike(source):
    # one nonsymmetric pair, dense and sparse, with the loads as one array and
    # in row blocks of 3 that split the grid: steps + 1 states each, equal to
    # roundoff, and each its own array
    rng = np.random.default_rng(3)
    n, steps = 5, 7
    D = sp.diags(rng.uniform(1.0, 2.0, n)).tocsr()
    off = rng.uniform(-0.3, 0.3, (2, n - 1))
    A = sp.diags([off[0], rng.uniform(2.0, 3.0, n), off[1]], [-1, 0, 1]).tocsr()
    g0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    loads = rng.standard_normal((steps + 1, n)) if source else None
    blocks = None if loads is None else (loads[i : i + 3] for i in range(0, steps + 1, 3))
    dense = list(evolve_theta((D.toarray(), A.toarray()), g0, 0.5, 0.1, steps, loads))
    sparse = list(evolve_theta((D, A), g0, 0.5, 0.1, steps, blocks))
    assert len(dense) == len(sparse) == steps + 1
    assert np.array_equal(dense[0], g0) and np.array_equal(sparse[0], g0)
    assert np.max(np.abs(np.array(dense) - np.array(sparse))) <= 1e-12
    assert np.max(np.abs(np.diff(np.array(sparse), axis=0))) > 0.0


@st.composite
def _csr_cases(draw):
    """A CSR matrix and a vector: real or complex each, int32 or int64
    indices, rows that may be empty and column indices in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    counts = rng.integers(0, cols + 1, rows) * (rng.random(rows) < 0.8)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([rng.permutation(cols)[:c] for c in counts])
    index = draw(st.sampled_from([np.int32, np.int64]))

    def values(size, kind):
        # scaled over many decades, so that the order of each row's sum
        # shows in its rounding
        x = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-20, 21, (2, size))
        return x[0] + 1j * x[1] if kind == "c" else x[0]

    mat = sp.csr_matrix((values(indptr[-1], draw(st.sampled_from("fc"))), indices, indptr), (rows, cols))
    mat.indptr, mat.indices = indptr.astype(index), indices.astype(index)
    return mat, values(cols, draw(st.sampled_from("fc")))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_csr_cases())
def test_direct_csr_product_is_the_matmul_bit_for_bit(case):
    # the nodal stepper's product in the state dtype against scipy's own
    # mat @ g, whatever the index type, the row order or a real matrix
    # against a complex vector
    mat, g = case
    expected = mat @ g
    got = integrator._csr_product(mat, np.result_type(mat.dtype, g))(g)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def _matmul_theta_state(spec, forms, steps, theta):
    """Final state of the nodal theta recurrence stepped with rhs @ g and
    the step matrix's ``spectral.factor`` solve, as ``_step_sparse`` did
    before it called the CSR kernel itself."""
    hermitian = not forms.first_order.count_nonzero()
    A = forms.k_plus if hermitian else forms.k_plus + forms.first_order
    D = forms.mass / (spec.final_time / steps)
    lhs, rhs = D + theta * A, D - (1.0 - theta) * A
    u = integrator._initial_vector(spec, forms)
    q = [None] * steps
    if spec.source is not None:
        times = np.linspace(0.0, spec.final_time, steps + 1)
        F = np.concatenate([F for _, F in integrator._load_blocks(spec.source, forms, times)])
        q = theta * F[1:] + (1.0 - theta) * F[:-1]
    dtype = np.result_type(lhs.dtype, rhs.dtype, u, *(() if spec.source is None else (q,)))
    solve = factor(lhs.astype(dtype), "step", hermitian=hermitian)
    u = np.asarray(u, dtype=dtype)
    for qm in q:
        b = rhs @ u
        if qm is not None:
            b += qm
        u = solve(b)
    return u


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "name, resolution, phase",
    [("heat1d", 8, 1.0), ("heat2d", 4, 1.0), ("drift1d", 8, 1.0), ("forced1d", 8, 1.0),
     ("heat1d", 8, 0.6 + 0.8j)],
)
def test_nodal_state_is_the_matmul_recurrence_byte_for_byte(name, resolution, phase, theta):
    # 200 steps span four load blocks on forced1d and keep theta = 0 stable;
    # drift1d steps a complex pair, heat1d with an imaginary u0 a complex
    # state over a real pair
    spec = preset_problem(name)
    initial = spec.initial
    if phase != 1.0:
        spec = dataclasses.replace(spec, initial=lambda *x: phase * initial(*x))
    forms, _ = discretize(spec, resolution, 0)
    nodal = solve_nodal(spec, forms, 200, theta)
    expected = _matmul_theta_state(spec, forms, 200, theta)
    assert nodal.dtype == expected.dtype
    assert nodal.tobytes() == expected.tobytes()
