import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import assembly, fields, meshing, problem
from ncparab.config import _source_from_name, preset_problem
from ncparab.assembly import (
    AssembledForms,
    DofMap,
    assemble_forms,
    assemble_load,
    dual_norm,
    build_scatter_plan,
    free_nodes,
)
from ncparab.errors import ConstraintOnAllDofs, NotSPD
from ncparab.estimates import compute_constants
from ncparab.integrator import discretize
from ncparab.meshing import Mesh, build_mesh
from ncparab.problem import (
    Interval,
    ProblemSpec,
    Rectangle,
    UnitDiskPolygon,
)


def _interval_spec(**overrides):
    kwargs = dict(
        domain=Interval(0.0, 1.0),
        final_time=1.0,
        principal=fields.constant_matrix([[1.0]]),
        first_order=[],
        zero_order=fields.constant_scalar(0.0),
        boundary_b0=fields.constant_scalar(0.0),
        boundary_b1=fields.constant_scalar(1.0),
        dirichlet_selector=lambda x: np.ones(np.shape(x), dtype=bool),
    )
    kwargs.update(overrides)
    return ProblemSpec(**kwargs)


def _plain_forms(mesh):
    """The forms of a plain problem on ``mesh``."""
    return assemble_forms(mesh, _interval_spec(principal=fields.constant_matrix(np.eye(mesh.dim))))


def _load(mesh, f, times):
    """``assemble_load`` through the forms of a plain problem on ``mesh``."""
    return assemble_load(_plain_forms(mesh), f, times)


def _mesh(spec, resolution):
    return build_mesh(spec.domain, resolution, spec.dirichlet_selector)


def _without_s(mesh):
    """The same mesh with the constrained set S cleared, whose forms are
    those on all nodes."""
    return dataclasses.replace(mesh, facet_dirichlet=np.zeros_like(mesh.facet_dirichlet))


def test_1d_dirichlet_stiffness_matches_hand_assembly():
    n = 6
    h = 1.0 / n
    spec = _interval_spec()
    mesh = _mesh(spec, n)
    forms = assemble_forms(mesh, spec)
    expected = (
        np.diag(2.0 * np.ones(n - 1))
        - np.diag(np.ones(n - 2), 1)
        - np.diag(np.ones(n - 2), -1)
    ) / h
    assert np.allclose(forms.k_plus.toarray(), expected, atol=1e-12)


def test_zero_principal_gives_mass():
    # Positivity alone allows a vanishing principal part; the a00 term then
    # makes the energy product the plain mass matrix.
    spec = _interval_spec(
        principal=fields.constant_matrix([[0.0]]),
        zero_order=fields.constant_scalar(1.0),
        dirichlet_selector=None,
    )
    forms = assemble_forms(_mesh(spec, 5), spec)
    assert np.allclose(forms.k_plus.toarray(), forms.mass.toarray(), atol=1e-14)


def test_disk_preset_is_principal_plus_boundary_mass():
    spec = preset_problem("disk")
    mesh = _mesh(spec, 4)
    K = assemble_forms(mesh, spec).k_plus.toarray()
    principal_only = ProblemSpec(
        domain=spec.domain,
        final_time=1.0,
        principal=spec.principal,
        boundary_b0=fields.constant_scalar(0.0),
        boundary_b1=fields.constant_scalar(1.0),
    )
    boundary_only = ProblemSpec(
        domain=spec.domain,
        final_time=1.0,
        principal=fields.constant_matrix(np.zeros((2, 2))),
        boundary_b0=spec.boundary_b0,
        boundary_b1=spec.boundary_b1,
    )
    P = assemble_forms(mesh, principal_only).k_plus.toarray()
    B = assemble_forms(mesh, boundary_only).k_plus.toarray()
    assert np.allclose(K, P + B, atol=1e-13)
    assert np.max(np.abs(B.imag)) == 0.0


def test_mass_1d_element_pattern():
    mesh = build_mesh(Interval(0.0, 1.0), 2)
    h = 0.5
    expected = h / 6.0 * np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]])
    assert np.allclose(_plain_forms(mesh).mass.toarray(), expected, atol=1e-15)


def test_mass_partition_of_unity_1d():
    mesh = build_mesh(Interval(0.0, 1.0), 7)
    M = _plain_forms(mesh).mass.toarray()
    # row sums integrate the hat functions; total is the domain measure
    row_sums = M.sum(axis=1)
    h = 1.0 / 7
    assert row_sums[0] == pytest.approx(h / 2)
    assert np.allclose(row_sums[1:-1], h)
    assert M.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_total_rectangle_area_two():
    mesh = build_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 5)
    assert _plain_forms(mesh).mass.sum() == pytest.approx(2.0, abs=1e-12)


def test_first_order_zero_coefficients():
    spec = _interval_spec(dirichlet_selector=None)
    C = assemble_forms(_mesh(spec, 4), spec).first_order
    assert C.nnz == 0 or np.max(np.abs(C.toarray())) == 0.0


def test_first_order_constant_delta_a0_is_scaled_mass():
    # Re a0 < 0, so the whole of a0 is the remainder delta_a0
    c = -0.7 - 0.3j
    spec = _interval_spec(zero_order=fields.constant_scalar(c), dirichlet_selector=None)
    forms = assemble_forms(_mesh(spec, 4), spec)
    C, M = forms.first_order.toarray(), forms.mass.toarray()
    assert np.allclose(C, c * M, atol=1e-14)


magnitudes = st.floats(min_value=0.1, max_value=50.0)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(magnitudes, st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1]),
    st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v)),
    st.integers(2, 30),
    st.booleans(),
)
def test_zero_order_split_recombines_in_the_forms(re_a0, im_a0, resolution, pinned):
    # the a00 that K+ takes and the remainder that C takes add up to a0 M on
    # the free block, so neither half of a constant a0 is dropped
    a0 = complex(re_a0, im_a0)
    selector = (lambda x: np.ones(np.shape(x), dtype=bool)) if pinned else None
    spec = _interval_spec(boundary_b0=fields.constant_scalar(1.0), dirichlet_selector=selector)
    mesh = _mesh(spec, resolution)
    without = assemble_forms(mesh, spec)
    spec.zero_order = fields.constant_scalar(a0)
    forms = assemble_forms(mesh, spec)
    K0, M = without.k_plus.toarray(), forms.mass.toarray()
    recombined = (forms.k_plus.toarray() - K0) + forms.first_order.toarray()
    scale = np.max(np.abs(K0)) + abs(a0) * np.max(np.abs(M))
    assert np.max(np.abs(recombined - a0 * M)) <= 1e-13 * scale


def test_convection_matches_hand_assembly():
    # P1 convection on 3 elements: element block [[-1/2, 1/2], [-1/2, 1/2]].
    spec = _interval_spec(first_order=[fields.constant_scalar(1.0)], dirichlet_selector=None)
    C = assemble_forms(_mesh(spec, 3), spec).first_order.toarray()
    block = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    expected = np.zeros((4, 4), dtype=complex)
    for e in range(3):
        expected[e : e + 2, e : e + 2] += block
    assert np.allclose(C, expected, atol=1e-14)
    # column sums reduce to the boundary evaluations of each hat function
    assert np.allclose(C.sum(axis=0), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_load_zero_source():
    mesh = build_mesh(Interval(0.0, 1.0), 4)
    assert np.all(_load(mesh, None, [0.0]) == 0.0)
    f = lambda x, t: np.zeros(np.shape(x), dtype=complex)
    F = _load(mesh, f, [0.0, 1.0])
    assert F.shape == (2, 5) and np.allclose(F, 0.0)


def test_load_constant_source_interior():
    n = 5
    sel = lambda x: np.ones(np.shape(x), dtype=bool)
    mesh = build_mesh(Interval(0.0, 1.0), n, sel)
    f = lambda x, t: np.ones(np.shape(x), dtype=complex)
    F = _load(mesh, f, [0.0])
    assert F.shape == (1, n - 1)
    assert np.allclose(F, 1.0 / n, atol=1e-14)


def test_load_of_basis_function_is_mass_column():
    n = 6
    mesh = build_mesh(Interval(0.0, 1.0), n)
    M = _plain_forms(mesh).mass.toarray()
    nodes = mesh.nodes[:, 0]
    k = 2
    hat = np.zeros(n + 1)
    hat[k] = 1.0

    def f(x, t):
        return np.interp(x, nodes, hat).astype(complex)

    (F,) = _load(mesh, f, [0.0])
    assert np.allclose(F, M[:, k], atol=1e-14)


# (domain, lowest and highest resolution): from 3 to about 400 nodes
LOAD_DOMAINS = {
    "interval": (Interval(-0.5, 2.0), 2, 400),
    "rectangle": (Rectangle(0.0, 1.0, -1.0, 0.5), 2, 19),
    "disk": (UnitDiskPolygon(16), 2, 24),
}


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(LOAD_DOMAINS)).flatmap(
        lambda name: st.tuples(st.just(name), st.integers(*LOAD_DOMAINS[name][1:]))
    ),
    st.booleans(),
    st.integers(1, 150),
    st.integers(0, 2**32 - 1),
)
def test_blocked_load_is_exact_for_affine_sources(case, constrained, n_times, seed):
    # f(x, t) = c(t) (a0 + a.x): P1 quadrature is exact for f times a hat
    # function, so each row is c(t) M_full f_nodes on the free nodes
    name, resolution = case
    domain = LOAD_DOMAINS[name][0]
    rng = np.random.default_rng(seed)
    a0 = complex(*rng.standard_normal(2))
    a = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)

    def c(t):
        return np.exp(3j * t) * (1.0 + t * t)

    def f(*args):
        *x, t = args
        return c(t) * (a0 + sum(a_l * x_l for a_l, x_l in zip(a, x)))

    selector = (lambda *x: np.ones(np.shape(x[0]), dtype=bool)) if constrained else None
    spec = _interval_spec(
        domain=domain,
        principal=fields.constant_matrix(np.eye(domain.dim)),
        zero_order=fields.constant_scalar(1.0),
        dirichlet_selector=selector,
    )
    mesh = build_mesh(domain, resolution, selector)
    forms = assemble_forms(mesh, spec)
    times = np.sort(rng.uniform(0.0, 2.0, n_times))

    F = assemble_load(forms, f, times)
    assert F.shape == (n_times, forms.N)
    M = assemble_forms(_without_s(mesh), spec).mass
    nodal = (M @ (a0 + mesh.nodes @ a))[forms.dofmap.free]
    expected = c(times)[:, None] * nodal[None, :]
    assert np.max(np.abs(F - expected)) <= 1e-12 * np.max(np.abs(expected))

    blocked = dual_norm(F, forms)
    one_by_one = [np.sqrt(np.real(np.vdot(row, forms.k_plus_solve(row)))) for row in F]
    assert np.allclose(blocked, one_by_one, rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(LOAD_DOMAINS)).flatmap(
        lambda name: st.tuples(st.just(name), st.integers(*LOAD_DOMAINS[name][1:]))
    ),
    st.sampled_from(["sine_cos", "forcing", "affine"]),
    st.integers(1, 150),
    st.integers(0, 2**32 - 1),
)
def test_blocked_load_equals_one_time_at_a_time(case, source, n_times, seed):
    # the block's one source call gives bit for bit the loads of one call
    # per time; the 1D sources are lifted to 2D by ignoring y
    name, resolution = case
    domain = LOAD_DOMAINS[name][0]
    rng = np.random.default_rng(seed)
    if source == "affine":
        a0 = complex(*rng.standard_normal(2))
        a = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)

        def f(*args):
            *x, t = args
            return np.exp(3j * t) * (1.0 + t * t) * (a0 + sum(a_l * x_l for a_l, x_l in zip(a, x)))

    else:
        if source == "sine_cos":
            g = _source_from_name("sine_cos", 1)
        else:
            g = preset_problem("forced1d").source

        def f(*args):
            return g(args[0], args[-1])

    forms = assemble_forms(
        build_mesh(domain, resolution),
        _interval_spec(principal=fields.constant_matrix(np.eye(domain.dim))),
    )
    times = np.sort(rng.uniform(0.0, 2.0, n_times))
    blocked = assemble_load(forms, f, times)
    one_by_one = np.concatenate([assemble_load(forms, f, [t]) for t in times])
    assert blocked.shape == (n_times, forms.N)
    assert np.array_equal(blocked, one_by_one)


def test_apply_constraints_identity_when_s_empty():
    mesh = build_mesh(Interval(0.0, 1.0), 4)
    reduced = build_scatter_plan(mesh, free_nodes(mesh)).scatter(assembly._mass_data(mesh))
    h = 0.25
    expected = h / 6.0 * (np.diag([2.0, 4.0, 4.0, 4.0, 2.0]) + np.eye(5, k=1) + np.eye(5, k=-1))
    assert reduced.shape == (5, 5)
    assert np.array_equal(reduced.toarray(), expected)


def test_apply_constraints_removes_endpoints():
    sel = lambda x: np.ones(np.shape(x), dtype=bool)
    mesh = build_mesh(Interval(0.0, 1.0), 6, sel)
    M = _plain_forms(_without_s(mesh)).mass
    plan = build_scatter_plan(mesh, free_nodes(mesh))
    reduced = plan.scatter(assembly._mass_data(mesh))
    assert reduced.shape == (5, 5)
    assert np.array_equal(reduced.toarray(), M.toarray()[1:-1, 1:-1])
    # the entries coupling a free node to an endpoint are dropped
    assert (plan.element_slots[[0, -1]] == -1).sum() == 6
    assert (plan.element_slots[1:-1] >= 0).all()
    dofmap = DofMap(total=7, free=free_nodes(mesh))
    vec = np.arange(7, dtype=float)
    assert np.array_equal(dofmap.reduce(vec), vec[1:-1])


def test_reduce_then_expand_is_identity_on_free_dofs():
    spec = _interval_spec()
    mesh = _mesh(spec, 5)
    forms = assemble_forms(mesh, spec)
    v = np.arange(forms.N, dtype=complex) + 1.0j
    assert np.allclose(forms.dofmap.reduce(forms.dofmap.expand(v)), v)
    full = forms.dofmap.expand(v)
    assert np.all(full[mesh.dirichlet_nodes()] == 0.0)


def test_constraining_everything_raises():
    nodes = np.array([[0.0], [0.5], [1.0]])
    elements = np.array([[0, 1], [1, 2]])
    facets = np.array([[0], [1], [2]])
    mesh = Mesh(
        1,
        nodes,
        elements,
        facets,
        np.ones(3),
        np.ones(3, dtype=bool),
    )
    spec = _interval_spec(dirichlet_selector=None)
    with pytest.raises(ConstraintOnAllDofs):
        assemble_forms(mesh, spec)


def test_mass_check_refuses_an_element_of_zero_area():
    # a unit square of two triangles and a third, flat one, (0,0) (1,1) (2,2),
    # which alone holds node 4, so that node's row of M is zero
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 2.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3], [0, 2, 4]])
    facets = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    mesh = Mesh(2, nodes, elements, facets, np.ones(4), np.zeros(4, dtype=bool))
    # the flat element's gradients divide by its zero area
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NotSPD, match="measure"):
        assemble_forms(mesh, preset_problem("robin_rect"))


def test_mass_check_refuses_a_free_node_in_no_element():
    # node 3 of the interval is free and in no element: its row of M is zero
    nodes = np.array([[0.0], [0.5], [1.0], [2.0]])
    elements = np.array([[0, 1], [1, 2]])
    facets = np.array([[0], [2]])
    mesh = Mesh(1, nodes, elements, facets, np.ones(2), np.zeros(2, dtype=bool))
    with pytest.raises(NotSPD, match="no element"):
        assemble_forms(mesh, _interval_spec(dirichlet_selector=None))
    # constrained, the node leaves the mass matrix and the check passes
    mesh = Mesh(1, nodes, elements, np.array([[0], [2], [3]]), np.ones(3), np.array([0, 0, 1], bool))
    assert assemble_forms(mesh, _interval_spec(dirichlet_selector=None)).N == 3


def _forms_with(K):
    """Forms holding only a sparse complex K+, as the disk assembles it,
    enough for ``dual_norm``."""
    return AssembledForms(
        mesh=None, dofmap=None, k_plus=sp.csr_matrix(K, dtype=complex), mass=None, first_order=None
    )


def test_dual_norm_trivial_cases():
    assert np.array_equal(dual_norm(np.zeros(4), _forms_with(np.eye(4))), [0.0])
    F = np.array([[3.0, 4.0j, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0j]])
    assert np.allclose(dual_norm(F, _forms_with(np.eye(3))), [5.0, 0.0, 2.0], rtol=1e-15)


def test_dual_norm_matches_monte_carlo_sup():
    rng = np.random.default_rng(7)
    n = 3
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = B.conj().T @ B + n * np.eye(n)
    F = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    (exact,) = dual_norm(F, _forms_with(K))
    exact_sq = exact**2
    V = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
    num = np.abs(V.conj() @ F) ** 2
    den = np.real(np.einsum("vi,ij,vj->v", V.conj(), K, V))
    mc = float(np.max(num / den))
    assert mc <= exact_sq * (1.0 + 1e-12)
    assert mc >= exact_sq * 0.95


def test_dual_norm_real_k_plus():
    # a K+ stored real is factored real and takes complex loads through that
    # factor, with the same results as a complex factor of the same matrix
    forms = AssembledForms(None, None, sp.csr_matrix(np.eye(4)), None, None)
    assert np.allclose(dual_norm(np.array([3.0, 4.0j, 0.0, 0.0]), forms), [5.0], rtol=1e-15)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 6))
    K = B @ B.T + 6.0 * np.eye(6)
    real = AssembledForms(None, None, sp.csr_matrix(K), None, None)
    cplx = _forms_with(K)
    F = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    for rhs in (F.T, F[0], F[0].real, F.T.real):
        x = real.k_plus_solve(rhs)
        assert x.shape == rhs.shape and x.dtype == rhs.dtype
        assert np.allclose(x, cplx.k_plus_solve(rhs), rtol=1e-13, atol=0.0)
    assert np.allclose(dual_norm(F, real), dual_norm(F, cplx), rtol=1e-13, atol=0.0)


def test_dual_norm_singular_raises():
    for K in (np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]])):
        with pytest.raises(NotSPD):
            dual_norm(np.ones(2), _forms_with(K))


def test_dual_norm_of_a_copy_factors_its_own_k_plus():
    # a copy with another K+ must not reuse the factor of the original
    spec = preset_problem("forced1d")
    forms, _ = discretize(spec, 10, 0)
    F = assemble_load(forms, spec.source, [0.1])
    before = dual_norm(F, forms)
    doubled = dataclasses.replace(forms, k_plus=2.0 * forms.k_plus)
    assert np.allclose(dual_norm(F, doubled), before / np.sqrt(2.0), rtol=1e-12, atol=0.0)
    assert np.array_equal(dual_norm(F, forms), before)


def test_k_plus_hermitian_and_positive_definite(disk_pipeline):
    _, _, forms, _, _ = disk_pipeline
    K = forms.k_plus.toarray()
    assert np.max(np.abs(K - K.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(K)) > 0.0


def test_discrete_cauchy_bound_random_vectors():
    spec = _interval_spec(
        first_order=[fields.constant_scalar(0.5)],
        zero_order=fields.constant_scalar(-0.2j),
    )
    mesh = _mesh(spec, 20)
    forms = assemble_forms(mesh, spec)
    c = 0.5 + 0.2  # c1 + c2 for these constants
    rng = np.random.default_rng(11)
    K, M, C = forms.k_plus.toarray(), forms.mass.toarray(), forms.first_order.toarray()
    for _ in range(200):
        u = rng.standard_normal(forms.N) + 1j * rng.standard_normal(forms.N)
        v = rng.standard_normal(forms.N) + 1j * rng.standard_normal(forms.N)
        lhs = abs(np.vdot(v, C @ u))
        rhs = np.sqrt(np.real(np.vdot(u, K @ u)) + np.real(np.vdot(u, M @ u)))
        rhs *= np.sqrt(np.real(np.vdot(v, K @ v)) + np.real(np.vdot(v, M @ v)))
        assert lhs <= c * rhs * (1.0 + 1e-9)


def test_pencil_eigenvalues_grow_with_constraints():
    # Nested Dirichlet sets shrink the trial space, so pencil eigenvalues
    # cannot decrease (min-max). a00 = 1 keeps the form definite without S.
    selectors = [None, lambda x: np.isclose(x, 0.0), lambda x: np.ones(np.shape(x), bool)]
    spectra = []
    for sel in selectors:
        spec = _interval_spec(zero_order=fields.constant_scalar(1.0), dirichlet_selector=sel)
        mesh = _mesh(spec, 12)
        forms = assemble_forms(mesh, spec)
        vals = sla.eigh(
            forms.k_plus.toarray(), forms.mass.toarray(), eigvals_only=True
        )
        spectra.append(np.sort(vals))
    for fewer, more in zip(spectra[:-1], spectra[1:]):
        shared = min(len(fewer), len(more))
        assert np.all(more[:shared] >= fewer[:shared] - 1e-10)


def test_coercive_case_dominates_h1_form():
    # With identity principal part and a00 = 1 the energy form dominates
    # stiffness + mass; boundary weight only adds a PSD term.
    spec = _interval_spec(
        zero_order=fields.constant_scalar(1.0),
        boundary_b0=fields.constant_scalar(1.0),
        boundary_b1=fields.constant_scalar(1.0),
        dirichlet_selector=None,
    )
    mesh = _mesh(spec, 10)
    forms = assemble_forms(mesh, spec)
    K, M = forms.k_plus.toarray(), forms.mass.toarray()
    stiffness_only = _interval_spec(dirichlet_selector=None)
    S = assemble_forms(mesh, stiffness_only).k_plus.toarray()
    assert np.min(np.linalg.eigvalsh(K - (S + M))) >= -1e-12


def test_l2_embedding_constant_finite():
    for name, res in (("disk", 3), (None, 10)):
        if name is None:
            spec = _interval_spec(dirichlet_selector=lambda x: np.ones(np.shape(x), bool))
        else:
            spec = preset_problem(name)
        mesh = _mesh(spec, res)
        forms = assemble_forms(mesh, spec)
        vals = sla.eigh(forms.mass.toarray(), forms.k_plus.toarray(), eigvals_only=True)
        c_sq = float(np.max(vals))
        assert np.isfinite(c_sq) and c_sq > 0.0


def test_free_nodes_complement_constrained():
    sel = lambda x: np.isclose(x, 1.0)
    mesh = build_mesh(Interval(0.0, 1.0), 5, sel)
    assert list(free_nodes(mesh)) == [0, 1, 2, 3, 4]
    assert list(mesh.dirichlet_nodes()) == [5]


# (domain, lowest and highest resolution) for the dtype property
DTYPE_DOMAINS = {
    "interval": (Interval(0.0, 1.0), 2, 30),
    "rectangle": (Rectangle(0.0, 1.0, 0.0, 2.0), 2, 8),
    "disk": (UnitDiskPolygon(12), 2, 4),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(DTYPE_DOMAINS)).flatmap(
        lambda name: st.tuples(st.just(name), st.integers(*DTYPE_DOMAINS[name][1:]))
    ),
    st.sampled_from(["real", "complex", "paper_disk"]),
    st.sampled_from(["none", "real", "varying", "complex"]),
    st.sampled_from(["real", "complex"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_forms_are_real_exactly_when_their_complex_assembly_is(
    case, principal, drift, a0, constrained, seed
):
    name, resolution = case
    domain = DTYPE_DOMAINS[name][0]
    dim = domain.dim
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    if principal == "complex":
        B = B + 1j * rng.standard_normal((dim, dim))
    A = B @ B.conj().T + 0.1 * np.eye(dim)
    if principal == "paper_disk" and dim == 2:
        A = fields.DEGENERATE_DISK_MATRIX

    def value(kind):
        if kind == "complex":
            return complex(*rng.standard_normal(2))
        return float(rng.standard_normal())

    if drift == "none":
        first_order = []
    elif drift == "varying":
        first_order = [lambda *x, a=value("real"): a * (1.0 + x[0] ** 2) for _ in range(dim)]
    else:
        first_order = [fields.constant_scalar(value(drift)) for _ in range(dim)]
    selector = (lambda *x: np.isclose(x[0], x[0].min())) if constrained else None
    spec = _interval_spec(
        domain=domain,
        principal=fields.constant_matrix(A),
        first_order=first_order,
        zero_order=fields.constant_scalar(value(a0)),
        boundary_b0=fields.constant_scalar(1.0),
        dirichlet_selector=selector,
    )
    mesh = build_mesh(domain, resolution, selector)
    # the forms on all nodes: those of the same mesh with S cleared
    with mock.patch.object(assembly, "real_if_exact", lambda a: a):
        reference = assemble_forms(_without_s(mesh), spec)
    full = assemble_forms(_without_s(mesh), spec)
    forms = assemble_forms(mesh, spec)
    for got, reduced, ref in (
        (full.k_plus, forms.k_plus, reference.k_plus),
        (full.first_order, forms.first_order, reference.first_order),
    ):
        # the empty lower-order form (no drift, a0 >= 0) has no complex assembly
        assert ref.dtype == np.complex128 or ref.nnz == 0
        real = not np.any(ref.data.imag)
        assert got.dtype == reduced.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(got.toarray(), ref.toarray().real if real else ref.toarray())
    assert full.mass.dtype == forms.mass.dtype == np.float64
    # a complex Hermitian principal part (the paper's disk matrix among them)
    # and complex lower-order coefficients keep their forms complex
    if dim == 2 and principal != "real":
        assert forms.k_plus.dtype == np.complex128
    if drift == "complex" or a0 == "complex":
        assert forms.first_order.dtype == np.complex128


# (domain, principal presets, lowest and highest resolution) for the
# invariants of assembly
FORM_DOMAINS = {
    "interval": (Interval(0.0, 1.0), ("identity", "diag(2.5)"), 2, 12),
    "rectangle": (Rectangle(0.0, 1.0, 0.0, 2.0), ("identity", "paper_disk", "diag(3,0.5)"), 2, 5),
    "disk": (UnitDiskPolygon(10), ("identity", "paper_disk", "diag(0.5,2)"), 2, 3),
}
# constant and coordinate-dependent versions of a0 and of a drift
# coefficient; None leaves the coefficient out. The a0 are all of a00 (0.7),
# all of the remainder (-0.3 + 0.4j), and both, of either sign of Re a0.
FORM_COEFFICIENTS = {
    "a0": (
        None,
        fields.constant_scalar(0.7),
        fields.constant_scalar(-0.3 + 0.4j),
        lambda *x: np.sin(4.0 * x[0]) + (0.5 - 1.0j) * x[-1],
    ),
    "drift": (None, fields.constant_scalar(0.5 - 0.2j), lambda *x: 0.3 + np.sin(x[0])),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FORM_DOMAINS)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.sampled_from(FORM_DOMAINS[name][1]),
            st.integers(*FORM_DOMAINS[name][2:]),
        )
    ),
    st.tuples(*(st.sampled_from(range(len(v))) for v in FORM_COEFFICIENTS.values())),
    st.booleans(),
)
def test_assembly_invariants(case, kinds, constrained):
    name, principal, resolution = case
    domain = FORM_DOMAINS[name][0]
    a0, drift = (FORM_COEFFICIENTS[key][i] for key, i in zip(FORM_COEFFICIENTS, kinds))
    selector = (lambda *x: x[0] < 0.2) if constrained else None
    spec = _interval_spec(
        domain=domain,
        principal=fields.matrix_field_from_name(principal, domain.dim),
        first_order=[] if drift is None else [drift] * domain.dim,
        zero_order=a0,
        boundary_b0=fields.constant_scalar(0.5),
        dirichlet_selector=selector,
    )
    mesh = build_mesh(domain, resolution, selector)
    # the forms on all nodes: those of the same mesh with S cleared
    full = assemble_forms(_without_s(mesh), spec)
    K, M, C = full.k_plus, full.mass, full.first_order

    # K+ is Hermitian (exactly, by construction) and positive semidefinite
    dense = K.toarray()
    assert np.array_equal(dense, dense.conj().T)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] >= -1e-12 * eigs[-1]

    # constraint elimination keeps exactly the full forms' entries between
    # free nodes, P^T A P with P the injection of the free nodes
    forms = assemble_forms(mesh, spec)
    free = free_nodes(mesh)
    assert not np.isin(free, mesh.dirichlet_nodes()).any()
    assert len(free) + len(mesh.dirichlet_nodes()) == mesh.num_nodes
    shape = (mesh.num_nodes, len(free))
    P = sp.csr_matrix((np.ones(len(free)), (free, np.arange(len(free)))), shape)
    for reduced, full in ((forms.k_plus, K), (forms.mass, M), (forms.first_order, C)):
        assert reduced.dtype == full.dtype
        assert np.array_equal(reduced.toarray(), (P.T @ full @ P).toarray())

    # the constant principal matrix, factored once through its value, gives
    # the same bits as the per-point factor of a field without a value
    assert spec.principal.value is not None
    per_point = ProblemSpec(**{**spec.__dict__, "principal": lambda *x: spec.principal(*x)})
    per_point_forms = assemble_forms(_without_s(mesh), per_point)
    for constant, general in ((K, per_point_forms.k_plus), (C, per_point_forms.first_order)):
        assert constant.dtype == general.dtype
        assert np.array_equal(constant.toarray(), general.toarray())


def test_constant_principal_factored_once_and_geometry_built_once(monkeypatch):
    counts = {"sqrt": 0, "quadrature": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    sqrt = problem.hermitian_sqrt_psd
    monkeypatch.setattr(problem, "hermitian_sqrt_psd", counting("sqrt", sqrt))
    monkeypatch.setattr(
        meshing, "build_quadrature", counting("quadrature", meshing.build_quadrature)
    )
    spec = preset_problem("disk")
    # a drift makes the lower-order form read the factor too
    spec.first_order = [fields.constant_scalar(0.3), fields.constant_scalar(0.1j)]
    forms, basis = discretize(spec, 4, 5)
    compute_constants(spec, forms.mesh)
    assemble_load(forms, lambda x, y, t: x * t, [0.0, 0.5])
    assert counts == {"sqrt": 1, "quadrature": 1}
    counts.update(sqrt=0, quadrature=0)
    principal = spec.principal
    spec.principal = lambda *x: principal(*x)
    discretize(spec, 4, 0)
    # a field without a value is factored once at every quadrature point,
    # for both forms
    assert counts == {"sqrt": 3, "quadrature": 1}


def test_assemble_forms_builds_one_scatter_plan(monkeypatch):
    calls = []
    build = assembly.build_scatter_plan
    monkeypatch.setattr(
        assembly, "build_scatter_plan", lambda mesh, keep: calls.append(len(keep)) or build(mesh, keep)
    )
    spec = preset_problem("disk")
    spec.dirichlet_selector = lambda x, y: y > 0.5
    spec.first_order = [fields.constant_scalar(0.3), fields.constant_scalar(0.1j)]
    mesh = _mesh(spec, 3)
    forms = assemble_forms(mesh, spec)
    # K+, M and C share the plan of the free block
    assert calls == [forms.N]
    assert forms.first_order.nnz > 0


def test_constant_scalar_carries_its_value():
    for v in (0.0, -2.5, 1.0 - 3.0j):
        assert fields.constant_scalar(v).value == v


def test_lower_order_form_is_empty_without_drift_and_delta_a0():
    for name in ("heat1d", "zero1d", "forced1d", "heat2d", "disk", "robin_rect"):
        forms, _ = discretize(preset_problem(name), 4, 0)
        assert forms.first_order.nnz == 0, name
        assert forms.first_order.shape == (forms.N, forms.N), name
    # drift1d and growth1d keep their forms, those of the coefficients
    # given as coordinate functions
    for name in ("drift1d", "growth1d"):
        spec = preset_problem(name)
        forms, _ = discretize(spec, 8, 0)
        general = ProblemSpec(
            **{
                **spec.__dict__,
                "first_order": [lambda x, a=a: a(x) for a in spec.first_order],
                "zero_order": lambda x: spec.zero_order(x),
            }
        )
        C = assemble_forms(forms.mesh, general).first_order
        assert forms.first_order.nnz > 0 and forms.first_order.dtype == C.dtype
        assert np.array_equal(forms.first_order.toarray(), C.toarray())
    # a constant a0 >= 0 has no remainder, so its form is empty too; a
    # coordinate-dependent a0 whose remainder evaluates to 0 is still assembled
    spec = _interval_spec(zero_order=fields.constant_scalar(2.0))
    assert assemble_forms(_mesh(spec, 6), spec).first_order.nnz == 0
    spec = _interval_spec(zero_order=lambda x: np.full(np.shape(x), 2.0))
    C = assemble_forms(_mesh(spec, 6), spec).first_order
    assert C.nnz == 13 and not np.any(C.data)
