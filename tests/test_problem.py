import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import fields
from ncparab.integrator import discretize
from ncparab.meshing import build_mesh
from ncparab.errors import (
    ConfigError,
    DivisionByZeroB1,
    NonHermitian,
    NotElliptic,
    NotPositiveSemidefinite,
)
from ncparab.problem import (
    PSD_TOL,
    Interval,
    ProblemSpec,
    Rectangle,
    UnitDiskPolygon,
    factorize_principal,
    hermitian_sqrt_psd,
    robin_weight,
    split_zero_order,
    validate_coefficients,
)

DISK_MATRIX = np.array([[1.0, 1.0j], [-1.0j, 1.0]])


def _spec_with_principal(mat, domain=None):
    mat = np.asarray(mat, dtype=complex)
    domain = domain or (Interval(0.0, 1.0) if mat.shape[0] == 1 else UnitDiskPolygon(16))
    return ProblemSpec(
        domain=domain,
        final_time=1.0,
        principal=fields.constant_matrix(mat),
        zero_order=fields.constant_scalar(0.0),
        boundary_b0=fields.constant_scalar(0.0),
        boundary_b1=fields.constant_scalar(1.0),
    )


def _validate(spec):
    return validate_coefficients(spec, build_mesh(spec.domain, 4))


def test_domain_dim_is_fixed_by_its_class():
    domains = (Interval(0.0, 1.0), Rectangle(0.0, 1.0, 0.0, 1.0), UnitDiskPolygon(8))
    assert [domain.dim for domain in domains] == [1, 2, 2]
    for make in (lambda: Interval(0.0, 1.0, 2), lambda: UnitDiskPolygon(8, 1)):
        with pytest.raises(TypeError):
            make()


def test_validate_identity():
    report = _validate(_spec_with_principal(np.eye(2)))
    assert report.ellipticity_m == pytest.approx(1.0)
    assert report.min_complex_eigenvalue == pytest.approx(1.0)
    assert report.hermitian_residual == 0.0
    assert report.coercive


def test_validate_degenerate_disk_matrix():
    # Real quadratic form is |xi|^2 (imaginary entries cancel for real xi)
    # while the complex Hermitian form has eigenvalues 0 and 2.
    report = _validate(_spec_with_principal(DISK_MATRIX))
    assert report.ellipticity_m == pytest.approx(1.0, abs=1e-10)
    assert report.min_complex_eigenvalue == pytest.approx(0.0, abs=1e-10)
    assert not report.coercive  # validation passes although coercivity fails


def test_validate_indefinite_matrix_raises():
    # Eigenvalues of [[1, 2i], [-2i, 1]] are 1 -+ 2 = -1, 3 in closed form.
    mat = np.array([[1.0, 2.0j], [-2.0j, 1.0]])
    assert sorted(np.linalg.eigvalsh(mat)) == pytest.approx([-1.0, 3.0])
    with pytest.raises(NotPositiveSemidefinite):
        _validate(_spec_with_principal(mat))


def test_validate_non_hermitian_raises():
    with pytest.raises(NonHermitian):
        _validate(_spec_with_principal([[1.0, 1.0], [0.0, 1.0]]))


def test_validate_not_elliptic_raises():
    with pytest.raises(NotElliptic):
        _validate(_spec_with_principal([[0.0]]))


def test_split_already_nonnegative():
    a00, da0 = split_zero_order(np.array([1.0]))
    assert a00[0] == 1.0
    assert da0[0] == 0.0
    assert robin_weight(np.array([1.0]), np.array([1.0]))[0] == 1.0


def test_split_negative_real_part():
    a00, da0 = split_zero_order(np.array([-2.0 + 1.0j]))
    assert a00[0] == 0.0
    assert da0[0] == -2.0 + 1.0j


def test_split_mixed():
    a00, da0 = split_zero_order(np.array([3.0 - 1.0j]))
    assert a00[0] == 3.0
    assert da0[0] == -1.0j
    assert a00[0] + da0[0] == 3.0 - 1.0j


def test_split_b1_zero_raises():
    with pytest.raises(DivisionByZeroB1):
        robin_weight(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize(
    "b0, b1, quantity",
    [
        (1.0 + 5.0j, 1.0, "b0/b1"),
        (-3.0, 1.0, "b0/b1"),
        (1.0, -2.0, "b0/b1"),
        (1.0, 1.0 + 1.0j, "b1"),
    ],
)
def test_robin_weight_refuses_what_no_form_represents(b0, b1, quantity):
    # a complex or negative b0/b1 and a complex b1 would otherwise be
    # dropped in part; each is a config error naming the quantity
    with pytest.raises(ConfigError, match=f"^{quantity} = "):
        robin_weight(np.array([b0, 1.0]), np.array([b1, 1.0]))


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1e6, **finite),
    st.floats(min_value=0.0, max_value=1e6, **finite),
    st.floats(min_value=0.1, max_value=10.0),
    st.booleans(),
)
def test_split_recombines(a0_val, ratio, b1_mag, negative_b1):
    a00, da0 = split_zero_order(np.array([a0_val]))
    assert a00[0] + da0[0] == a0_val
    assert a00[0] >= 0.0
    b1_val = -b1_mag if negative_b1 else b1_mag
    weight = robin_weight(np.array([ratio * b1_val]), np.array([b1_val]))[0]
    assert weight >= 0.0
    assert weight == pytest.approx(ratio, rel=1e-15, abs=1e-300)


def _factor_at(spec, *point):
    """The factor field of ``spec`` and the principal matrix at one point."""
    coords = tuple(np.array([c]) for c in point)
    return factorize_principal(spec)(*coords)[0], spec.principal(*coords)[0]


def test_factorize_identity():
    D, A = _factor_at(_spec_with_principal(np.eye(2)), 0.0, 0.0)
    assert np.allclose(D, np.eye(2))
    assert np.allclose(D.conj().T @ D, A, rtol=0.0, atol=1e-12)


def test_factorize_disk_matrix():
    # The disk matrix A satisfies A^2 = 2A, so its PSD square root is A/sqrt(2).
    assert np.allclose(DISK_MATRIX @ DISK_MATRIX, 2.0 * DISK_MATRIX)
    D, A = _factor_at(_spec_with_principal(DISK_MATRIX), 0.1, 0.2)
    assert np.allclose(D, DISK_MATRIX / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(D.conj().T @ D, A, rtol=0.0, atol=1e-12)


def test_factorize_diagonal_psd():
    D, A = _factor_at(_spec_with_principal(np.diag([4.0, 0.0])), 0.0, 0.0)
    assert np.allclose(D, np.diag([2.0, 0.0]))
    assert np.allclose(D.conj().T @ D, A, rtol=0.0, atol=1e-12)


def test_factorize_indefinite_raises():
    with pytest.raises(NotPositiveSemidefinite):
        hermitian_sqrt_psd(np.array([[1.0, 2.0j], [-2.0j, 1.0]]))


def test_sqrt_clips_tiny_negative_eigenvalues():
    mat = np.diag([1.0, -PSD_TOL / 2.0]).astype(complex)
    D = hermitian_sqrt_psd(mat)
    assert np.allclose(D, np.diag([1.0, 0.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_quadratic_form_matches_factorization(seed):
    # For random Hermitian PSD matrices and random complex gradients the
    # sesquilinear form through A equals the one through D* D.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = B.conj().T @ B
    D = hermitian_sqrt_psd(A)
    gu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    gv = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = np.vdot(gv, A @ gu)
    rhs = np.vdot(D @ gv, D @ gu)
    tol = PSD_TOL * max(1.0, np.linalg.norm(gu) * np.linalg.norm(gv)) * np.linalg.norm(A)
    assert abs(lhs - rhs) <= tol


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hermitian_form_real_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    pts = build_mesh(UnitDiskPolygon(16), 5).quadrature.points
    A = fields.constant_matrix(DISK_MATRIX)(*fields.axes(pts))
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vals = np.einsum("i,...ij,j->...", w.conj(), A, w)
    assert np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))
    assert np.min(vals.real) >= -PSD_TOL


def test_validate_reads_the_quadrature_points():
    # a principal matrix that is not elliptic on a band narrower than the
    # element size shows at the Gauss points of the elements it covers,
    # where the forms read it
    spec = _spec_with_principal(np.eye(1))
    spec.principal = lambda x: np.where(np.abs(x - 0.31) < 0.006, -1.0, 1.0)[..., None, None]
    mesh = build_mesh(spec.domain, 400)
    assert np.any(np.abs(mesh.quadrature.points - 0.31) < 0.006)
    with pytest.raises(NotElliptic):
        validate_coefficients(spec, mesh)


def test_validate_checks_a_constant_matrix_once():
    principal = fields.constant_matrix(DISK_MATRIX)

    def value_only(*coords):
        raise AssertionError("a constant matrix is checked through its value")

    value_only.value = principal.value
    report = _validate(_spec_with_principal(DISK_MATRIX))
    spec = _spec_with_principal(DISK_MATRIX)
    spec.principal = value_only
    assert _validate(spec) == report


def test_validate_robin_ratio_only_off_the_constrained_set():
    # b1 vanishes on the left end only: an error while that end is free,
    # fine where it is pinned
    spec = _spec_with_principal(np.eye(1))
    spec.boundary_b1 = lambda x: np.where(x < 0.5, 0.0, 1.0)
    with pytest.raises(DivisionByZeroB1):
        discretize(spec, 4, 2)
    spec.dirichlet_selector = lambda x: x < 0.5
    forms, basis = discretize(spec, 4, 2)
    assert forms.N == 4 and basis.size == 2
