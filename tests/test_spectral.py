import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import spectral
from ncparab.errors import NoConvergence, NotSPD, SingularStepMatrix
from ncparab.presets import PRESETS
from ncparab.spectral import (
    EIG_TOL,
    ORTHO_TOL,
    SPARSE_SHARE,
    EigenBasis,
    factor,
    generalized_eigenbasis,
    verify_orthogonality,
)
from tests.conftest import build_pipeline


def test_hermitian_eigen_diagonal():
    basis = generalized_eigenbasis(np.diag([3.0, 1.0]).astype(complex), np.eye(2), 2)
    assert np.allclose(basis.eigenvalues, [1.0, 3.0])
    scaled = np.abs(basis.vectors) * np.sqrt(basis.eigenvalues)[None, :]
    assert np.allclose(scaled, [[0.0, 1.0], [1.0, 0.0]])


def test_hermitian_eigen_degenerate_matrix():
    # closed form for [[1, i], [-i, 1]]: eigenvalues 1 -+ |i| = 0, 2, only
    # semidefinite; a mass term lifts them to 1, 3, as the boundary term
    # does on the disk
    K = np.array([[1.0, 1.0j], [-1.0j, 1.0]]) + np.eye(2)
    basis = generalized_eigenbasis(K, np.eye(2), 2)
    assert np.allclose(basis.eigenvalues, [1.0, 3.0], atol=1e-14)
    V = basis.vectors
    assert np.max(np.abs(K @ V - V * basis.eigenvalues[None, :])) <= EIG_TOL * np.linalg.norm(K)
    assert np.max(np.abs(V.conj().T @ K @ V - np.eye(2))) <= EIG_TOL


def test_hermitian_eigen_zero_matrix_sign_convention():
    with pytest.raises(NotSPD):
        generalized_eigenbasis(np.zeros((3, 3), dtype=complex), np.eye(3), 3)
    # one threefold eigenvalue: unit vectors, in index order, entries positive
    basis = generalized_eigenbasis(np.eye(3, dtype=complex), np.eye(3), 3)
    assert np.allclose(basis.eigenvalues, 1.0)
    assert np.allclose(basis.vectors, np.eye(3))


def test_hermitian_eigen_sign_fix_deterministic():
    rng = np.random.default_rng(3)
    for n, count in ((6, 6), (60, 3)):  # dense and sparse kernels
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        K = B @ B.conj().T + np.eye(n)
        basis = generalized_eigenbasis(K, np.eye(n), count)
        for j in range(count):
            col = basis.vectors[:, j]
            i = int(np.argmax(np.abs(col)))
            assert col[i].imag == pytest.approx(0.0, abs=1e-14)
            assert col[i].real > 0.0
        again = generalized_eigenbasis(K, np.eye(n), count)
        assert np.array_equal(basis.eigenvalues, again.eigenvalues)
        assert np.array_equal(basis.vectors, again.vectors)


def test_generalized_eigenbasis_rejects_indefinite_mass():
    # dense (count close to N) and sparse (count <= N / SPARSE_SHARE) kernels;
    # -0.01 and the last block put an eigenvalue at -100, far from the shift;
    # that block has positive LU pivots once its rows are exchanged
    blocks = ([[-1.0]], [[-0.01]], [[0.0]], [[0.0, 0.01], [0.01, 0.0]])
    for n, count in ((2, 2), (40, 2)):
        for block in blocks:
            M = np.eye(n)
            b = len(block)
            M[n - b :, n - b :] = block
            with pytest.raises(NotSPD):
                generalized_eigenbasis(np.eye(n, dtype=complex), M, count)


def test_arpack_failure_is_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK did not converge", np.empty(0), np.empty((40, 0)))

    monkeypatch.setattr(spectral.spla, "eigsh", fail)
    with pytest.raises(NoConvergence):
        generalized_eigenbasis(np.eye(40, dtype=complex), np.eye(40), 2)


# (lo, hi) mesh resolutions per preset: N from 19 to 385
RESOLUTIONS = {"heat1d": (20, 200), "disk": (2, 8), "robin_rect": (4, 16)}


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(sorted(RESOLUTIONS)).flatmap(
        lambda name: st.tuples(st.just(name), st.integers(*RESOLUTIONS[name]))
    )
)
def test_sparse_and_dense_kernels_agree(case):
    name, resolution = case
    forms = build_pipeline(name, resolution=resolution, k=1)[2]
    k = forms.N // SPARSE_SHARE  # the sparse kernel's largest count
    small = generalized_eigenbasis(forms.k_plus, forms.mass, k)
    full = generalized_eigenbasis(forms.k_plus, forms.mass, forms.N)
    assert np.allclose(small.eigenvalues, full.eigenvalues[:k], rtol=1e-9, atol=0.0)
    for basis in (small, full):
        rep = verify_orthogonality(basis, forms.k_plus, forms.mass)
        assert rep.max_plus_residual <= ORTHO_TOL
        assert rep.max_mass_offdiag <= ORTHO_TOL
    again = generalized_eigenbasis(forms.k_plus, forms.mass, k)
    assert np.array_equal(small.eigenvalues, again.eigenvalues)
    assert np.array_equal(small.vectors, again.vectors)


@pytest.mark.parametrize(
    "name, resolution, count",
    [("heat1d", 80, 6), ("forced1d", 60, 5), ("robin_rect", 10, 8), ("heat1d", 20, 10)],
)
def test_real_pencil_matches_dense_eigh(name, resolution, count):
    # real coefficients give a real pencil, solved in real arithmetic by
    # both kernels (the last case takes the dense one)
    forms = build_pipeline(name, resolution=resolution, k=1)[2]
    assert forms.k_plus.dtype == forms.mass.dtype == np.float64
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, count)
    assert basis.vectors.dtype == np.float64
    dense = sla.eigh(forms.k_plus.toarray(), forms.mass.toarray(), eigvals_only=True)[:count]
    assert np.max(np.abs(basis.eigenvalues - dense) / dense) <= 1e-10


def test_generalized_dirichlet_laplacian_converges_to_squares():
    # separation of variables on the unit interval: lambda_j -> (j pi)^2
    _, _, forms, basis, _ = (*build_pipeline("heat1d", resolution=200, k=3),)
    exact = np.array([(j * np.pi) ** 2 for j in (1, 2, 3)])
    assert np.all(np.abs(basis.eigenvalues - exact) / exact < 0.01)


def test_generalized_pencil_identity_and_scaling():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((6, 6))
    M = B @ B.T + 6.0 * np.eye(6)
    basis = generalized_eigenbasis(M.astype(complex), M, 6)
    assert np.allclose(basis.eigenvalues, 1.0, atol=1e-10)
    rep = verify_orthogonality(basis, M.astype(complex), M)
    assert rep.max_plus_residual <= ORTHO_TOL
    basis2 = generalized_eigenbasis(2.0 * M.astype(complex), M, 6)
    assert np.allclose(basis2.eigenvalues, 2.0, atol=1e-10)


def test_basis_normalization_and_orthogonality(heat_pipeline):
    _, _, forms, basis, _ = heat_pipeline
    assert np.allclose(basis.mass_norms, 1.0 / basis.eigenvalues, rtol=1e-9)
    # the diagonal of the energy Gram matrix is h_j* K+ h_j = 1
    rep = verify_orthogonality(basis, forms.k_plus, forms.mass)
    assert rep.max_plus_residual <= ORTHO_TOL
    assert rep.max_mass_offdiag <= ORTHO_TOL


def test_orthogonality_detects_perturbation(heat_pipeline):
    _, _, forms, basis, _ = heat_pipeline
    vectors = basis.vectors.copy()
    vectors[:, 0] += 1e-3 * vectors[:, 1]
    perturbed = EigenBasis(
        eigenvalues=basis.eigenvalues,
        vectors=vectors,
        mass_norms=basis.mass_norms,
    )
    rep = verify_orthogonality(perturbed, forms.k_plus, forms.mass)
    assert rep.max_plus_residual == pytest.approx(1e-3, rel=0.1)


def test_eigenvalues_invert_compact_operator(heat_pipeline):
    # the pencil inverts the discrete compact operator K+^-1 M: mu = 1/lambda
    _, _, forms, basis, k = heat_pipeline
    K = forms.k_plus.toarray()
    M = forms.mass.toarray()
    mu = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(K, M))))[::-1]
    assert np.allclose(mu[:k], 1.0 / basis.eigenvalues, rtol=1e-8)


def test_eigenvalues_decrease_under_refinement():
    # min-max over nested spaces: refining the mesh cannot raise lambda_j
    spectra = []
    for resolution in (10, 20, 40):
        _, _, _, basis, _ = build_pipeline("heat1d", resolution=resolution, k=4)
        spectra.append(basis.eigenvalues)
    for coarse, fine in zip(spectra[:-1], spectra[1:]):
        assert np.all(fine <= coarse + 1e-10)


def test_dual_product_orthogonality(heat_pipeline):
    # with the discrete dual product (F, G) = F* K+^-1 G the images M h_j
    # stay mutually orthogonal
    _, _, forms, basis, k = heat_pipeline
    K = forms.k_plus.toarray()
    MH = forms.mass @ basis.vectors
    G = MH.conj().T @ np.linalg.solve(K, MH)
    off = np.abs(G - np.diag(np.diag(G)))
    assert np.max(off) <= ORTHO_TOL


def test_full_basis_expansion_reproduces_vector(heat_pipeline):
    spec, mesh, forms, _, _ = heat_pipeline
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, forms.N)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(forms.N) + 1j * rng.standard_normal(forms.N)
    coeffs = (basis.vectors.conj().T @ (forms.mass @ v)) / basis.mass_norms
    recon = basis.vectors @ coeffs
    assert np.linalg.norm(recon - v) <= 1e-8 * np.linalg.norm(v)


def test_generalized_eigenbasis_rejects_indefinite_pencil():
    for n, count in ((2, 2), (40, 2)):  # dense and sparse kernels
        K = np.eye(n, dtype=complex)
        K[-1, -1] = -1.0
        with pytest.raises(NotSPD):
            generalized_eigenbasis(K, np.eye(n), count)


def test_eigenvalue_at_roundoff_level_is_rejected():
    # floor = NULL_FLOOR * eps * tr K / tr M = 100 * eps * (1 + lam) / 2
    for lam, singular in ((1e-16, True), (0.0, True), (1e-12, False)):
        K, M = np.diag([lam, 1.0]), np.eye(2)
        if singular:
            with pytest.raises(NotSPD, match="roundoff floor"):
                generalized_eigenbasis(K, M, 2)
        else:
            assert generalized_eigenbasis(K, M, 2).eigenvalues[0] == pytest.approx(lam)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_smallest_eigenvalue_far_above_null_floor(preset):
    spec, _, forms, basis, _ = build_pipeline(preset, k=1)
    K, M = forms.k_plus, forms.mass
    floor = spectral.NULL_FLOOR * np.finfo(float).eps * K.diagonal().sum() / M.diagonal().sum()
    # the smallest of them is the disk's, about 1.58
    assert basis.eigenvalues[0] >= 1.5
    assert basis.eigenvalues[0] > 1e9 * floor.real


def _random_sparse(rng, n: int, complex_: bool) -> np.ndarray:
    """An n x n array with about a third of its entries nonzero."""
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.35)
    if complex_:
        A = A + 1j * rng.standard_normal((n, n)) * (A != 0)
    return A


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    complex_matrix=st.booleans(),
    complex_rhs=st.booleans(),
    columns=st.sampled_from([None, 1, 3]),
)
def test_factor_solves_definite_and_refuses_indefinite_or_singular(
    n, seed, complex_matrix, complex_rhs, columns
):
    rng = np.random.default_rng(seed)
    B = _random_sparse(rng, n, complex_matrix)
    A = B.conj().T @ B + np.eye(n)  # Hermitian positive definite
    shape = (n,) if columns is None else (n, columns)
    rhs = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_rhs else 0.0)
    x = factor(sp.csr_matrix(A), "A", hermitian=True)(rhs)
    assert x.shape == rhs.shape
    assert np.allclose(x, np.linalg.solve(A, rhs), rtol=1e-10, atol=1e-12)
    # shifted so that its smallest eigenvalue is -1
    indefinite = A - (np.linalg.eigvalsh(A)[0] + 1.0) * np.eye(n)
    with pytest.raises(NotSPD):
        factor(sp.csr_matrix(indefinite), "A", hermitian=True)
    # a zero row stays zero under any pivoting, so the matrix is exactly singular
    singular = _random_sparse(rng, n, complex_matrix) + 2.0 * np.eye(n)
    singular[rng.integers(n)] = 0.0
    with pytest.raises(SingularStepMatrix):
        factor(sp.csr_matrix(singular), "A")
