import ast
import gc
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncparab import estimates, spectral
from ncparab.config import RunConfig, build_problem, preset_problem
from ncparab.errors import NoConvergence, NotSPD, SingularStepMatrix
from ncparab.estimates import check_cauchy_bound
from ncparab.integrator import discretize
from ncparab.presets import PRESETS
from ncparab.spectral import (
    SPARSE_SHARE,
    EigenBasis,
    factor,
    generalized_eigenbasis,
    verify_orthogonality,
)
from tests.conftest import build_pipeline

# Largest eigenpair residual and orthonormality defect the tests accept
EIG_TOL = 1e-11
ORTHO_TOL = 1e-9


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
    # the dense kernel (count close to N), through LAPACK's own check of M;
    # the sparse kernel does not factor M, which assembly checks on the mesh
    # (tests/test_assembly.py); the last block has positive LU pivots once
    # its rows are exchanged
    blocks = ([[-1.0]], [[-0.01]], [[0.0]], [[0.0, 0.01], [0.01, 0.0]])
    n = 2
    for block in blocks:
        M = np.eye(n)
        b = len(block)
        M[n - b :, n - b :] = block
        with pytest.raises(NotSPD):
            generalized_eigenbasis(np.eye(n, dtype=complex), M, n)


@pytest.fixture
def gc_disabled():
    """No cyclic collection while the test runs, so that only reference
    counting frees what the code lets go."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("preset", ["disk", "robin_rect"])
def test_shift_invert_lets_the_shifted_factor_go_when_arpack_returns(preset, monkeypatch, gc_disabled):
    # the complex pencil (disk) and the real one (robin_rect): ARPACK in
    # standard mode forms no reference cycle, so reference counting alone
    # frees the factor and the Arnoldi workspace
    forms, _ = discretize(preset_problem(preset), 8, 0)
    solves = []

    class Solve:  # a factor's solve, wrapped so that it takes a weak reference
        def __init__(self, solve):
            self.solve = solve

        def __call__(self, rhs):
            return self.solve(rhs)

        def certify(self):
            return self.solve.certify()

    def recording(*args, **kwargs):
        solve = Solve(factor(*args, **kwargs))
        solves.append(weakref.ref(solve))
        return solve

    monkeypatch.setattr(spectral, "factor", recording)
    gc.collect()
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, 4)
    assert basis.size == 4 and solves
    assert all(solve() is None for solve in solves)
    assert gc.collect() == 0


def test_eigenbasis_makes_no_extra_copies_of_the_basis(gc_disabled):
    # disk-degenerate's eigensolve: N = 1153 and k = 30 on the complex pencil;
    # traced peak in units of one complex N x k array: 4.76 with the shifted
    # factor's pivots read after ARPACK, 6.56 with SuperLU's copies of L and U
    # made before it, beside the Arnoldi workspace
    forms, _ = discretize(preset_problem("disk"), 24, 0)
    k = 30
    tracemalloc.start()
    try:
        generalized_eigenbasis(forms.k_plus, forms.mass, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (forms.N * k * 16) < 5.5


def _grid_pencil(n, shift, complex_):
    """The 5-point Laplacian on an n x n grid minus ``shift`` I, Hermitian
    with a pattern of bandwidth n, so not tridiagonal; a complex one has a
    purely imaginary coupling along the grid's columns."""
    path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    K = sp.kronsum(path, path).tocsc() - shift * sp.eye(n * n)
    if complex_:
        couple = sp.kron(sp.diags([1.0, -1.0], [-1, 1], shape=(n, n)), sp.eye(n))
        K = (K + 0.1j * couple).tocsc()
    return K


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("arpack_fails", [False, True])
def test_indefinite_superlu_pencil_is_not_spd_after_arpack(complex_, arpack_fails, monkeypatch):
    # the certificate of the shifted factor is read after ARPACK, so an
    # indefinite pencil (8 of its 49 eigenvalues below 0, from -1.70) reaches ARPACK, and a
    # failed certificate replaces ARPACK's own failure
    K = _grid_pencil(7, 2.0, complex_)
    assert K.shape[0] == 49 and 2 * SPARSE_SHARE <= 49 and not spectral._is_tridiagonal(K)
    if arpack_fails:

        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((49, 0)))

        monkeypatch.setattr(spectral.spla, "eigs", fail)
    with pytest.raises(NotSPD, match="shifted pencil") as caught:
        generalized_eigenbasis(K, sp.eye(49), 2)
    assert isinstance(caught.value.__context__, NoConvergence) == arpack_fails
    # a definite pencil of the same pattern keeps ARPACK's failure
    if arpack_fails:
        with pytest.raises(NoConvergence, match="ARPACK"):
            generalized_eigenbasis(_grid_pencil(7, 0.0, complex_), sp.eye(49), 2)


def test_superlu_pivots_of_the_arpack_factors_are_read_after_arpack_returns(monkeypatch):
    # a proxy around each SuperLU factor records its first read of U (which
    # builds SuperLU's copies of L and U), and a wrapper around arpack its
    # return: the shifted pencil of the complex (disk) and the real
    # (robin_rect) eigenbasis, and K+ + M of the exact Cauchy constant on a
    # 2D mesh
    events = []
    splu, arpack = spla.splu, spectral.arpack

    class Proxy:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            if name in ("L", "U"):
                events.append(name)
            return getattr(self.lu, name)

    def proxied(*args, **kwargs):
        events.append("factored")
        return Proxy(splu(*args, **kwargs))

    def returning(*args, **kwargs):
        result = arpack(*args, **kwargs)
        events.append("arpack returned")
        return result

    drift = build_problem(
        RunConfig(
            problem_preset="inline",
            problem_domain="rectangle(0,1,0,1)",
            problem_first_order="0.5,0.5",
            problem_a0="-0.2j",
            problem_s="all",
        )
    )[0]
    cases = [
        (discretize(preset_problem(name), 8, 0)[0], 4) for name in ("disk", "robin_rect")
    ] + [(discretize(drift, 8, 0)[0], None)]
    monkeypatch.setattr(spla, "splu", proxied)
    monkeypatch.setattr(spectral, "arpack", returning)
    monkeypatch.setattr(estimates, "arpack", returning)
    for forms, count in cases:
        events.clear()
        if count is None:
            assert forms.first_order.count_nonzero()
            check_cauchy_bound(forms, 1.0, 0.0)
        else:
            generalized_eigenbasis(forms.k_plus, forms.mass, count)
        assert events == ["factored", "arpack returned", "U"]


def _fix_signs_copy(vectors):
    """Sign fix written with a copy and a loop over columns, the byte
    reference: each column's pivot is its first entry whose modulus is within
    1e-8 of the column's largest."""
    pivots = np.empty(vectors.shape[1], dtype=vectors.dtype)
    for j, col in enumerate(vectors.T):
        mags = np.abs(col)
        pivots[j] = col[np.flatnonzero(mags >= (1.0 - 1e-8) * mags.max())[0]]
    return vectors * (np.abs(pivots) / np.where(pivots == 0.0, 1.0, pivots))


@pytest.mark.parametrize("phase", [1.0, -1.0, np.exp(0.7j)])
def test_sign_fix_takes_no_pivot_from_roundoff(phase):
    # the two largest moduli differ by one ulp, in either order, as in the
    # mirror-antisymmetric modes of a square: the first of them is the
    # pivot either way, so the column comes out the same
    big, bigger = 0.31063468, np.nextafter(0.31063468, 1.0)
    for col in ([0.1, big, -bigger, 0.2], [0.1, bigger, -big, 0.2]):
        V = phase * np.array(col)[:, None]
        spectral._fix_signs(V)
        assert np.max(np.abs(V[:, 0] - [0.1, big, -big, 0.2])) <= 1e-15


def _tie_break_copy(eigenvalues, vectors):
    """Tie break as it was written with a copy, the byte reference."""
    scale = max(1.0, float(np.max(np.abs(eigenvalues), initial=0.0)))

    def key(g):
        col = vectors[:, g]
        mags = np.abs(col)
        sig = np.nonzero(mags > 1e-8 * max(float(mags.max()), 1e-300))[0]
        first = int(sig[0]) if len(sig) else len(col)
        return first, tuple(np.round(np.concatenate([col.real, col.imag]), 9))

    order, i = [], 0
    while i < len(eigenvalues):
        j = i + 1
        while j < len(eigenvalues) and eigenvalues[j] - eigenvalues[i] <= 1e-12 * scale:
            j += 1
        order += sorted(range(i, j), key=key) if j - i > 1 else [i]
        i = j
    return eigenvalues[order], vectors[:, order]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    groups=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
)
def test_in_place_post_processing_matches_the_copies_byte_for_byte(n, groups, seed, complex_):
    # ascending eigenvalues in tied groups of the given sizes, and random
    # columns, some of them zero and some with tied largest entries
    rng = np.random.default_rng(seed)
    w = np.repeat(np.cumsum(rng.uniform(0.5, 2.0, len(groups))), groups)
    k = len(w)
    V = rng.standard_normal((n, k)) + (1j * rng.standard_normal((n, k)) if complex_ else 0.0)
    tied = rng.random(k) < 0.2
    V[:, tied] = V[:1, tied]  # every entry of the column equals its first
    V[:, rng.random(k) < 0.1] = 0.0
    w_ref, V_ref = _tie_break_copy(w, _fix_signs_copy(V))
    V_ref = V_ref / np.sqrt(w_ref)[None, :]
    V_new = V.copy(order="F")
    spectral._fix_signs(V_new)
    w_new, V_new = spectral._tie_break(w, V_new)
    V_new /= np.sqrt(w_new)
    assert w_new.tobytes() == w_ref.tobytes()
    assert V_new.dtype == V_ref.dtype and V_new.tobytes() == V_ref.tobytes()


def test_arpack_failure_is_no_convergence(monkeypatch):
    # one patch reaches both eigenvalue problems of the package: the sparse
    # eigenbasis and the exact Cauchy constant
    def fail(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK did not converge", np.empty(0), np.empty((40, 0)))

    monkeypatch.setattr(spectral.spla, "eigs", fail)
    with pytest.raises(NoConvergence, match="ARPACK"):
        generalized_eigenbasis(np.eye(40, dtype=complex), np.eye(40), 2)
    forms, _ = discretize(preset_problem("drift1d"), 20, 0)
    with pytest.raises(NoConvergence, match="ARPACK"):
        check_cauchy_bound(forms, 1.0, 0.0)


def test_ritz_vector_that_is_not_real_for_a_real_pencil_is_no_convergence(monkeypatch):
    # the imaginary part is refused, not dropped
    eigs = spla.eigs

    def tilted(*args, **kwargs):
        w, X = eigs(*args, **kwargs)
        return w, X + 1e-3j

    K = np.diag(np.arange(1.0, 41.0))
    assert generalized_eigenbasis(K, np.eye(40), 2).vectors.dtype == np.float64
    monkeypatch.setattr(spectral.spla, "eigs", tilted)
    with pytest.raises(NoConvergence, match="not real"):
        generalized_eigenbasis(K, np.eye(40), 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=1, complex_=False, seed=0)
@example(n=2, complex_=True, seed=0)
@example(n=3, complex_=True, seed=0)
def test_arpack_matches_dense_generalized_eigh(n, complex_, seed):
    # the largest-modulus eigenvalue of E^-1 A, A Hermitian and E Hermitian
    # positive definite; n <= 2 takes the dense branch
    rng = np.random.default_rng(seed)

    def draw():
        B = rng.standard_normal((n, n))
        return B + 1j * rng.standard_normal((n, n)) if complex_ else B

    B, G = draw(), draw()
    A, E = B + B.conj().T, G @ G.conj().T + n * np.eye(n)
    (mu,), X = spectral.arpack(lambda x: sla.solve(E, A @ x), n, A.dtype, 1)
    w = sla.eigh(A, E, eigvals_only=True)
    assert abs(mu) == pytest.approx(np.max(np.abs(w)), rel=1e-10, abs=0.0)
    assert abs(mu.imag) <= 1e-10 * abs(mu)
    x = X[:, 0]
    assert np.linalg.norm(A @ x - mu * (E @ x)) <= 1e-9 * np.linalg.norm(A) * np.linalg.norm(x)


def test_sparse_kernel_is_orthonormal_to_roundoff_on_the_degenerate_disk():
    # disk-degenerate's pencil: N = 1153, k = 30, complex, with repeated
    # eigenvalues; generalized shift-invert Lanczos read 1.2e-12 here
    forms, _ = discretize(preset_problem("disk"), 24, 0)
    assert 30 * SPARSE_SHARE <= forms.N
    basis = generalized_eigenbasis(forms.k_plus, forms.mass, 30)
    rep = verify_orthogonality(basis, forms.k_plus, forms.mass)
    assert rep.max_plus_residual <= 1e-12
    assert rep.max_mass_offdiag <= 1e-12


def _imported_modules(tree):
    """The absolute module names that ``tree`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_arpack_and_superlu_are_named_only_in_spectral():
    # one eigensolver module: ARPACK's routines, its error and SuperLU's
    # factor are named only in spectral.py, eigs once and eigsh nowhere,
    # and estimates imports no scipy module; scipy's private CSR kernel is
    # imported and called once, in integrator.py, so a scipy release that
    # moves it fails in one place
    watched = {"eigs", "eigsh", "ArpackError", "splu", "csr_matvec"}
    named = {}
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name in watched:
                named.setdefault(name, []).append(path.name)
        if path.name == "estimates.py":
            assert not [m for m in _imported_modules(tree) if m.split(".")[0] == "scipy"]
    assert named == {
        "eigs": ["spectral.py"],
        "ArpackError": ["spectral.py"],
        "splu": ["spectral.py"],
        "csr_matvec": ["integrator.py", "integrator.py"],
    }


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


def _tridiagonal(rng, n: int, complex_: bool, hermitian: bool) -> np.ndarray:
    """A dense n x n array with random entries on its three central
    diagonals, Hermitian if asked."""

    def draw(size):
        return rng.standard_normal(size) + (1j * rng.standard_normal(size) if complex_ else 0.0)

    sub = draw(n - 1)
    sup = sub.conj() if hermitian else draw(n - 1)
    diag = rng.standard_normal(n) if hermitian else draw(n)
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    complex_matrix=st.booleans(),
    complex_rhs=st.booleans(),
    columns=st.sampled_from([None, 1, 3]),
    shift=st.one_of(st.floats(-2.0, -0.05), st.floats(0.05, 2.0)),
)
def test_tridiagonal_factor_solves_and_certifies_like_dense_lapack(
    n, seed, complex_matrix, complex_rhs, columns, shift
):
    rng = np.random.default_rng(seed)
    shape = (n,) if columns is None else (n, columns)
    rhs = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_rhs else 0.0)
    # SuperLU is never reached: every matrix here is tridiagonal with N >= 3
    with mock.patch.object(spla, "splu", side_effect=AssertionError("SuperLU")):
        # Hermitian, with its smallest eigenvalue moved to shift: definite or
        # indefinite, never within roundoff of the boundary
        H = _tridiagonal(rng, n, complex_matrix, hermitian=True)
        H += (shift - np.linalg.eigvalsh(H)[0]) * np.eye(n)
        if np.linalg.eigvalsh(H)[0] > 0.0:
            x = factor(sp.csr_matrix(H), "H", hermitian=True)(rhs)
            assert x.shape == rhs.shape
            assert np.allclose(x, np.linalg.solve(H, rhs), rtol=1e-9, atol=1e-11)
        else:
            with pytest.raises(NotSPD):
                factor(sp.csr_matrix(H), "H", hermitian=True)
        # general, with partial pivoting
        A = _tridiagonal(rng, n, complex_matrix, hermitian=False)
        A += shift * np.eye(n)
        if np.linalg.cond(A) < 1e8:
            x = factor(sp.csr_matrix(A), "A")(rhs)
            assert x.shape == rhs.shape
            assert np.allclose(x, np.linalg.solve(A, rhs), rtol=1e-6, atol=1e-8)
        # a zero row stays zero under any pivoting, so the matrix is exactly
        # singular; a Hermitian one then has the eigenvalue 0
        row = rng.integers(n)
        A[row] = 0.0
        with pytest.raises(SingularStepMatrix):
            factor(sp.csr_matrix(A), "A")
        H[row], H[:, row] = 0.0, 0.0
        with pytest.raises(NotSPD):
            factor(sp.csr_matrix(H), "H", hermitian=True)


def test_factor_sends_tridiagonal_matrices_to_lapack_and_the_rest_to_superlu(
    heat_pipeline, disk_pipeline, monkeypatch
):
    def refused(*args, **kwargs):
        raise AssertionError("SuperLU")

    monkeypatch.setattr(spla, "splu", refused)
    # on a 1D mesh: K+ and a step matrix, with a complex right side
    forms = heat_pipeline[2]
    b = np.linspace(1.0, 2.0, forms.k_plus.shape[0]) * (1.0 - 0.5j)
    for mat, hermitian in ((forms.k_plus, True), (forms.mass + forms.k_plus, False)):
        assert np.allclose(mat @ factor(mat, "A", hermitian=hermitian)(b), b, rtol=1e-12)
    # a 2D pencil, and every matrix of order 1 or 2
    forms = disk_pipeline[2]
    small = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    for mat in (forms.k_plus + forms.mass, small, small[:1, :1]):
        for hermitian in (True, False):
            with pytest.raises(AssertionError, match="SuperLU"):
                factor(mat, "A", hermitian=hermitian)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_factor_refuses_a_non_finite_entry_on_either_kernel(complex_entries):
    # a tridiagonal matrix (LAPACK) and a full 3 x 3 one (SuperLU), each
    # with one infinite diagonal entry, as M/dt is when dt underflows
    tridiagonal = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(4, 4)).toarray()
    full = np.full((3, 3), -1.0) + 5.0 * np.eye(3)
    for dense in (tridiagonal, full):
        mat = dense.astype(complex) if complex_entries else dense.copy()
        mat[1, 1] = np.inf
        for hermitian, error in ((True, NotSPD), (False, SingularStepMatrix)):
            with pytest.raises(error, match="non-finite"):
                factor(sp.csr_matrix(mat), "A", hermitian=hermitian)
