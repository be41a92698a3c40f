"""Generalized Hermitian eigenbasis used by the Galerkin construction.

The basis vectors solve ``K+ h = lambda M h`` on the free dofs. They are
normalized so that each is a unit vector of the energy product, which makes
them orthonormal there and orthogonal (with norms 1/lambda) in L2. A basis
of a few pairs comes from ``arpack``, the package's one ARPACK call, on
(K+ - sigma M)^-1 M and a Rayleigh-Ritz step; a basis of a sizeable share
of the spectrum from one dense generalized LAPACK call. A pencil with real
entries, which real coefficients give, stays in real arithmetic in both
kernels and has real eigenvectors. Both kernels fix signs
deterministically so repeated runs emit identical output; the vectors are
sorted, sign-fixed and scaled in place. M is taken to be positive
definite, as ``assembly.assemble_forms`` checks on the mesh, so the sparse
kernel factors only the shifted pencil, reads its certificate once ARPACK
returns, and then lets it go.

Every sparse factor of the package comes from ``factor`` or ``arpack``,
in the matrix's own dtype, by one of two kernels picked from the matrix's
pattern alone: a tridiagonal matrix of order 3 or more, which is every
matrix of a 1D mesh, goes to LAPACK's tridiagonal routines, any other to
SuperLU in minimum degree order on A^T + A. A Hermitian matrix gets L D L^H (?pttrf) or
diagonal pivots in a symmetric order, which refuse an indefinite or an
exactly singular matrix (``NotSPD``) but not always a numerically singular
one; any other gets partial pivoting (?gttrf or SuperLU) with a pivot floor
(``SingularStepMatrix``). ``factor`` reads the certificate as the matrix
is factored; ``arpack``, which factors the Hermitian matrix of its map,
reads it once ARPACK has returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence, NotSPD, SingularStepMatrix

# The sparse kernel runs when count <= N / SPARSE_SHARE. Measured with one
# BLAS thread (2-vCPU Xeon, scipy 1.17): at k = N/8 shift-invert took 2.18 s
# against 2.69 s dense on the disk pencil (N = 1153) and 0.30 s against
# 1.33 s on heat1d (N = 799), but at k = N/4 on heat1d 2.04 s against
# 1.33 s. The crossover lies between N/8 and N/4; N/10 stays on its safe side.
SPARSE_SHARE = 10

# A pencil eigenvalue at or below NULL_FLOOR * eps * tr K / tr M is a null vector
# of K+ lifted off zero by roundoff: singular K+ gave 0.1 to 2.6 times eps * tr K /
# tr M up to N = 4225, and the disk's 1.58, the presets' smallest, is 1e10 floors up.
NULL_FLOOR = 100.0


@dataclass
class EigenBasis:
    """First ``k`` eigenpairs of the (K+, M) pencil on the free dofs."""

    eigenvalues: np.ndarray  # ascending, positive
    vectors: np.ndarray  # (N, k), columns h_j with h_j* K+ h_j = 1
    mass_norms: np.ndarray  # h_j* M h_j = 1/lambda_j

    @property
    def size(self) -> int:
        return self.vectors.shape[1]


@dataclass
class OrthogonalityReport:
    max_plus_residual: float  # max |h_i* K+ h_j - delta_ij|
    max_mass_offdiag: float  # max_{i != j} |h_i* M h_j|


def _fix_signs(vectors: np.ndarray) -> None:
    """Rotate each column's phase, in place, so its pivot is real positive:
    the first entry whose modulus is within 1e-8 of the column's largest, so
    that roundoff does not choose between entries of equal modulus."""
    mags = np.abs(vectors)
    first = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0, initial=0.0), axis=0)
    pivots = vectors[first, np.arange(vectors.shape[1])]
    vectors *= np.abs(pivots) / np.where(pivots == 0.0, 1.0, pivots)


def _tie_break(eigenvalues: np.ndarray, vectors: np.ndarray):
    """Order degenerate eigenvalue groups lexicographically by the
    sign-fixed vector entries, for reproducible output. The eigenvalues
    come in ascending order; when no group is reordered the inputs come back
    as they are."""
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
    if order == list(range(len(eigenvalues))):
        return eigenvalues, vectors
    return eigenvalues[order], vectors[:, order]


def _is_tridiagonal(A) -> bool:
    """Whether every stored entry of the CSC matrix ``A`` lies on its three
    central diagonals. Only the first and last stored row of each column are
    read (sorted first, in place, if they are not), so the test holds no
    array of the size of the pattern."""
    if not A.has_sorted_indices:
        A.sort_indices()
    start, stop = A.indptr[:-1], A.indptr[1:]
    cols = np.flatnonzero(stop > start)
    return bool(
        np.all(A.indices[start[cols]] >= cols - 1) and np.all(A.indices[stop[cols] - 1] <= cols + 1)
    )


def _lapack_tridiagonal(A, name: str, hermitian: bool):
    """The solve of LAPACK's factor of the tridiagonal ``A`` (see ``factor``):
    L D L^H (?pttrf) if it is Hermitian, LU with partial pivoting (?gttrf)
    otherwise; its certificate is read here, so its reading is
    ``_certified``."""
    if hermitian:
        d, e = A.diagonal().real, A.diagonal(-1)
        pttrf, pttrs = sla.get_lapack_funcs(("pttrf", "pttrs"), (d, e))
        d, e, info = pttrf(d, e, overwrite_d=1, overwrite_e=1)
        # info > 0 names the first pivot that is not positive; a NaN pivot
        # passes LAPACK's test d <= 0 and is refused here
        if info > 0 or not np.all(d > 0.0):
            raise NotSPD(f"{name} is not positive definite")
        if e.dtype.kind != "c":
            return lambda rhs: pttrs(d, e, rhs)[0], _certified
        # e holds the subdiagonal, that is the factor L of L D L^H
        return lambda rhs: pttrs(d, e, rhs, lower=1)[0], _certified
    dl, d, du = A.diagonal(-1), A.diagonal(), A.diagonal(1)
    gttrf, gttrs = sla.get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
    dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0 or np.min(np.abs(d)) < 1e-300:  # d is the diagonal of U
        raise SingularStepMatrix(f"{name} is singular")
    return lambda rhs: gttrs(dl, d, du, du2, ipiv, rhs)[0], _certified


def _certified():
    """The certificate of a factor whose kernel read it as it factored."""


def _superlu(A, name: str, hermitian: bool):
    """The solve of SuperLU's factor of ``A`` and the reading of its
    certificate (see ``factor``): diagonal pivots in a symmetric order if it
    is Hermitian, whose certificate is read when the reading is called;
    partial pivoting otherwise, whose pivot floor is read here."""
    error = NotSPD if hermitian else SingularStepMatrix
    symmetric = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **(symmetric if hermitian else {}))
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise error(f"{name} is singular: {exc}") from exc
    # lu.U makes SuperLU build CSC copies of L and U, kept as long as lu lives
    if not hermitian:
        if np.min(np.abs(lu.U.diagonal())) < 1e-300:
            raise SingularStepMatrix(f"{name} is singular")
        return lu.solve, _certified

    def certify():
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real > 0.0)):
            raise NotSPD(f"{name} is not positive definite")

    return lu.solve, certify


def _factor(mat, name: str, hermitian: bool):
    """The solve of a factor of ``mat`` (see ``factor``) and the reading of
    its certificate, which ``factor`` calls at once and ``arpack`` last."""
    A = sp.csc_matrix(mat)
    if not np.all(np.isfinite(A.data)):
        raise (NotSPD if hermitian else SingularStepMatrix)(f"{name} has a non-finite entry")
    tridiagonal = A.shape[0] >= 3 and _is_tridiagonal(A)
    solve_factor, certify = (_lapack_tridiagonal if tridiagonal else _superlu)(A, name, hermitian)
    if A.dtype.kind == "c":
        return solve_factor, certify

    def solve(rhs):
        rhs = np.asarray(rhs)
        if rhs.dtype.kind != "c":
            return solve_factor(rhs)
        cols = rhs.reshape(len(rhs), -1)
        x = solve_factor(np.hstack([cols.real, cols.imag]))
        n = cols.shape[1]
        return (x[:, :n] + 1j * x[:, n:]).reshape(rhs.shape)

    return solve, certify


def factor(mat, name: str, hermitian: bool = False):
    """The solve of a factor of ``mat``, whose certificate is read here.

    A matrix of order N >= 3 whose stored entries all lie on its three
    central diagonals, which is every matrix of a 1D mesh, is factored by
    LAPACK's tridiagonal routines; any other by SuperLU, in minimum degree
    order on A^T + A, which suits the symmetric pattern of finite element
    matrices (on the disk pencil it cuts the fill from 79k to 49k entries).
    N <= 2 stays on SuperLU because scipy's wrappers refuse it: ?gttrf
    needs n >= 3 and ?pttrf n >= 2 ("unexpected array size").

    A Hermitian matrix gets L D L^H, or diagonal pivots in a symmetric
    order, and is refused (``NotSPD``) unless every pivot is real positive.
    That refuses an indefinite or exactly singular matrix, but a positive
    semidefinite one singular up to roundoff passes or not as roundoff signs
    its last pivot (the pure Neumann K+ of ``interval(0,1)`` passes at 11 and
    34 unknowns, not at 12 and 33): ``NULL_FLOOR`` certifies definiteness.
    Any other matrix is factored with partial pivoting and refuses an exactly
    singular matrix or a pivot below 1e-300 (``SingularStepMatrix``). A
    matrix with a non-finite entry is refused before it is factored, with
    the error of its kind.
    The factor has the matrix's dtype; a real one takes complex right sides,
    whose real and imaginary parts go through one call as extra columns.

    The pivots of a Hermitian SuperLU factor are read from ``lu.U``, which
    makes SuperLU build CSC copies of L and U and keep them as long as the
    factor lives; the factors that live through one ARPACK call come from
    ``arpack``, which reads them once ARPACK is done.
    """
    solve, certify = _factor(mat, name, hermitian)
    certify()
    return solve


def arpack(mat, name: str, make_map, dtype, count: int):
    """The ``count`` largest-modulus eigenpairs ``(w, X)`` of the map
    ``make_map(solve)`` on vectors of type ``dtype``, where ``solve`` is the
    solve of the Hermitian factor of ``mat`` (``factor``): ``eigs`` in
    standard mode, which forms no reference cycle, from the package's one
    start vector. For n <= 2, below ARPACK's smallest size, a dense
    eigensolve of the map on the identity. Its failure is
    ``NoConvergence``, and so is a map that overflows: its first value that
    is not finite raises before ARPACK or LAPACK sees it, and an eigenvalue
    that is not finite raises after. A real map's Ritz vectors come back
    real when their imaginary parts are exactly 0.

    The factor's certificate (``NotSPD``) is read last, after that
    reduction or as an error propagates, and a failed one replaces that
    error. So SuperLU's copies of L and U never sit beside the Arnoldi
    workspace, and the factor goes when this returns.
    """
    solve, certify = _factor(mat, name, hermitian=True)
    n = mat.shape[0]
    try:
        apply = make_map(solve)

        def finite(x):
            y = apply(x)
            if not np.all(np.isfinite(y)):
                raise NoConvergence("ARPACK: the map overflows (a value is not finite)")
            return y

        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails in finite
            try:
                if n <= 2:
                    w, X = np.linalg.eig(finite(np.eye(n, dtype=dtype)))
                    keep = np.argsort(-np.abs(w), kind="stable")[:count]
                    w, X = w[keep], X[:, keep]
                else:  # which="LM", the largest modulus, is the default of eigs
                    v0 = np.random.default_rng(0).standard_normal(n).astype(dtype)
                    op = spla.LinearOperator((n, n), matvec=finite, dtype=dtype)
                    w, X = spla.eigs(op, count, v0=v0)
            except (spla.ArpackError, np.linalg.LinAlgError) as exc:
                raise NoConvergence(f"ARPACK: {exc}") from exc
        if not np.all(np.isfinite(w)):
            raise NoConvergence("ARPACK: an eigenvalue is not finite")
        if np.dtype(dtype).kind != "c" and not np.any(X.imag):
            X = X.real.copy()
    finally:  # a failed certificate replaces any error raised above
        certify()
    return w, X


def _shift_invert(K, M, count: int):
    """``count`` pairs nearest a negative shift sigma: ``arpack`` on
    (K+ - sigma M)^-1 M, whose largest eigenvalues are 1/(lambda - sigma),
    then one k x k Rayleigh-Ritz step with K+ and M, which makes the Ritz
    vectors M-orthonormal. A real pencil keeps real vectors (or ``NoConvergence``).

    With M definite and K+ semidefinite, K+ - sigma M is definite for every
    sigma < 0, and the pairs nearest sigma are the smallest. |sigma| =
    sqrt(eps) tr K / tr M, of the order of the largest eigenvalue, keeps the
    factor well conditioned when K+ is singular and the shifted spectrum well
    separated: it lies far below the smallest eigenvalue on the shipped meshes.
    """
    sigma = -np.sqrt(np.finfo(float).eps) * np.sum(K.diagonal().real) / np.sum(M.diagonal().real)
    real = np.result_type(K.dtype, M.dtype).kind != "c"
    dtype = float if real else complex
    name = "shifted pencil K+ - sigma M"
    _, X = arpack(K - sigma * M, name, lambda solve: lambda x: solve(M @ x), dtype, count)
    if real and X.dtype.kind == "c":
        raise NoConvergence("ARPACK gave a Ritz vector that is not real for a real pencil")
    w, Y = sla.eigh(X.conj().T @ (K @ X), X.conj().T @ (M @ X))
    return w, X @ Y


def _dense_eigh(K, M, count: int):
    """First ``count`` pairs from one dense generalized LAPACK call."""
    try:
        w, V = sla.eigh(K.toarray(), M.toarray(), driver="gvd")
    except sla.LinAlgError as exc:
        raise (NotSPD if "positive definite" in str(exc) else NoConvergence)(str(exc)) from exc
    # a copy of the first columns lets the rest of the N x N array go
    return w[:count], V if count == len(w) else V[:, :count].copy(order="F")


def generalized_eigenbasis(k_plus, mass, count: int) -> EigenBasis:
    """First ``count`` pairs of K+ h = lambda M h, energy-orthonormal.
    Raises ``NotSPD`` when the smallest is not above the roundoff floor
    (``NULL_FLOOR``), that is when K+ is singular.

    M must be Hermitian positive definite, as every assembled mass matrix
    is (``assembly.assemble_forms`` checks it on the mesh). The dense kernel
    refuses any other M (``NotSPD``, from LAPACK); the sparse kernel checks
    it only on its Ritz vectors (scipy's ``LinAlgError``)."""
    K = sp.csc_matrix(k_plus)
    M = sp.csc_matrix(mass)
    if not (np.all(np.isfinite(K.data)) and np.all(np.isfinite(M.data))):
        raise NoConvergence("pencil has non-finite entries")
    kernel = _shift_invert if count * SPARSE_SHARE <= K.shape[0] else _dense_eigh
    w, V = kernel(K, M, count)
    order = np.argsort(w, kind="stable")
    w = w[order]
    # the basis is column-major, and this is the one copy of the vectors at
    # most (the sparse kernel returns them row-major); the rest works in place
    V = np.asfortranarray(V if np.array_equal(order, np.arange(len(w))) else V[:, order])
    _fix_signs(V)
    w, V = _tie_break(w, V)
    eps = np.finfo(float).eps
    floor = NULL_FLOOR * eps * np.sum(K.diagonal().real) / np.sum(M.diagonal().real)
    if w[0] <= floor:
        raise NotSPD(
            f"pencil eigenvalue {float(w[0]):.3e} is not above the roundoff floor "
            f"{floor:.3e}: K+ is singular"
        )
    # Both kernels return M-orthonormal vectors, so h* K+ h = lambda h* M h = 1.
    V /= np.sqrt(w)
    mass_norms = np.real(np.einsum("ij,ij->j", V.conj(), M @ V))
    return EigenBasis(eigenvalues=w, vectors=V, mass_norms=mass_norms)


def verify_orthogonality(basis: EigenBasis, k_plus, mass) -> OrthogonalityReport:
    """Measure orthonormality in the energy product and orthogonality in L2."""
    H = basis.vectors
    G_plus = H.conj().T @ (k_plus @ H)
    G_mass = H.conj().T @ (mass @ H)
    k = basis.size
    plus_res = float(np.max(np.abs(G_plus - np.eye(k))))
    off = np.abs(G_mass - np.diag(np.diag(G_mass)))
    mass_off = float(np.max(off)) if k > 1 else 0.0
    return OrthogonalityReport(max_plus_residual=plus_res, max_mass_offdiag=mass_off)
