"""Generalized Hermitian eigenbasis used by the Galerkin construction.

The basis vectors solve ``K+ h = lambda M h`` on the free dofs. They are
normalized so that each is a unit vector of the energy product, which makes
them orthonormal there and orthogonal (with norms 1/lambda) in L2. A basis
of a few pairs comes from shift-invert Lanczos on the sparse pencil; a basis
of a sizeable share of the spectrum from one dense generalized LAPACK call.
A pencil with real entries, which real coefficients give, stays in real
arithmetic in both kernels and has real eigenvectors. Both kernels fix
signs deterministically so repeated runs emit identical output.

Every sparse LU of the package comes from ``factor``: minimum degree on
A^T + A, the matrix's own dtype, diagonal pivots for a Hermitian matrix, so
that its factor is its definiteness check (``NotSPD``), and partial
pivoting with a pivot floor for any other (``SingularStepMatrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence, NotSPD, SingularStepMatrix

EIG_TOL = 1e-11
ORTHO_TOL = 1e-9

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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its largest-modulus entry is real
    positive (first such index on ties)."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * (np.abs(pivots) / np.where(pivots == 0.0, 1.0, pivots))


def _tie_break(eigenvalues: np.ndarray, vectors: np.ndarray):
    """Order degenerate eigenvalue groups lexicographically by the
    sign-fixed vector entries, for reproducible output. The eigenvalues
    come in ascending order."""
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


def factor(mat, name: str, hermitian: bool = False):
    """The solve of a sparse LU of ``mat``, the one sparse factor of the package.

    The order is minimum degree on A^T + A, which suits the symmetric pattern
    of finite element matrices (on the disk pencil it cuts the fill from 79k
    to 49k entries). A Hermitian matrix is eliminated in a symmetric order
    with diagonal pivots: the pivots are real positive and there are no row
    exchanges exactly when it is positive definite, so the factor doubles as
    the definiteness check (``NotSPD``). Any other matrix is factored with
    partial pivoting and refuses a pivot below 1e-300 (``SingularStepMatrix``).
    The factor has the matrix's dtype; a real one takes complex right sides,
    whose real and imaginary parts go through one call as extra columns.
    """
    A = sp.csc_matrix(mat)
    error = NotSPD if hermitian else SingularStepMatrix
    symmetric = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **(symmetric if hermitian else {}))
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise error(f"{name} is singular: {exc}") from exc
    pivots = lu.U.diagonal()
    if hermitian and not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots.real > 0.0)):
        raise NotSPD(f"{name} is not positive definite")
    if not hermitian and np.min(np.abs(pivots)) < 1e-300:
        raise SingularStepMatrix(f"{name} is singular")
    if A.dtype.kind == "c":
        return lu.solve

    def solve(rhs):
        rhs = np.asarray(rhs)
        if not np.iscomplexobj(rhs):
            return lu.solve(rhs)
        cols = rhs.reshape(len(rhs), -1)
        x = lu.solve(np.hstack([cols.real, cols.imag]))
        n = cols.shape[1]
        return (x[:, :n] + 1j * x[:, n:]).reshape(rhs.shape)

    return solve


def _shift_invert(K, M, count: int):
    """``count`` pairs nearest a negative shift sigma, by ARPACK: real
    symmetric Lanczos for a real pencil, its complex routine otherwise.

    With M definite and K+ semidefinite, K+ - sigma M is definite for every
    sigma < 0 and the pairs nearest sigma are the smallest. |sigma| is
    sqrt(eps) times the mean diagonal ratio tr K / tr M, which is of the
    order of the largest eigenvalue: enough to keep the factor well
    conditioned when K+ is singular, and far below the smallest eigenvalue
    on the shipped meshes, so the shifted spectrum stays well separated.
    """
    factor(M, "mass matrix", hermitian=True)
    sigma = -np.sqrt(np.finfo(float).eps) * np.sum(K.diagonal().real) / np.sum(M.diagonal().real)
    shifted = K - sigma * M
    solve = spla.LinearOperator(
        K.shape,
        matvec=factor(shifted, "shifted pencil K+ - sigma M", hermitian=True),
        dtype=shifted.dtype,
    )
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    try:
        return spla.eigsh(K, count, M, sigma=sigma, which="LM", v0=v0, OPinv=solve)
    except spla.ArpackError as exc:
        raise NoConvergence(f"ARPACK: {exc}") from exc


def _dense_eigh(K, M, count: int):
    """First ``count`` pairs from one dense generalized LAPACK call."""
    try:
        w, V = sla.eigh(K.toarray(), M.toarray(), driver="gvd")
    except sla.LinAlgError as exc:
        raise (NotSPD if "positive definite" in str(exc) else NoConvergence)(str(exc)) from exc
    return w[:count], V[:, :count]


def generalized_eigenbasis(k_plus, mass, count: int) -> EigenBasis:
    """First ``count`` pairs of K+ h = lambda M h, energy-orthonormal.
    Raises ``NotSPD`` when the smallest is not above the roundoff floor
    (``NULL_FLOOR``), that is when K+ is singular."""
    K = sp.csc_matrix(k_plus)
    M = sp.csc_matrix(mass)
    if not (np.all(np.isfinite(K.data)) and np.all(np.isfinite(M.data))):
        raise NoConvergence("pencil has non-finite entries")
    kernel = _shift_invert if count * SPARSE_SHARE <= K.shape[0] else _dense_eigh
    w, V = kernel(K, M, count)
    order = np.argsort(w, kind="stable")
    w, V = _tie_break(w[order], _fix_signs(V[:, order]))
    eps = np.finfo(float).eps
    floor = NULL_FLOOR * eps * np.sum(K.diagonal().real) / np.sum(M.diagonal().real)
    if w[0] <= floor:
        raise NotSPD(
            f"pencil eigenvalue {float(w[0]):.3e} is not above the roundoff floor "
            f"{floor:.3e}: K+ is singular"
        )
    # Both kernels return M-orthonormal vectors, so h* K+ h = lambda h* M h = 1.
    vectors = V / np.sqrt(w)[None, :]
    mass_norms = np.real(np.einsum("ij,ij->j", vectors.conj(), M @ vectors))
    return EigenBasis(eigenvalues=w, vectors=vectors, mass_norms=mass_norms)


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
