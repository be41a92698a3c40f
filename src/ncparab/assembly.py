"""P1 finite element assembly of the discrete forms.

Three global matrices are built over all mesh nodes and then reduced by
eliminating the nodes pinned by the degenerate boundary set:

* ``k_plus`` -- the energy inner product: the principal part assembled
  through the pointwise factor D (so it is Hermitian PSD by construction,
  also for degenerate principal matrices), plus the nonnegative zero-order
  weight, plus the Robin boundary mass with weight b00/b1;
* ``mass``   -- the L2 mass matrix, exact for P1;
* ``first_order`` -- the non-symmetric form pairing the directional
  derivatives D_l against the test function, plus the delta_a0 weight.

The coefficients may be complex, so the element matrices are computed in
complex arithmetic; a matrix whose imaginary parts all come out exactly 0
is stored real (float64), so that real data are factored, solved and
eigensolved in real arithmetic. The mass matrix is always real.

Quadrature is 2-point Gauss on segments and the 3-point edge-midpoint rule
on triangles, both exact for quadratic integrands, hence exact whenever the
coefficients are elementwise constant.

Source loads go through one sparse load operator per mesh, which maps the
source values at all quadrature points to the reduced nodal loads, so a
block of times costs one source evaluation and one sparse product. The
operator is real; the loads are real or complex like the source values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConstraintOnAllDofs, SingularKPlus
from .meshing import Mesh
from .problem import ProblemSpec, factorize_principal
from .spectral import solver

_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _element_geometry(mesh: Mesh):
    """Per-element constant gradients (E, dim, ndof) and measures (E,)."""
    p = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        h = p[:, 1, 0] - p[:, 0, 0]
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, None, :]
        return grads, np.abs(h)
    J = np.stack(
        [p[:, 1, :] - p[:, 0, :], p[:, 2, :] - p[:, 0, :]], axis=2
    )  # columns are edge vectors
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv_t = (
        np.stack(
            [
                np.stack([J[:, 1, 1], -J[:, 1, 0]], axis=1),
                np.stack([-J[:, 0, 1], J[:, 0, 0]], axis=1),
            ],
            axis=1,
        )
        / det[:, None, None]
    )
    ref = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    grads = inv_t @ ref
    return grads, 0.5 * np.abs(det)


def _element_quadrature(mesh: Mesh):
    """Quadrature points (E, Q, dim), weights (E, Q) including measure,
    and P1 values (Q, ndof)."""
    p = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        s = np.array(_GAUSS2)
        pts = p[:, None, 0, :] + s[None, :, None] * (p[:, None, 1, :] - p[:, None, 0, :])
        h = np.abs(p[:, 1, 0] - p[:, 0, 0])
        wts = 0.5 * h[:, None] * np.ones((1, 2))
        phi = np.stack([1.0 - s, s], axis=1)
        return pts, wts, phi
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    pts = np.einsum("qa,ead->eqd", bary, p)
    _, area = _element_geometry(mesh)
    wts = area[:, None] * np.full((1, 3), 1.0 / 3.0)
    return pts, wts, bary


def _facet_quadrature(mesh: Mesh, facet_idx: np.ndarray):
    """Quadrature on boundary facets: points (F, Qb, dim), weights (F, Qb)
    including measure, P1 facet values (Qb, nfdof)."""
    facets = mesh.boundary_facets[facet_idx]
    p = mesh.nodes[facets]
    if mesh.dim == 1:
        pts = p[:, None, 0, :]
        wts = mesh.facet_measures[facet_idx][:, None]
        phi = np.ones((1, 1))
        return facets, pts, wts, phi
    s = np.array(_GAUSS2)
    pts = p[:, None, 0, :] + s[None, :, None] * (p[:, None, 1, :] - p[:, None, 0, :])
    wts = 0.5 * mesh.facet_measures[facet_idx][:, None] * np.ones((1, 2))
    phi = np.stack([1.0 - s, s], axis=1)
    return facets, pts, wts, phi


def _coords(pts: np.ndarray):
    return tuple(pts[..., i] for i in range(pts.shape[-1]))


def _scatter_matrix(conn: np.ndarray, data: np.ndarray, size: int) -> sp.csr_matrix:
    ndof = conn.shape[1]
    rows = np.repeat(conn[:, :, None], ndof, axis=2)
    cols = np.repeat(conn[:, None, :], ndof, axis=1)
    return sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size)
    ).tocsr()


def real_if_exact(a):
    """``a`` (an array or a sparse matrix) in real storage when it is complex
    with imaginary parts exactly 0, otherwise ``a`` itself."""
    values = a.data if sp.issparse(a) else a
    if not np.iscomplexobj(values) or np.any(values.imag):
        return a
    return a.real.copy()  # a contiguous copy; .real alone is a strided view


def _robin_ratio(spec: ProblemSpec, coords) -> np.ndarray:
    # b00 comes from problem.split_zero_order, which refuses b1 = 0
    b00 = np.real(np.asarray(spec.boundary_b00(*coords), dtype=complex))
    b1 = np.real(np.asarray(spec.boundary_b1(*coords), dtype=complex))
    return b00 / b1


def assemble_plus_form(mesh: Mesh, spec: ProblemSpec) -> sp.csr_matrix:
    """Energy-product matrix over all nodes (unreduced), Hermitian PSD;
    real when its entries are."""
    n = mesh.num_nodes
    factor = factorize_principal(spec)
    grads, _ = _element_geometry(mesh)
    pts, wts, phi = _element_quadrature(mesh)
    ndof = mesh.elements.shape[1]
    data = np.zeros((len(mesh.elements), ndof, ndof), dtype=complex)
    for q in range(pts.shape[1]):
        coords = _coords(pts[:, q, :])
        B = factor(*coords) @ grads
        data += wts[:, q, None, None] * np.einsum("eli,elj->eij", B.conj(), B)
        if spec.zero_order_a00 is not None:
            a00 = np.real(np.asarray(spec.zero_order_a00(*coords)))
            data += (wts[:, q] * a00)[:, None, None] * np.outer(phi[q], phi[q])
    K = _scatter_matrix(mesh.elements, data, n)

    robin = np.nonzero(~mesh.facet_dirichlet)[0]
    if len(robin) and spec.boundary_b00 is not None:
        facets, fpts, fwts, fphi = _facet_quadrature(mesh, robin)
        fdata = np.zeros((len(facets), facets.shape[1], facets.shape[1]))
        for q in range(fpts.shape[1]):
            ratio = _robin_ratio(spec, _coords(fpts[:, q, :]))
            fdata += (fwts[:, q] * ratio)[:, None, None] * np.outer(fphi[q], fphi[q])
        K = K + _scatter_matrix(facets, fdata, n)
    return real_if_exact((K + K.conj().T) * 0.5)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """L2 mass matrix over all nodes, from the exact P1 element mass."""
    _, measures = _element_geometry(mesh)
    if mesh.dim == 1:
        pattern = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = measures[:, None, None] * pattern
    return _scatter_matrix(mesh.elements, data, mesh.num_nodes)


def assemble_first_order(mesh: Mesh, spec: ProblemSpec) -> sp.csr_matrix:
    """Matrix of the lower-order form over all nodes (non-symmetric); real
    when its entries are."""
    n = mesh.num_nodes
    factor = factorize_principal(spec)
    grads, _ = _element_geometry(mesh)
    pts, wts, phi = _element_quadrature(mesh)
    ndof = mesh.elements.shape[1]
    data = np.zeros((len(mesh.elements), ndof, ndof), dtype=complex)
    coeffs = list(spec.first_order or [])
    for q in range(pts.shape[1]):
        coords = _coords(pts[:, q, :])
        if coeffs:
            B = factor(*coords) @ grads
            drift = np.zeros((len(mesh.elements), ndof), dtype=complex)
            for l, a_l in enumerate(coeffs):
                drift += np.asarray(a_l(*coords), dtype=complex)[:, None] * B[:, l, :]
            data += wts[:, q, None, None] * phi[q][None, :, None] * drift[:, None, :]
        if spec.zero_order_delta_a0 is not None:
            da0 = np.asarray(spec.zero_order_delta_a0(*coords), dtype=complex)
            data += (wts[:, q] * da0)[:, None, None] * np.outer(phi[q], phi[q])
    return real_if_exact(_scatter_matrix(mesh.elements, data, n))


@dataclass(frozen=True)
class LoadOperator:
    """Sparse map from source values at the quadrature points of a mesh to
    reduced nodal loads: ``matrix[i, e*Q + q] = w_eq * phi_q(node i)``, with
    the quadrature weights (measure included) and P1 values baked in and
    only the free rows kept."""

    coords: tuple  # per-axis coordinates of the E*Q quadrature points
    matrix: sp.csr_matrix  # (free nodes, E*Q), real


def load_operator(mesh: Mesh) -> LoadOperator:
    """The mesh's load operator, built on first use and kept on the mesh."""
    if mesh._load_operator is None:
        pts, wts, phi = _element_quadrature(mesh)
        n_elem, n_quad, dim = pts.shape
        ndof = mesh.elements.shape[1]
        shape = (n_elem, n_quad, ndof)
        rows = np.broadcast_to(mesh.elements[:, None, :], shape)
        cols = np.broadcast_to(np.arange(n_elem * n_quad).reshape(n_elem, n_quad, 1), shape)
        data = wts[:, :, None] * phi[None, :, :]
        P = sp.coo_matrix(
            (data.ravel(), (rows.ravel(), cols.ravel())),
            shape=(mesh.num_nodes, n_elem * n_quad),
        ).tocsr()
        mesh._load_operator = LoadOperator(
            coords=_coords(pts.reshape(n_elem * n_quad, dim)),
            matrix=P[free_nodes(mesh)],
        )
    return mesh._load_operator


def assemble_load(mesh: Mesh, f: Optional[Callable], times: Sequence[float]) -> np.ndarray:
    """Load vectors <f(., t), phi_i> with constrained entries dropped, one row
    per time in ``times``.

    ``f`` is called once for the whole block, with the quadrature-point
    coordinates as columns and the times as a row, so its values are an
    (E*Q, len(times)) array; the block is one sparse product with the mesh's
    load operator. The loads are real when the source values are.
    """
    op = load_operator(mesh)
    times = np.asarray(times, dtype=float)
    if f is None:
        return np.zeros((len(times), op.matrix.shape[0]))
    values = np.asarray(f(*(c[:, None] for c in op.coords), times[None, :]))
    values = values.astype(np.result_type(values, float), copy=False)
    return (op.matrix @ np.broadcast_to(values, (op.matrix.shape[1], len(times)))).T


def free_nodes(mesh: Mesh) -> np.ndarray:
    constrained = mesh.dirichlet_nodes()
    mask = np.ones(mesh.num_nodes, dtype=bool)
    mask[constrained] = False
    return np.nonzero(mask)[0]


def apply_S_constraints(matrix: sp.spmatrix, constrained_dofs: np.ndarray) -> sp.csr_matrix:
    """Drop the rows and columns of a sparse matrix at the constrained dofs."""
    mask = np.ones(matrix.shape[0], dtype=bool)
    mask[np.asarray(constrained_dofs, dtype=int)] = False
    keep = np.nonzero(mask)[0]
    return matrix.tocsr()[keep][:, keep]


@dataclass
class DofMap:
    """Free/constrained node bookkeeping for one mesh."""

    total: int
    free: np.ndarray
    constrained: np.ndarray

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.total, dtype=complex)
        full[self.free] = reduced
        return full

    def reduce(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.free]


@dataclass
class AssembledForms:
    """Constraint-reduced matrices of one discretized problem."""

    mesh: Mesh
    dofmap: DofMap
    k_plus: sp.csr_matrix
    mass: sp.csr_matrix
    first_order: sp.csr_matrix
    _k_solve: object = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return len(self.dofmap.free)

    def k_plus_solve(self, rhs: np.ndarray) -> np.ndarray:
        # K+ is factored once, in its own dtype and in minimum-degree order
        # on A^T + A; a real factor takes complex right sides through solver
        if self._k_solve is None:
            try:
                lu = spla.splu(self.k_plus.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SingularKPlus(str(exc)) from exc
            self._k_solve = solver(lu)
        return self._k_solve(rhs)


def dual_norm(F: np.ndarray, forms: AssembledForms) -> np.ndarray:
    """Discrete dual norms sqrt(F* K+^-1 F) of the rows of a block of reduced
    loads, from one multi-right-hand-side solve with the factored K+."""
    F = np.atleast_2d(np.asarray(F))
    X = forms.k_plus_solve(F.T)
    vals = np.real(np.einsum("ti,it->t", F.conj(), X))
    return np.sqrt(np.maximum(vals, 0.0))


def assemble_forms(mesh: Mesh, spec: ProblemSpec) -> AssembledForms:
    """Assemble and reduce all matrices for one problem."""
    constrained = mesh.dirichlet_nodes()
    free = free_nodes(mesh)
    if len(free) == 0:
        raise ConstraintOnAllDofs("no free degrees of freedom remain")
    dofmap = DofMap(total=mesh.num_nodes, free=free, constrained=constrained)
    K = apply_S_constraints(assemble_plus_form(mesh, spec), constrained)
    M = apply_S_constraints(assemble_mass(mesh), constrained)
    C = apply_S_constraints(assemble_first_order(mesh, spec), constrained)
    return AssembledForms(
        mesh=mesh, dofmap=dofmap, k_plus=K, mass=M, first_order=C
    )

