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

Every form reads the geometry and the quadrature points of its mesh from
the one table the mesh keeps (``Mesh.quadrature``). A constant principal
matrix is factored once, and its element matrices formed once.

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
from .fields import axes
from .meshing import Mesh, Quadrature
from .problem import ProblemSpec, factorize_principal
from .spectral import solver


def _per_point(quad: Quadrature, factor: Callable, form: Callable):
    """``form(B)`` for the rows B = D grads of the principal factor at each
    element quadrature point, in quadrature order, one point at a time. A
    constant factor (one with a ``value``) gives the same B at every point,
    so B and ``form(B)`` are computed once."""
    n_quad = quad.points.shape[1]
    D = getattr(factor, "value", None)
    if D is not None:
        return [form(D @ quad.grads)] * n_quad
    return (form(factor(*axes(quad.points[:, q])) @ quad.grads) for q in range(n_quad))


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


def assemble_plus_form(mesh: Mesh, spec: ProblemSpec, factor: Callable = None) -> sp.csr_matrix:
    """Energy-product matrix over all nodes (unreduced), Hermitian PSD;
    real when its entries are. ``factor`` defaults to ``factorize_principal(spec)``."""
    n = mesh.num_nodes
    quad = mesh.quadrature
    ndof = mesh.elements.shape[1]
    data = np.zeros((len(mesh.elements), ndof, ndof), dtype=complex)
    grams = _per_point(
        quad, factor or factorize_principal(spec), lambda B: np.einsum("eli,elj->eij", B.conj(), B)
    )
    for q, X in enumerate(grams):
        data += quad.weights[:, q, None, None] * X
        if spec.zero_order_a00 is not None:
            a00 = np.real(np.asarray(spec.zero_order_a00(*axes(quad.points[:, q]))))
            data += (quad.weights[:, q] * a00)[:, None, None] * np.outer(quad.phi[q], quad.phi[q])
    K = _scatter_matrix(mesh.elements, data, n)

    robin = ~mesh.facet_dirichlet
    if robin.any() and spec.boundary_b00 is not None:
        facets = mesh.boundary_facets[robin]
        fpts, fwts, fphi = quad.facet_points[robin], quad.facet_weights[robin], quad.facet_phi
        fdata = np.zeros((len(facets), facets.shape[1], facets.shape[1]))
        for q in range(fpts.shape[1]):
            # b00 comes from problem.split_zero_order, which refuses b1 = 0
            coords = axes(fpts[:, q, :])
            ratio = np.real(spec.boundary_b00(*coords)) / np.real(spec.boundary_b1(*coords))
            fdata += (fwts[:, q] * ratio)[:, None, None] * np.outer(fphi[q], fphi[q])
        K = K + _scatter_matrix(facets, fdata, n)
    return real_if_exact((K + K.conj().T) * 0.5)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """L2 mass matrix over all nodes, from the exact P1 element mass."""
    measures = mesh.quadrature.measures
    if mesh.dim == 1:
        pattern = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = measures[:, None, None] * pattern
    return _scatter_matrix(mesh.elements, data, mesh.num_nodes)


def assemble_first_order(mesh: Mesh, spec: ProblemSpec, factor: Callable = None) -> sp.csr_matrix:
    """Matrix of the lower-order form over all nodes (non-symmetric); real
    when its entries are. ``factor`` defaults to ``factorize_principal(spec)``."""
    n = mesh.num_nodes
    quad = mesh.quadrature
    ndof = mesh.elements.shape[1]
    data = np.zeros((len(mesh.elements), ndof, ndof), dtype=complex)
    coeffs = list(spec.first_order or [])
    rows = [None] * quad.points.shape[1]
    if coeffs:
        rows = _per_point(quad, factor or factorize_principal(spec), lambda B: B)
    for q, B in enumerate(rows):
        coords = axes(quad.points[:, q])
        wts, phi = quad.weights[:, q], quad.phi[q]
        if coeffs:
            drift = np.zeros((len(mesh.elements), ndof), dtype=complex)
            for l, a_l in enumerate(coeffs):
                drift += np.asarray(a_l(*coords), dtype=complex)[:, None] * B[:, l, :]
            data += wts[:, None, None] * phi[None, :, None] * drift[:, None, :]
        if spec.zero_order_delta_a0 is not None:
            da0 = np.asarray(spec.zero_order_delta_a0(*coords), dtype=complex)
            data += (wts * da0)[:, None, None] * np.outer(phi, phi)
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
        quad = mesh.quadrature
        n_elem, n_quad, dim = quad.points.shape
        ndof = mesh.elements.shape[1]
        shape = (n_elem, n_quad, ndof)
        rows = np.broadcast_to(mesh.elements[:, None, :], shape)
        cols = np.broadcast_to(np.arange(n_elem * n_quad).reshape(n_elem, n_quad, 1), shape)
        data = quad.weights[:, :, None] * quad.phi[None, :, :]
        P = sp.coo_matrix(
            (data.ravel(), (rows.ravel(), cols.ravel())),
            shape=(mesh.num_nodes, n_elem * n_quad),
        ).tocsr()
        mesh._load_operator = LoadOperator(
            coords=axes(quad.points.reshape(n_elem * n_quad, dim)),
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
    factor = factorize_principal(spec)
    K = apply_S_constraints(assemble_plus_form(mesh, spec, factor), constrained)
    M = apply_S_constraints(assemble_mass(mesh), constrained)
    C = apply_S_constraints(assemble_first_order(mesh, spec, factor), constrained)
    return AssembledForms(
        mesh=mesh, dofmap=dofmap, k_plus=K, mass=M, first_order=C
    )

