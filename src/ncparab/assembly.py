"""P1 finite element assembly of the discrete forms.

Three matrices are built on the free nodes, the nodes outside the
degenerate boundary set S:

* ``k_plus`` -- the energy inner product: the principal part assembled
  through the pointwise factor D (so it is Hermitian PSD by construction,
  also for degenerate principal matrices), plus the nonnegative zero-order
  weight, plus the Robin boundary mass with weight b00/b1;
* ``mass``   -- the L2 mass matrix, exact for P1;
* ``first_order`` -- the non-symmetric form pairing the directional
  derivatives D_l against the test function, plus the delta_a0 weight. With
  no drift and a constant delta_a0 of 0 it is the empty matrix.

The coefficients may be complex, so the element matrices are computed in
complex arithmetic; a matrix whose imaginary parts all come out exactly 0
is stored real (float64), so that real data are factored, solved and
eigensolved in real arithmetic. The mass matrix is always real.

Every form reads the geometry and the quadrature points of its mesh from
the one table the mesh keeps (``Mesh.quadrature``). The principal factor is
evaluated once per quadrature point for both forms that read it; a constant
principal matrix is factored once, and its element matrices formed once.

All three forms of one assembly land in their matrices through one scatter
plan (``build_scatter_plan``): the CSR pattern of the free block and the
position in its data array of every element and Robin-facet entry. A form
is then one ``np.bincount`` per real component of its element data,
duplicates summed in element order, so K+ is exactly Hermitian and a
reduced form equals P^T A P of the full one bit for bit. The full-node
forms come from the same code through a plan that keeps every node.

Source loads go through one sparse load operator per mesh, which maps the
source values at all quadrature points to the reduced nodal loads, so a
block of times costs one source evaluation and one sparse product. The
operator is real; the loads are real or complex like the source values.
Their dual norms solve with the Hermitian factor of K+ (``spectral.factor``),
which the forms make on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConstraintOnAllDofs
from .fields import axes
from .meshing import Mesh, Quadrature
from .problem import ProblemSpec, factorize_principal
from .spectral import factor


@dataclass(frozen=True)
class ScatterPlan:
    """CSR pattern of one block of a mesh's P1 forms, the rows and columns
    of the nodes it keeps, and where each element-matrix entry and each
    Robin-facet entry lands in its data array: ``element_slots[e, a, b]`` is
    the position of entry (a, b) of element e, ``facet_slots`` the same for
    the facets outside S, and -1 marks an entry with a node outside the block."""

    indptr: np.ndarray
    indices: np.ndarray
    element_slots: np.ndarray  # (E, ndof, ndof)
    facet_slots: np.ndarray  # (Robin facets, fdof, fdof)

    @property
    def size(self) -> int:
        return len(self.indptr) - 1

    def _sum(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        # bin 0 collects the dropped entries (slot -1)
        nnz = len(self.indices)
        return np.bincount(slots.ravel() + 1, values.ravel(), minlength=nnz + 1)[1:]

    def scatter(self, element_data: np.ndarray, facet_data: Optional[np.ndarray] = None):
        """The block's matrix of element (and Robin-facet) data; complex data
        take one bincount for the real and one for the imaginary part."""
        parts = [(self.element_slots, element_data)]
        if facet_data is not None:
            parts.append((self.facet_slots, facet_data))
        dtype = np.result_type(*(d for _, d in parts))
        data = np.empty(len(self.indices), dtype=dtype)
        for component in ("real", "imag") if dtype.kind == "c" else ("real",):
            total = sum(self._sum(slots, getattr(d, component)) for slots, d in parts)
            setattr(data, component, total)
        # each matrix owns its index arrays: the forms of one assembly share
        # the plan, and K+ drops its exact zeros in place
        shape = (self.size, self.size)
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=shape)


def build_scatter_plan(mesh: Mesh, keep: np.ndarray) -> ScatterPlan:
    """The scatter plan of the block of the (sorted) nodes ``keep``: one
    unique over the element node pairs gives the pattern and every element
    slot; facets are element edges (or nodes, in 1D), so their slots are
    found in the same pattern."""
    n = len(keep)
    # int32 keys row * n + col where they fit, to halve the sort's arrays
    local = np.full(mesh.num_nodes, -1, dtype=np.int32 if n * n < 2**31 else np.int64)
    local[keep] = np.arange(n)

    def keys(conn):  # row * n + col of each node pair, -1 outside the block
        idx = local[conn]
        rows, cols = idx[:, :, None], idx[:, None, :]
        return np.where((rows >= 0) & (cols >= 0), rows * n + cols, -1)

    element_keys = keys(mesh.elements)
    # np.unique(element_keys, return_inverse=True) through a stable sort,
    # several times faster on these keys, which come in runs
    flat = element_keys.ravel()
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    first = np.concatenate([[len(ranked) > 0], ranked[1:] != ranked[:-1]])
    pattern = ranked[first]
    index = np.int32 if max(len(flat), n) < 2**31 else np.int64
    slots = np.empty(len(flat), dtype=index)
    slots[order] = np.cumsum(first, dtype=index) - 1
    if len(pattern) and pattern[0] < 0:  # the key of the dropped entries
        pattern = pattern[1:]
        slots -= 1
    facet_keys = keys(mesh.boundary_facets[~mesh.facet_dirichlet])
    facet_slots = np.where(facet_keys >= 0, np.searchsorted(pattern, facet_keys), -1)
    counts = np.bincount(pattern // n, minlength=n)
    return ScatterPlan(
        indptr=np.concatenate([[0], np.cumsum(counts)]).astype(index),
        indices=(pattern % n).astype(index),
        element_slots=slots.reshape(element_keys.shape),
        facet_slots=facet_slots.astype(index),
    )


def _full_plan(mesh: Mesh) -> ScatterPlan:
    """The plan of the unreduced forms, which keeps every node."""
    return build_scatter_plan(mesh, np.arange(mesh.num_nodes))


def _gram(B: np.ndarray) -> np.ndarray:
    """B* B per element, summed one row of B at a time, so the result is
    exactly Hermitian."""
    return sum(B[:, l, :, None].conj() * B[:, l, None, :] for l in range(B.shape[1]))


def _per_point(quad: Quadrature, factor: Callable, gram: bool):
    """(B, B* B) for the rows B = D grads of the principal factor at each
    element quadrature point, in quadrature order, one point at a time; the
    Gram matrices only if ``gram``. A constant factor (one with a ``value``)
    gives the same B at every point, so both are computed once, in real
    arithmetic when the factor's imaginary part is exactly 0."""
    n_quad = quad.points.shape[1]

    def pair(B):
        return B, _gram(B) if gram else None

    D = getattr(factor, "value", None)
    if D is not None:
        return repeat(pair(real_if_exact(D) @ quad.grads), n_quad)
    return (pair(factor(*axes(quad.points[:, q])) @ quad.grads) for q in range(n_quad))


def _lower_order_vanishes(spec: ProblemSpec) -> bool:
    """No drift and no delta_a0, or a constant delta_a0 of 0."""
    delta_a0 = spec.zero_order_delta_a0
    return not spec.first_order and (delta_a0 is None or getattr(delta_a0, "value", None) == 0)


def _element_data(mesh: Mesh, spec: ProblemSpec, plus: bool, lower: bool):
    """Element matrices of K+ (its element part) and of the lower-order
    form, each only if asked for (None otherwise), from one walk over the
    element quadrature points that evaluates the principal factor
    (``factorize_principal(spec)``) once per point for both."""
    quad = mesh.quadrature
    n_quad = quad.points.shape[1]
    ndof = mesh.elements.shape[1]
    coeffs = list(spec.first_order or []) if lower else []
    shape = (len(mesh.elements), ndof, ndof)
    K = None
    C = np.zeros(shape, dtype=complex) if lower else None
    points = repeat((None, None), n_quad)
    if plus or coeffs:
        points = _per_point(quad, factorize_principal(spec), plus)
    for q, (B, gram) in enumerate(points):
        coords = axes(quad.points[:, q])
        wts, phi = quad.weights[:, q], quad.phi[q]
        if plus:
            if K is None:  # of the Gram matrices' type: real for a real factor
                K = np.zeros(shape, dtype=gram.dtype)
            K += wts[:, None, None] * gram
            if spec.zero_order_a00 is not None:
                a00 = np.real(np.asarray(spec.zero_order_a00(*coords)))
                K += (wts * a00)[:, None, None] * np.outer(phi, phi)
        if lower:
            if coeffs:
                drift = np.zeros((len(mesh.elements), ndof), dtype=complex)
                for l, a_l in enumerate(coeffs):
                    drift += np.asarray(a_l(*coords), dtype=complex)[:, None] * B[:, l, :]
                C += wts[:, None, None] * phi[None, :, None] * drift[:, None, :]
            if spec.zero_order_delta_a0 is not None:
                da0 = np.asarray(spec.zero_order_delta_a0(*coords), dtype=complex)
                C += (wts * da0)[:, None, None] * np.outer(phi, phi)
    return K, C


def real_if_exact(a):
    """``a`` (an array or a sparse matrix) in real storage when it is complex
    with imaginary parts exactly 0, otherwise ``a`` itself."""
    values = a.data if sp.issparse(a) else a
    if not np.iscomplexobj(values) or np.any(values.imag):
        return a
    return a.real.copy()  # a contiguous copy; .real alone is a strided view


def _plus_matrix(mesh: Mesh, spec: ProblemSpec, plan: ScatterPlan, data: np.ndarray):
    """K+ on the plan's block from its element data plus the Robin term."""
    robin = ~mesh.facet_dirichlet
    fdata = None
    if robin.any() and spec.boundary_b00 is not None:
        quad = mesh.quadrature
        fpts, fwts, fphi = quad.facet_points[robin], quad.facet_weights[robin], quad.facet_phi
        fdof = mesh.boundary_facets.shape[1]
        fdata = np.zeros((len(fpts), fdof, fdof))
        for q in range(fpts.shape[1]):
            # b00 comes from problem.split_zero_order, which refuses b1 = 0
            coords = axes(fpts[:, q, :])
            ratio = np.real(spec.boundary_b00(*coords)) / np.real(spec.boundary_b1(*coords))
            fdata += (fwts[:, q] * ratio)[:, None, None] * np.outer(fphi[q], fphi[q])
    K = plan.scatter(data, fdata)
    # exact zeros (the couplings across the right angles of a structured
    # grid) are dropped, so the sparse factors see only the nonzero pattern
    K.eliminate_zeros()
    return real_if_exact(K)


def _lower_matrix(plan: ScatterPlan, data: Optional[np.ndarray]) -> sp.csr_matrix:
    """The lower-order form on the plan's block; None data (a form that
    vanishes identically) give the empty matrix."""
    if data is None:
        return sp.csr_matrix((plan.size, plan.size))
    return real_if_exact(plan.scatter(data))


def assemble_plus_form(mesh: Mesh, spec: ProblemSpec) -> sp.csr_matrix:
    """Energy-product matrix over all nodes (unreduced), Hermitian PSD;
    real when its entries are."""
    K, _ = _element_data(mesh, spec, plus=True, lower=False)
    return _plus_matrix(mesh, spec, _full_plan(mesh), K)


def _mass_data(mesh: Mesh) -> np.ndarray:
    """The exact P1 element mass matrices."""
    measures = mesh.quadrature.measures
    if mesh.dim == 1:
        pattern = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return measures[:, None, None] * pattern


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """L2 mass matrix over all nodes, from the exact P1 element mass."""
    return _full_plan(mesh).scatter(_mass_data(mesh))


def assemble_first_order(mesh: Mesh, spec: ProblemSpec) -> sp.csr_matrix:
    """Matrix of the lower-order form over all nodes (non-symmetric); real
    when its entries are, empty when the form vanishes identically."""
    lower = not _lower_order_vanishes(spec)
    _, C = _element_data(mesh, spec, plus=False, lower=lower)
    return _lower_matrix(_full_plan(mesh), C)


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

    @property
    def N(self) -> int:
        return len(self.dofmap.free)

    @cached_property
    def k_plus_solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """The solve of K+, factored on first use (``NotSPD`` if it is not
        positive definite); a copy with another K+ factors its own."""
        return factor(self.k_plus, "energy matrix K+", hermitian=True)


def dual_norm(F: np.ndarray, forms: AssembledForms) -> np.ndarray:
    """Discrete dual norms sqrt(F* K+^-1 F) of the rows of a block of reduced
    loads, from one multi-right-hand-side solve with the factored K+."""
    F = np.atleast_2d(np.asarray(F))
    X = forms.k_plus_solve(F.T)
    vals = np.real(np.einsum("ti,it->t", F.conj(), X))
    return np.sqrt(np.maximum(vals, 0.0))


def assemble_forms(mesh: Mesh, spec: ProblemSpec) -> AssembledForms:
    """Assemble all matrices for one problem on the free nodes."""
    free = free_nodes(mesh)
    if len(free) == 0:
        raise ConstraintOnAllDofs("no free degrees of freedom remain")
    dofmap = DofMap(total=mesh.num_nodes, free=free, constrained=mesh.dirichlet_nodes())
    plan = build_scatter_plan(mesh, free)
    K, C = _element_data(mesh, spec, plus=True, lower=not _lower_order_vanishes(spec))
    return AssembledForms(
        mesh=mesh,
        dofmap=dofmap,
        k_plus=_plus_matrix(mesh, spec, plan, K),
        mass=plan.scatter(_mass_data(mesh)),
        first_order=_lower_matrix(plan, C),
    )
