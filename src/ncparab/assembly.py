"""P1 finite element assembly of the discrete forms.

``assemble_forms``, the one assembly entry point, builds three matrices on
the free nodes, the nodes outside the degenerate boundary set S:

* ``k_plus`` -- the energy inner product: the principal part assembled
  through the pointwise factor D (so it is Hermitian PSD by construction,
  also for degenerate principal matrices), plus the nonnegative part a00
  of a0, plus the Robin boundary mass with weight b0/b1
  (``problem.robin_weight``);
* ``mass``   -- the L2 mass matrix, exact for P1, positive definite
  whenever every element has a positive measure and every free node lies
  in an element, which ``assemble_forms`` checks instead of factoring it;
* ``first_order`` -- the non-symmetric form pairing the directional
  derivatives D_l against the test function, plus the remainder a0 - a00.
  With no drift and a constant a0 whose remainder is 0 it is the empty
  matrix.

a0 is evaluated once per quadrature point and split there
(``problem.split_zero_order``), so its two parts add up to a0 exactly.

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
reduced form equals P^T A P of the forms assembled on the same mesh with S
empty, bit for bit.

Source loads go through one sparse load operator per set of forms, built
on first use, which maps the source values at all quadrature points to the
reduced nodal loads, so a block of times costs one source evaluation and
one sparse product. The operator is real; the loads are real or complex
like the source values.
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

from .errors import ConfigError, ConstraintOnAllDofs, NotSPD
from .fields import axes
from .meshing import Mesh, Quadrature
from .problem import ProblemSpec, factorize_principal, robin_weight, split_zero_order
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


def _gram(B: np.ndarray) -> np.ndarray:
    """B* B per element, summed one row of B at a time, so the result is
    exactly Hermitian."""
    return sum(B[:, l, :, None].conj() * B[:, l, None, :] for l in range(B.shape[1]))


def _per_point(quad: Quadrature, factor: Callable):
    """(B, B* B) for the rows B = D grads of the principal factor at each
    element quadrature point, in quadrature order, one point at a time. A
    constant factor (one with a ``value``) gives the same B at every point,
    so both are computed once, in real arithmetic when the factor's
    imaginary part is exactly 0."""
    n_quad = quad.points.shape[1]

    def pair(B):
        return B, _gram(B)

    D = getattr(factor, "value", None)
    if D is not None:
        return repeat(pair(real_if_exact(D) @ quad.grads), n_quad)
    return (pair(factor(*axes(quad.points[:, q])) @ quad.grads) for q in range(n_quad))


def _lower_order_vanishes(spec: ProblemSpec) -> bool:
    """No drift, and no a0 or a constant a0 whose remainder a0 - a00 is 0."""
    if spec.first_order:
        return False
    a0 = getattr(spec.zero_order, "value", None)
    return spec.zero_order is None or (a0 is not None and split_zero_order(a0)[1] == 0)


def _element_data(mesh: Mesh, spec: ProblemSpec, lower: bool):
    """Element matrices of K+ (its element part) and of the lower-order
    form, the latter only if ``lower`` (None otherwise), from one walk over
    the element quadrature points that evaluates the principal factor
    (``factorize_principal(spec)``) and a0 once per point for both. A drift
    coefficient whose product with the principal factor overflows is no
    form: :class:`ConfigError`, which names it."""
    quad = mesh.quadrature
    ndof = mesh.elements.shape[1]
    coeffs = list(spec.first_order or []) if lower else []
    shape = (len(mesh.elements), ndof, ndof)
    K = None
    C = np.zeros(shape, dtype=complex) if lower else None
    for q, (B, gram) in enumerate(_per_point(quad, factorize_principal(spec))):
        coords = axes(quad.points[:, q])
        wts, phi = quad.weights[:, q], quad.phi[q]
        if K is None:  # of the Gram matrices' type: real for a real factor
            K = np.zeros(shape, dtype=gram.dtype)
        K += wts[:, None, None] * gram
        if spec.zero_order is not None:
            a00, delta_a0 = split_zero_order(spec.zero_order(*coords))
            K += (wts * a00)[:, None, None] * np.outer(phi, phi)
        if lower:
            if coeffs:
                drift = np.zeros((len(mesh.elements), ndof), dtype=complex)
                for l, a_l in enumerate(coeffs):
                    a = np.asarray(a_l(*coords), dtype=complex)
                    with np.errstate(over="ignore", invalid="ignore"):  # refused below
                        drift += a[:, None] * B[:, l, :]
                    bad = ~np.all(np.isfinite(drift), axis=1)
                    if np.any(bad):
                        value = np.broadcast_to(a, bad.shape)[bad][0]
                        raise ConfigError(
                            f"problem.first_order entry {l + 1} = {value} times the principal "
                            "factor overflows at an element quadrature point"
                        )
                C += wts[:, None, None] * phi[None, :, None] * drift[:, None, :]
            if spec.zero_order is not None:
                C += (wts * delta_a0)[:, None, None] * np.outer(phi, phi)
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
    if robin.any() and spec.boundary_b0 is not None:
        quad = mesh.quadrature
        fpts, fwts, fphi = quad.facet_points[robin], quad.facet_weights[robin], quad.facet_phi
        fdof = mesh.boundary_facets.shape[1]
        fdata = np.zeros((len(fpts), fdof, fdof))
        for q in range(fpts.shape[1]):
            coords = axes(fpts[:, q, :])
            ratio = robin_weight(spec.boundary_b0(*coords), spec.boundary_b1(*coords))
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


def _mass_data(mesh: Mesh) -> np.ndarray:
    """The exact P1 element mass matrices."""
    measures = mesh.quadrature.measures
    if mesh.dim == 1:
        pattern = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return measures[:, None, None] * pattern


def _check_mass_definite(mesh: Mesh, free: np.ndarray) -> None:
    """Refuse a mesh whose reduced mass matrix may not be positive definite
    (``NotSPD``). M sums |e| times a fixed positive definite pattern over
    the elements e, so it is definite on the free nodes when every element
    measure is positive and every free node lies in some element."""
    if not np.all(mesh.quadrature.measures > 0.0):
        raise NotSPD("mass matrix is not positive definite: an element has no positive measure")
    covered = np.zeros(mesh.num_nodes, dtype=bool)
    covered[mesh.elements] = True
    if not np.all(covered[free]):
        raise NotSPD("mass matrix is singular: a free node lies in no element")


def free_nodes(mesh: Mesh) -> np.ndarray:
    mask = np.ones(mesh.num_nodes, dtype=bool)
    mask[mesh.dirichlet_nodes()] = False
    return np.nonzero(mask)[0]


@dataclass(frozen=True)
class LoadOperator:
    """Sparse map from source values at the quadrature points of a mesh to
    reduced nodal loads: ``matrix[i, e*Q + q] = w_eq * phi_q(node i)``, with
    the quadrature weights (measure included) and P1 values baked in and
    only the free rows kept."""

    coords: tuple  # per-axis coordinates of the E*Q quadrature points
    matrix: sp.csr_matrix  # (free nodes, E*Q), real


@dataclass
class DofMap:
    """The free nodes of one mesh, and the maps between nodal vectors on
    all nodes and on the free ones."""

    total: int
    free: np.ndarray

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

    @cached_property
    def load_operator(self) -> LoadOperator:
        """The forms' load operator, built on first use."""
        quad = self.mesh.quadrature
        n_elem, n_quad, dim = quad.points.shape
        ndof = self.mesh.elements.shape[1]
        shape = (n_elem, n_quad, ndof)
        rows = np.broadcast_to(self.mesh.elements[:, None, :], shape)
        cols = np.broadcast_to(np.arange(n_elem * n_quad).reshape(n_elem, n_quad, 1), shape)
        data = quad.weights[:, :, None] * quad.phi[None, :, :]
        P = sp.coo_matrix(
            (data.ravel(), (rows.ravel(), cols.ravel())),
            shape=(self.mesh.num_nodes, n_elem * n_quad),
        ).tocsr()
        return LoadOperator(
            coords=axes(quad.points.reshape(n_elem * n_quad, dim)),
            matrix=P[self.dofmap.free],
        )


def assemble_load(
    forms: AssembledForms, f: Optional[Callable], times: Sequence[float]
) -> np.ndarray:
    """Load vectors <f(., t), phi_i> with constrained entries dropped, one row
    per time in ``times``.

    ``f`` is called once for the whole block, with the quadrature-point
    coordinates as columns and the times as a row, so its values are an
    (E*Q, len(times)) array; the block is one sparse product with the forms'
    load operator. The loads are real when the source values are.
    """
    op = forms.load_operator
    times = np.asarray(times, dtype=float)
    if f is None:
        return np.zeros((len(times), op.matrix.shape[0]))
    values = np.asarray(f(*(c[:, None] for c in op.coords), times[None, :]))
    values = values.astype(np.result_type(values, float), copy=False)
    return (op.matrix @ np.broadcast_to(values, (op.matrix.shape[1], len(times)))).T


def dual_norm(F: np.ndarray, forms: AssembledForms) -> np.ndarray:
    """Discrete dual norms sqrt(F* K+^-1 F) of the rows of a block of reduced
    loads, from one multi-right-hand-side solve with the factored K+."""
    F = np.atleast_2d(np.asarray(F))
    X = forms.k_plus_solve(F.T)
    vals = np.real(np.einsum("ti,it->t", F.conj(), X))
    return np.sqrt(np.maximum(vals, 0.0))


def assemble_forms(mesh: Mesh, spec: ProblemSpec) -> AssembledForms:
    """Assemble all matrices for one problem on the free nodes, after
    checking on the mesh that the mass matrix is positive definite."""
    free = free_nodes(mesh)
    if len(free) == 0:
        raise ConstraintOnAllDofs("no free degrees of freedom remain")
    _check_mass_definite(mesh, free)
    plan = build_scatter_plan(mesh, free)
    K, C = _element_data(mesh, spec, lower=not _lower_order_vanishes(spec))
    return AssembledForms(
        mesh=mesh,
        dofmap=DofMap(total=mesh.num_nodes, free=free),
        k_plus=_plus_matrix(mesh, spec, plan, K),
        mass=plan.scatter(_mass_data(mesh)),
        first_order=_lower_matrix(plan, C),
    )
