"""Mesh generation for the supported domain families.

P1 meshes only: segments on an interval, structured triangulations of a
rectangle, and a ring-wise triangulation of the unit disk approximated by an
inscribed regular polygon. Boundary facets carry their measures and a
Dirichlet tag decided by a midpoint predicate.

Each mesh builds its geometry and quadrature once (``Mesh.quadrature``):
2-point Gauss on segments and edge midpoints on triangles, exact for
quadratic integrands. The forms, the loads, the validation and the
constants c1, c2 see the coefficients at these points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDomain
from .fields import axes
from .problem import Domain, Interval, Rectangle, UnitDiskPolygon

_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
# barycentric coordinates of the edge midpoints, also the P1 values there
_MIDPOINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


@dataclass(frozen=True)
class Quadrature:
    """Element geometry and quadrature of one mesh; the weights include the
    measures. Facet rules cover every boundary facet, Dirichlet or not."""

    grads: np.ndarray  # (E, dim, dim+1), constant P1 gradients per element
    measures: np.ndarray  # (E,), element lengths or areas
    points: np.ndarray  # (E, Q, dim)
    weights: np.ndarray  # (E, Q)
    phi: np.ndarray  # (Q, dim+1), P1 values at the points
    facet_points: np.ndarray  # (F, Qb, dim)
    facet_weights: np.ndarray  # (F, Qb)
    facet_phi: np.ndarray  # (Qb, dim), P1 facet values at the points


@dataclass
class Mesh:
    """Conforming P1 mesh.

    ``nodes`` is (N, dim); ``elements`` is (E, dim+1) node indices with
    positive orientation; facets are (F, dim) node indices (a single node in
    1D). ``facet_dirichlet`` marks facets belonging to the constrained set.
    ``size`` is the mesh size h, the longest element edge; the structured
    generators give it from their exact spacing, otherwise it is measured
    from the nodes.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    facet_measures: np.ndarray
    facet_dirichlet: np.ndarray
    size: Optional[float] = None

    def __post_init__(self):
        if self.size is None:
            p = self.nodes[self.elements]
            edges = p - np.roll(p, 1, axis=1)
            self.size = float(np.max(np.linalg.norm(edges, axis=2)))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def quadrature(self) -> Quadrature:
        """Geometry and quadrature, built on first use and kept."""
        return build_quadrature(self)

    def dirichlet_nodes(self) -> np.ndarray:
        """Nodes on the closure of the constrained set (sorted, unique)."""
        tagged = self.boundary_facets[self.facet_dirichlet]
        return np.unique(tagged.ravel()) if len(tagged) else np.array([], dtype=int)


def _gauss_segments(p: np.ndarray, measures: np.ndarray):
    """2-point Gauss rule on segments p (S, 2, dim): points (S, 2, dim),
    weights (S, 2) and P1 values (2, 2)."""
    s = np.array(_GAUSS2)
    pts = p[:, None, 0, :] + s[None, :, None] * (p[:, None, 1, :] - p[:, None, 0, :])
    return pts, 0.5 * measures[:, None] * np.ones((1, 2)), np.stack([1.0 - s, s], axis=1)


def build_quadrature(mesh: Mesh) -> Quadrature:
    """The element geometry and the element and facet quadrature of a mesh."""
    p = mesh.nodes[mesh.elements]
    facet_p = mesh.nodes[mesh.boundary_facets]
    if mesh.dim == 1:
        h = p[:, 1, 0] - p[:, 0, 0]
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, None, :]
        measures = np.abs(h)
        rule = _gauss_segments(p, measures)
        facet_rule = (facet_p[:, None, 0, :], mesh.facet_measures[:, None], np.ones((1, 1)))
        return Quadrature(grads, measures, *rule, *facet_rule)
    J = np.stack([p[:, 1, :] - p[:, 0, :], p[:, 2, :] - p[:, 0, :]], axis=2)  # edge columns
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    adj_t = np.stack([J[:, 1, 1], -J[:, 1, 0], -J[:, 0, 1], J[:, 0, 0]], axis=1).reshape(-1, 2, 2)
    grads = (adj_t / det[:, None, None]) @ np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    measures = 0.5 * np.abs(det)
    points = np.einsum("qa,ead->eqd", _MIDPOINTS, p)
    weights = measures[:, None] * np.full((1, 3), 1.0 / 3.0)
    facet_rule = _gauss_segments(facet_p, mesh.facet_measures)
    return Quadrature(grads, measures, points, weights, _MIDPOINTS, *facet_rule)


def build_mesh(domain: Domain, resolution: int, s_selector: Optional[Callable] = None) -> Mesh:
    """Uniform mesh of the given domain with Dirichlet facets tagged.

    ``s_selector`` is a vectorized predicate on facet midpoints; ``None``
    leaves the constrained set empty.
    """
    if resolution < 2:
        raise InvalidDomain("resolution must be at least 2")
    if isinstance(domain, Interval):
        mesh = _interval_mesh(domain, resolution)
    elif isinstance(domain, Rectangle):
        mesh = _rectangle_mesh(domain, resolution)
    elif isinstance(domain, UnitDiskPolygon):
        mesh = _disk_mesh(domain, resolution)
    else:
        raise InvalidDomain(f"unsupported domain {domain!r}")

    if s_selector is not None:
        mids = mesh.nodes[mesh.boundary_facets].mean(axis=1)
        sel = np.asarray(s_selector(*axes(mids)), dtype=bool)
        mesh.facet_dirichlet = np.broadcast_to(sel, (len(mids),)).copy()
    return mesh


def _interval_mesh(domain: Interval, resolution: int) -> Mesh:
    nodes = np.linspace(domain.a, domain.b, resolution + 1)[:, None]
    elements = np.stack([np.arange(resolution), np.arange(1, resolution + 1)], axis=1)
    facets = np.array([[0], [resolution]])
    size = (domain.b - domain.a) / resolution
    return Mesh(1, nodes, elements, facets, np.ones(2), np.zeros(2, dtype=bool), size)


def _edges(*lines: np.ndarray) -> np.ndarray:
    """The consecutive node pairs along each line of node indices, the i-th
    pair of every line before the (i+1)-th pair of any line."""
    return np.stack([np.stack([v[:-1], v[1:]], axis=1) for v in lines], axis=1).reshape(-1, 2)


def _plane_mesh(nodes, elements, facets, size=None) -> Mesh:
    measures = np.linalg.norm(nodes[facets[:, 1]] - nodes[facets[:, 0]], axis=1)
    dirichlet = np.zeros(len(facets), dtype=bool)
    return Mesh(2, nodes, elements, facets, measures, dirichlet, size)


def _rectangle_mesh(domain: Rectangle, resolution: int) -> Mesh:
    """Each grid cell split along its diagonal from (x_i, y_j) to
    (x_i+1, y_j+1); cells in row-major (i, j) order."""
    n = resolution
    xs = np.linspace(domain.ax, domain.bx, n + 1)
    ys = np.linspace(domain.ay, domain.by, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # node (x_i, y_j)
    v00, v10 = grid[:-1, :-1].ravel(), grid[1:, :-1].ravel()
    v01, v11 = grid[:-1, 1:].ravel(), grid[1:, 1:].ravel()
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    # bottom and top facets interleaved, then left and right
    facets = np.vstack([_edges(grid[:, 0], grid[:, n]), _edges(grid[0], grid[n])])
    size = float(np.hypot((domain.bx - domain.ax) / n, (domain.by - domain.ay) / n))
    return _plane_mesh(nodes, elements, facets, size)


def _disk_mesh(domain: UnitDiskPolygon, resolution: int) -> Mesh:
    """Ring-wise triangulation: polygon vertices on concentric circles,
    a fan around the center, quads split into triangles between rings.
    Angles increase counterclockwise, so every triangle is positive."""
    k = domain.segments
    if k < 3:
        raise InvalidDomain("disk polygon needs at least 3 segments")
    rings = resolution
    angles = 2.0 * np.pi * np.arange(k) / k
    radii = (np.arange(1, rings + 1) / rings)[:, None]
    ring_nodes = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=2)
    nodes = np.vstack([np.zeros((1, 2)), ring_nodes.reshape(-1, 2)])

    ring = 1 + np.arange(rings * k).reshape(rings, k)  # node (ring i+1, angle j)
    nxt = np.roll(ring, -1, axis=1)  # its neighbour at angle j+1
    fan = np.stack([np.zeros(k, dtype=ring.dtype), ring[0], nxt[0]], axis=1)
    a, b, c, d = ring[:-1], nxt[:-1], ring[1:], nxt[1:]
    quads = np.stack([a, d, b, a, c, d], axis=2).reshape(-1, 3)
    facets = np.stack([ring[-1], nxt[-1]], axis=1)
    return _plane_mesh(nodes, np.vstack([fan, quads]), facets)
