"""Mesh generation for the supported domain families.

P1 meshes only: segments on an interval, structured triangulations of a
rectangle, and a ring-wise triangulation of the unit disk approximated by an
inscribed regular polygon. Boundary facets carry outward unit normals,
measures, and a Dirichlet tag decided by a midpoint predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDomain
from .problem import Domain, Interval, Rectangle, UnitDiskPolygon


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
    facet_normals: np.ndarray
    facet_measures: np.ndarray
    facet_dirichlet: np.ndarray
    size: Optional[float] = None
    # Built on first use by ``assembly.load_operator``; not part of the mesh.
    _load_operator: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.size is None:
            p = self.nodes[self.elements]
            edges = p - np.roll(p, 1, axis=1)
            self.size = float(np.max(np.linalg.norm(edges, axis=2)))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def facet_midpoints(self) -> np.ndarray:
        return self.nodes[self.boundary_facets].mean(axis=1)

    def dirichlet_nodes(self) -> np.ndarray:
        """Nodes on the closure of the constrained set (sorted, unique)."""
        tagged = self.boundary_facets[self.facet_dirichlet]
        return np.unique(tagged.ravel()) if len(tagged) else np.array([], dtype=int)

    def element_measures(self) -> np.ndarray:
        if self.dim == 1:
            return np.abs(np.diff(self.nodes[self.elements][:, :, 0], axis=1))[:, 0]
        p = self.nodes[self.elements]
        return 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )


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
        mids = mesh.facet_midpoints()
        coords = tuple(mids[:, i] for i in range(mesh.dim))
        sel = np.asarray(s_selector(*coords), dtype=bool)
        mesh.facet_dirichlet = np.broadcast_to(sel, (len(mids),)).copy()
    return mesh


def _interval_mesh(domain: Interval, resolution: int) -> Mesh:
    nodes = np.linspace(domain.a, domain.b, resolution + 1)[:, None]
    elements = np.stack([np.arange(resolution), np.arange(1, resolution + 1)], axis=1)
    facets = np.array([[0], [resolution]])
    normals = np.array([[-1.0], [1.0]])
    measures = np.ones(2)
    size = (domain.b - domain.a) / resolution
    return Mesh(1, nodes, elements, facets, normals, measures, np.zeros(2, dtype=bool), size)


def _rectangle_mesh(domain: Rectangle, resolution: int) -> Mesh:
    n = resolution
    xs = np.linspace(domain.ax, domain.bx, n + 1)
    ys = np.linspace(domain.ay, domain.by, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def idx(i, j):
        return i * (n + 1) + j

    elements = []
    for i in range(n):
        for j in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    elements = np.array(elements)

    facets, normals = [], []
    for i in range(n):  # bottom (y = ay) and top (y = by)
        facets.append((idx(i, 0), idx(i + 1, 0)))
        normals.append((0.0, -1.0))
        facets.append((idx(i, n), idx(i + 1, n)))
        normals.append((0.0, 1.0))
    for j in range(n):  # left (x = ax) and right (x = bx)
        facets.append((idx(0, j), idx(0, j + 1)))
        normals.append((-1.0, 0.0))
        facets.append((idx(n, j), idx(n, j + 1)))
        normals.append((1.0, 0.0))
    facets = np.array(facets)
    normals = np.array(normals)
    measures = np.linalg.norm(nodes[facets[:, 1]] - nodes[facets[:, 0]], axis=1)
    size = float(np.hypot((domain.bx - domain.ax) / n, (domain.by - domain.ay) / n))
    dirichlet = np.zeros(len(facets), dtype=bool)
    return Mesh(2, nodes, elements, facets, normals, measures, dirichlet, size)


def _disk_mesh(domain: UnitDiskPolygon, resolution: int) -> Mesh:
    """Ring-wise triangulation: polygon vertices on concentric circles,
    a fan around the center, quads split into triangles between rings."""
    k = domain.segments
    if k < 3:
        raise InvalidDomain("disk polygon needs at least 3 segments")
    rings = resolution
    angles = 2.0 * np.pi * np.arange(k) / k
    nodes = [np.zeros((1, 2))]
    for i in range(1, rings + 1):
        r = i / rings
        nodes.append(np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1))
    nodes = np.vstack(nodes)

    def ring_idx(i, j):
        return 1 + (i - 1) * k + (j % k)

    elements = []
    for j in range(k):  # center fan
        elements.append((0, ring_idx(1, j), ring_idx(1, j + 1)))
    for i in range(1, rings):
        for j in range(k):
            a, b = ring_idx(i, j), ring_idx(i, j + 1)
            c, d = ring_idx(i + 1, j), ring_idx(i + 1, j + 1)
            elements.append((a, d, b))
            elements.append((a, c, d))
    elements = _orient_positive(nodes, np.array(elements))

    facets = np.array([(ring_idx(rings, j), ring_idx(rings, j + 1)) for j in range(k)])
    edges = nodes[facets[:, 1]] - nodes[facets[:, 0]]
    measures = np.linalg.norm(edges, axis=1)
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / measures[:, None]
    # Outward means pointing away from the centroid at the origin.
    mids = 0.5 * (nodes[facets[:, 0]] + nodes[facets[:, 1]])
    flip = np.sum(normals * mids, axis=1) < 0
    normals[flip] *= -1.0
    return Mesh(2, nodes, elements, facets, normals, measures, np.zeros(k, dtype=bool))


def _orient_positive(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    p = nodes[elements]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    out = elements.copy()
    neg = area2 < 0
    out[neg, 1], out[neg, 2] = elements[neg, 2], elements[neg, 1]
    return out

