from collections import Counter

import numpy as np
import pytest

from ncparab.errors import InvalidDomain
from ncparab.meshing import build_mesh
from ncparab.problem import Interval, Rectangle, UnitDiskPolygon


def _edge_counts(mesh):
    counts = Counter()
    for tri in mesh.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[frozenset((tri[a], tri[b]))] += 1
    return counts


def test_interval_counts():
    mesh = build_mesh(Interval(0.0, 1.0), 4)
    assert mesh.num_nodes == 5
    assert len(mesh.elements) == 4
    assert len(mesh.boundary_facets) == 2
    assert np.allclose(mesh.element_measures(), 0.25)


def test_interval_normals():
    mesh = build_mesh(Interval(0.0, 1.0), 4)
    assert np.allclose(mesh.facet_normals, [[-1.0], [1.0]])
    assert np.allclose(mesh.facet_measures, 1.0)


@pytest.mark.parametrize("segments", [16, 64, 256])
def test_disk_polygon_perimeter(segments):
    # Inscribed regular polygon: perimeter 2 k sin(pi/k) -> 2 pi.
    mesh = build_mesh(UnitDiskPolygon(segments), 3)
    expected = 2.0 * segments * np.sin(np.pi / segments)
    assert np.sum(mesh.facet_measures) == pytest.approx(expected, rel=1e-12)
    assert abs(expected - 2.0 * np.pi) <= 2.0 * np.pi * (np.pi / segments) ** 2


def test_disk_mesh_geometry():
    mesh = build_mesh(UnitDiskPolygon(24), 4)
    assert mesh.num_nodes == 1 + 4 * 24
    assert np.all(mesh.element_measures() > 0.0)
    norms = np.linalg.norm(mesh.facet_normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # outward: positive projection onto the facet midpoint direction
    mids = mesh.facet_midpoints()
    assert np.all(np.sum(mesh.facet_normals * mids, axis=1) > 0.0)


def test_rectangle_conforming_and_areas():
    mesh = build_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 4)
    assert np.sum(mesh.element_measures()) == pytest.approx(2.0)
    counts = _edge_counts(mesh)
    boundary = {frozenset(f) for f in map(tuple, mesh.boundary_facets)}
    for edge, count in counts.items():
        assert count in (1, 2)
        if count == 1:
            assert edge in boundary
    assert all(counts[e] == 1 for e in boundary)


def test_rectangle_normals_unit_outward():
    mesh = build_mesh(Rectangle(0.0, 1.0, 0.0, 1.0), 3)
    assert np.allclose(np.linalg.norm(mesh.facet_normals, axis=1), 1.0)
    center = np.array([0.5, 0.5])
    mids = mesh.facet_midpoints()
    assert np.all(np.sum(mesh.facet_normals * (mids - center), axis=1) > 0.0)


def test_selector_all_tags_everything():
    mesh = build_mesh(
        Rectangle(0.0, 1.0, 0.0, 1.0),
        3,
        lambda x, y: np.ones(np.shape(x), dtype=bool),
    )
    assert mesh.facet_dirichlet.all()
    boundary_nodes = np.unique(mesh.boundary_facets.ravel())
    assert np.array_equal(mesh.dirichlet_nodes(), boundary_nodes)


def test_selector_partial_interval():
    mesh = build_mesh(Interval(0.0, 1.0), 4, lambda x: np.isclose(x, 0.0))
    assert list(mesh.facet_dirichlet) == [True, False]
    assert list(mesh.dirichlet_nodes()) == [0]


def test_no_selector_leaves_everything_robin():
    mesh = build_mesh(UnitDiskPolygon(12), 2)
    assert not mesh.facet_dirichlet.any()
    assert len(mesh.dirichlet_nodes()) == 0


def test_invalid_inputs():
    with pytest.raises(InvalidDomain):
        build_mesh(Interval(0.0, 1.0), 1)
    with pytest.raises(InvalidDomain):
        build_mesh("not-a-domain", 4)
    with pytest.raises(InvalidDomain):
        build_mesh(UnitDiskPolygon(2), 4)


def test_mesh_size_is_the_longest_edge():
    # exact spacing on the structured meshes, measured on the disk
    assert build_mesh(Interval(0.0, 1.0), 200).size == 1.0 / 200
    rect = build_mesh(Rectangle(0.0, 1.0, 0.0, 2.0), 8)
    assert rect.size == pytest.approx(np.hypot(1.0 / 8, 2.0 / 8), rel=1e-15)
    for mesh in (rect, build_mesh(UnitDiskPolygon(16), 4)):
        p = mesh.nodes[mesh.elements]
        edges = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2)
        assert np.max(edges) == pytest.approx(mesh.size, rel=1e-14)
