import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import fields
from ncparab.assembly import assemble_forms
from ncparab.errors import InvalidDomain
from ncparab.meshing import build_mesh
from ncparab.problem import Interval, ProblemSpec, Rectangle, UnitDiskPolygon

from tests.conftest import child_env


def _edge_counts(mesh):
    counts = Counter()
    for tri in mesh.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[frozenset((tri[a], tri[b]))] += 1
    return counts


def _measure(mesh, domain):
    """The domain measure that the mass matrix of ``mesh`` integrates."""
    spec = ProblemSpec(domain, 1.0, fields.constant_matrix(np.eye(mesh.dim)))
    return assemble_forms(mesh, spec).mass.sum()


def _signed_areas(mesh):
    p = mesh.nodes[mesh.elements]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def test_interval_counts():
    mesh = build_mesh(Interval(0.0, 1.0), 4)
    assert mesh.num_nodes == 5
    assert len(mesh.elements) == 4
    assert len(mesh.boundary_facets) == 2
    assert np.allclose(np.diff(mesh.nodes[mesh.elements, 0], axis=1), 0.25)
    assert np.allclose(mesh.facet_measures, 1.0)


@pytest.mark.parametrize("segments", [16, 64, 256])
def test_disk_polygon_perimeter(segments):
    # Inscribed regular polygon: perimeter 2 k sin(pi/k) -> 2 pi.
    mesh = build_mesh(UnitDiskPolygon(segments), 3)
    expected = 2.0 * segments * np.sin(np.pi / segments)
    assert np.sum(mesh.facet_measures) == pytest.approx(expected, rel=1e-12)
    assert abs(expected - 2.0 * np.pi) <= 2.0 * np.pi * (np.pi / segments) ** 2


def _loop_rectangle(n):
    """Elements and facets of the rectangle mesh, written as Python loops."""
    def idx(i, j):
        return i * (n + 1) + j

    elements, facets = [], []
    for i in range(n):
        for j in range(n):
            v00, v10, v01, v11 = idx(i, j), idx(i + 1, j), idx(i, j + 1), idx(i + 1, j + 1)
            elements += [(v00, v10, v11), (v00, v11, v01)]
    for i in range(n):  # bottom and top
        facets += [(idx(i, 0), idx(i + 1, 0)), (idx(i, n), idx(i + 1, n))]
    for j in range(n):  # left and right
        facets += [(idx(0, j), idx(0, j + 1)), (idx(n, j), idx(n, j + 1))]
    return np.array(elements), np.array(facets)


def _loop_disk(k, rings):
    """Nodes, elements and facets of the disk mesh, written as Python loops."""
    angles = 2.0 * np.pi * np.arange(k) / k
    nodes = [np.zeros((1, 2))]
    for i in range(1, rings + 1):
        r = i / rings
        nodes.append(np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1))

    def ring(i, j):
        return 1 + (i - 1) * k + (j % k)

    elements = [(0, ring(1, j), ring(1, j + 1)) for j in range(k)]
    for i in range(1, rings):
        for j in range(k):
            a, b, c, d = ring(i, j), ring(i, j + 1), ring(i + 1, j), ring(i + 1, j + 1)
            elements += [(a, d, b), (a, c, d)]
    facets = [(ring(rings, j), ring(rings, j + 1)) for j in range(k)]
    return np.vstack(nodes), np.array(elements), np.array(facets)


@pytest.mark.parametrize("resolution", [2, 3, 6, 24])
def test_generators_match_loop_reference(resolution):
    # element order fixes the summation order of the sparse assembly, so the
    # array generators must reproduce the loops entry for entry
    mesh = build_mesh(Rectangle(0.0, 1.0, -1.0, 2.0), resolution)
    elements, facets = _loop_rectangle(resolution)
    assert np.array_equal(mesh.elements, elements)
    assert np.array_equal(mesh.boundary_facets, facets)
    for k in (3, 48):
        mesh = build_mesh(UnitDiskPolygon(k), resolution)
        nodes, elements, facets = _loop_disk(k, resolution)
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.elements, elements)
        assert np.array_equal(mesh.boundary_facets, facets)
        edges = nodes[facets[:, 1]] - nodes[facets[:, 0]]
        assert np.array_equal(mesh.facet_measures, np.linalg.norm(edges, axis=1))


def test_disk_mesh_geometry():
    mesh = build_mesh(UnitDiskPolygon(24), 4)
    assert mesh.num_nodes == 1 + 4 * 24
    assert np.all(_signed_areas(mesh) > 0.0)


def test_rectangle_conforming_and_areas():
    domain = Rectangle(0.0, 2.0, 0.0, 1.0)
    mesh = build_mesh(domain, 4)
    assert _measure(mesh, domain) == pytest.approx(2.0, rel=1e-12)
    counts = _edge_counts(mesh)
    boundary = {frozenset(f) for f in map(tuple, mesh.boundary_facets)}
    for edge, count in counts.items():
        assert count in (1, 2)
        if count == 1:
            assert edge in boundary
    assert all(counts[e] == 1 for e in boundary)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["interval", "rectangle", "disk"]),
    resolution=st.integers(min_value=2, max_value=12),
    segments=st.integers(min_value=3, max_value=64),
    corner=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 2),
    extent=st.tuples(*[st.floats(min_value=0.25, max_value=4.0)] * 2),
)
def test_mass_sums_to_domain_measure(family, resolution, segments, corner, extent):
    # P1 mass rows sum to the hat-function integrals, so all entries add up
    # to the measure of the meshed domain: the interval length, the
    # rectangle area, or the inscribed polygon's area (k/2) sin(2 pi/k)
    (a, c), (lx, ly) = corner, extent
    if family == "interval":
        domain = Interval(a, a + lx)
        expected = domain.b - domain.a
    elif family == "rectangle":
        domain = Rectangle(a, a + lx, c, c + ly)
        expected = (domain.bx - domain.ax) * (domain.by - domain.ay)
    else:
        domain = UnitDiskPolygon(segments)
        expected = 0.5 * segments * np.sin(2.0 * np.pi / segments)
    mesh = build_mesh(domain, resolution)
    assert _measure(mesh, domain) == pytest.approx(expected, rel=1e-12)
    if mesh.dim == 2:
        assert np.all(_signed_areas(mesh) > 0.0)


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


def test_importing_the_mesher_leaves_scipy_unloaded():
    # the package namespace loads no submodule, so the mesher and the
    # modules it imports need numpy alone
    code = "import sys, ncparab.meshing; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
