"""2D verification against closed forms: the Neumann square and the disk.

cos(pi x) cos(pi y) has vanishing normal derivative on the unit square, so
with identity principal part, unit zero-order weight and zero Robin weight it
evolves exactly as exp(-(2 pi^2 + 1) t) cos(pi x) cos(pi y). This exercises
the full 2D pipeline (structured triangulation, gradient mapping, eigenbasis,
time stepping) against an analytic solution.
"""

import numpy as np
import pytest

from ncparab import fields
from ncparab.assembly import assemble_forms
from ncparab.config import preset_problem
from ncparab.integrator import discretize, reconstruct_solution, solve_evolution
from ncparab.meshing import build_mesh
from ncparab.problem import ProblemSpec, Rectangle, UnitDiskPolygon

DECAY_RATE = 2.0 * np.pi**2 + 1.0


def _u0(x, y):
    return np.cos(np.pi * x) * np.cos(np.pi * y) + 0.0j


def _neumann_square_spec():
    return ProblemSpec(
        domain=Rectangle(0.0, 1.0, 0.0, 1.0),
        final_time=0.05,
        principal=fields.constant_matrix(np.eye(2)),
        zero_order=fields.constant_scalar(1.0),
        boundary_b0=fields.constant_scalar(0.0),
        boundary_b1=fields.constant_scalar(1.0),
        initial=_u0,
    )


def _solve(spec, resolution, k, steps):
    forms, basis = discretize(spec, resolution, k)
    return solve_evolution(spec, forms, basis, basis.size, steps, 0.5)


def _rel_error(spec, traj):
    u = reconstruct_solution(traj, spec.final_time)
    mesh, M = traj.forms.mesh, traj.forms.mass
    exact = np.exp(-DECAY_RATE * spec.final_time) * _u0(mesh.nodes[:, 0], mesh.nodes[:, 1])
    d = u - exact
    return float(
        np.sqrt(np.real(np.vdot(d, M @ d)) / np.real(np.vdot(exact, M @ exact)))
    )


def test_neumann_square_matches_closed_form():
    spec = _neumann_square_spec()
    err = _rel_error(spec, _solve(spec, 16, 60, 50))
    assert err < 0.02


def test_neumann_square_second_order_in_space():
    spec = _neumann_square_spec()
    errs = [_rel_error(spec, _solve(spec, res, 60, 50)) for res in (8, 16)]
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_constant_is_exact_pencil_eigenvector():
    # stiffness annihilates constants exactly, so with a00 = 1 the constant
    # vector solves K+ h = 1 * M h discretely, at any resolution
    forms, basis = discretize(_neumann_square_spec(), 6, 1)
    ones = np.ones(forms.N, dtype=complex)
    residual = forms.k_plus @ ones - forms.mass @ ones
    assert np.max(np.abs(residual)) <= 1e-13
    assert basis.eigenvalues[0] == pytest.approx(1.0, abs=1e-11)


def test_disk_mesh_fills_polygon_exactly():
    for segments, rings in ((24, 3), (48, 5)):
        mesh = build_mesh(UnitDiskPolygon(segments), rings, None)
        polygon_area = 0.5 * segments * np.sin(2.0 * np.pi / segments)
        mass = assemble_forms(mesh, preset_problem("disk")).mass
        assert mass.sum() == pytest.approx(polygon_area, rel=1e-12)


def test_disk_energy_form_closed_form_on_linear_fields():
    # independent oracle for the whole degenerate-disk assembly: linear
    # fields are interpolated exactly, |D grad conj(z)|^2 = 4, and the chord
    # integral of |linear|^2 is L (|a|^2 + Re(a conj(b)) + |b|^2) / 3
    for segments, rings in ((24, 4), (64, 6)):
        spec = preset_problem("disk")
        spec.domain = UnitDiskPolygon(segments)
        mesh = build_mesh(spec.domain, rings, None)
        K = assemble_forms(mesh, spec).k_plus
        z = mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1]
        area = 0.5 * segments * np.sin(2.0 * np.pi / segments)
        chord = 2.0 * np.sin(np.pi / segments) * (2.0 + np.cos(2.0 * np.pi / segments)) / 3.0
        boundary_total = segments * chord
        anti = float(np.real(np.vdot(z.conj(), K @ z.conj())))
        holo = float(np.real(np.vdot(z, K @ z)))
        assert anti == pytest.approx(4.0 * area + boundary_total, abs=1e-12)
        assert holo == pytest.approx(boundary_total, abs=1e-12)
