"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from ncparab import fields
from ncparab.assembly import assemble_forms
from ncparab.cli import main
from ncparab.config import preset_problem
from ncparab.estimates import (
    apriori_bounds,
    check_uniqueness_condition,
    compute_constants,
)
from ncparab.integrator import (
    build_galerkin_system,
    discretize,
    energy_identity_residuals,
    solve_evolution,
)
from ncparab.meshing import build_mesh
from ncparab.presets import PRESETS
from ncparab.problem import (
    ProblemSpec,
    UnitDiskPolygon,
    validate_coefficients,
)
from ncparab.sharpness import series_hs_lower_bound, series_plus_norm, witness_epsilon
from ncparab.spectral import verify_orthogonality
from tests.conftest import EXAMPLES, build_pipeline, child_env


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


@pytest.fixture(scope="module")
def preset_pipelines():
    """Every shipped preset discretized once, basis large enough for 2k runs."""
    out = {}
    for name, preset in PRESETS.items():
        spec = preset_problem(name)
        forms, basis = discretize(spec, preset.default_resolution, 2 * preset.default_k)
        k = min(preset.default_k, forms.N)
        out[name] = (spec, forms, basis, k, basis.size, preset.default_steps)
    return out


def test_criterion_1_manufactured_convergence(tmp_path):
    # the committed space-time study: heat1d at resolutions 25 to 200, with
    # dt = h/10, which makes steps = resolution at T = 0.1
    start = time.time()
    config = str(EXAMPLES / "convergence_space_time.cfg")
    assert main(["convergence", "--config", config, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "convergence.csv", delimiter=",", skiprows=1, ndmin=2)
    errors, orders = table[:, 2], table[1:, 3]
    elapsed = time.time() - start
    rounded = [round(float(o), 3) for o in orders]
    ok = (
        len(orders) == 3
        and all(abs(o - 2.0) <= 0.3 for o in orders)
        and errors[-1] < 1e-2
        and elapsed < 30.0
    )
    _report(
        1,
        "manufactured-solution convergence",
        ok,
        f"orders={rounded}, final rel err={errors[-1]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_spectral_accuracy():
    _, _, forms, basis, _ = build_pipeline("heat1d", resolution=200, k=3)
    exact = np.array([(j * np.pi) ** 2 for j in (1, 2, 3)])
    rel = np.abs(basis.eigenvalues - exact) / exact
    rep = verify_orthogonality(basis, forms.k_plus, forms.mass)
    ok = (
        bool(np.all(rel < 0.01))
        and rep.max_plus_residual <= 1e-9
        and rep.max_mass_offdiag <= 1e-9
    )
    _report(
        2,
        "spectral accuracy and orthogonality",
        ok,
        f"max eig rel err={float(np.max(rel)):.2e}, ortho residuals="
        f"{rep.max_plus_residual:.1e}/{rep.max_mass_offdiag:.1e}",
    )


def test_criterion_3_apriori_bounds_all_presets(preset_pipelines):
    start = time.time()
    worst_margin = np.inf
    ok = True
    details = []
    for name, (spec, forms, basis, k, k2, steps) in preset_pipelines.items():
        c1, c2 = compute_constants(spec, forms.mesh)
        reports = []
        for kk in (k, k2):
            traj = solve_evolution(spec, forms, basis, kk, steps, 0.5)
            reports.append(apriori_bounds(traj, c1, c2))
        same_rhs = reports[0].sup_rhs == reports[1].sup_rhs
        passes = all(r.sup_ok and r.energy_ok for r in reports)
        ok = ok and same_rhs and passes
        if reports[0].sup_rhs > 0:
            worst_margin = min(
                worst_margin,
                (reports[0].sup_rhs - reports[0].sup_lhs) / reports[0].sup_rhs,
            )
        if not (same_rhs and passes):
            details.append(name)
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(
        3,
        "a priori bounds on all presets, k-independent right side",
        ok,
        f"min relative margin={worst_margin:.3g}, {elapsed:.1f}s"
        + (f", failed: {details}" if details else ""),
    )


def test_criterion_4_uniqueness_twin_solves():
    spec, mesh, forms, basis, k = build_pipeline("forced1d", resolution=40, k=12)
    min_eig, cond_ok = check_uniqueness_condition(build_galerkin_system(forms, basis, k))
    diffs = []
    for steps in (40, 80, 160):
        t_cn = solve_evolution(spec, forms, basis, k, steps, 0.5)
        t_be = solve_evolution(spec, forms, basis, k, steps, 1.0)
        delta = t_cn.coefficients - t_be.coefficients
        diffs.append(
            float(
                np.max(
                    np.sqrt(
                        np.sum(basis.mass_norms[None, :k] * np.abs(delta) ** 2, axis=1)
                    )
                )
            )
        )
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    ok = cond_ok and min_eig >= -1e-10 and all(1.5 <= r <= 2.7 for r in ratios)
    _report(
        4,
        "uniqueness criterion via twin solves",
        ok,
        f"min eig={min_eig:.1e}, halving ratios={[round(r, 2) for r in ratios]}",
    )


def test_criterion_5_noncoercive_degeneracy():
    spec = preset_problem("disk")
    report = validate_coefficients(spec, build_mesh(spec.domain, 6, spec.dirichlet_selector))
    matrix_ok = (
        abs(report.min_complex_eigenvalue) <= 1e-10
        and abs(report.ellipticity_m - 1.0) <= 1e-10
    )
    rels = {"z": [], "z2": []}
    hs = []
    for segments, rings in ((64, 16), (128, 32)):
        disk_spec = preset_problem("disk")
        disk_spec.domain = UnitDiskPolygon(segments)
        mesh = build_mesh(disk_spec.domain, rings, disk_spec.dirichlet_selector)
        principal_only = ProblemSpec(
            domain=disk_spec.domain,
            final_time=1.0,
            principal=disk_spec.principal,
            boundary_b0=fields.constant_scalar(0.0),
            boundary_b1=fields.constant_scalar(1.0),
        )
        P = assemble_forms(mesh, principal_only).k_plus
        K = assemble_forms(mesh, disk_spec).k_plus
        z = mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1]
        hs.append(2.0 * np.pi / segments)
        for name, w in (("z", z), ("z2", z**2)):
            p = float(np.real(np.vdot(w, P @ w)))
            full = float(np.real(np.vdot(w, K @ w)))
            rels[name].append(p / full)
    z_exact = all(r <= 1e-12 for r in rels["z"])
    z2_h2 = all(rel <= h**2 for rel, h in zip(rels["z2"], hs))
    ratio = rels["z2"][0] / rels["z2"][1]
    ok = matrix_ok and z_exact and z2_h2 and 2.5 <= ratio <= 6.0
    _report(
        5,
        "non-coercive degeneracy annihilates holomorphic interpolants",
        ok,
        f"m={report.ellipticity_m}, min eig={report.min_complex_eigenvalue:.1e}, "
        f"z2 rel={rels['z2'][0]:.1e}->{rels['z2'][1]:.1e} (ratio {ratio:.2f})",
    )


def discrete_series_energy(mesh, spec, epsilon, K):
    """Discrete Bochner energy norm of the series truncated after z^K on a
    disk mesh.

    Interpolates z^k at the free nodes (those off the closure of S, all of
    them on the paper's disk), forms the Gram matrix of the powers in the
    energy product K+ of ``assemble_forms``, and contracts it with the time
    weights of c_k(t) = t^(k/2) / (T^((k+1)/2) (k+1)^(eps/2)):
    G[j, k] = int_0^T conj(c_j) c_k dt = ((j+k)/2 + 1)^-1 ((j+1)(k+1))^(-eps/2),
    independent of T. Converges to 2 pi sum_{k<=K} (k+1)^(-1-eps) under mesh
    refinement.
    """
    forms = assemble_forms(mesh, spec)
    z = forms.dofmap.reduce(mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1])
    W = np.stack([z**k for k in range(K + 1)], axis=1)
    gram = W.conj().T @ (forms.k_plus @ W)
    k = np.arange(K + 1, dtype=float)
    weights = (k[:, None] + k[None, :]) / 2.0 + 1.0
    G = ((k[:, None] + 1.0) * (k[None, :] + 1.0)) ** (-epsilon / 2.0) / weights
    return float(np.real(np.sum(G * gram)))


def test_criterion_6_sharpness_example():
    start = time.time()
    # bracket of the eps = 1 series against 2 pi zeta(2) = pi^3 / 3
    limit = np.pi**3 / 3.0
    partial, tail = series_plus_norm(1.0, 1_000_000)
    bracket_ok = partial <= limit <= partial + tail

    witnesses_ok = True
    for s in (0.6, 0.75, 0.9):
        epsilon = witness_epsilon(s)
        partial_a, tail_a = series_plus_norm(epsilon, 200_000)
        lower = series_hs_lower_bound(s, epsilon, 200_000)
        witnesses_ok = witnesses_ok and lower.diverges and lower.growth_observed
        witnesses_ok = witnesses_ok and np.isfinite(partial_a + tail_a)

    eps, K = 0.5, 8
    analytic = 2.0 * np.pi * float(np.sum((np.arange(K + 1) + 1.0) ** (-1.0 - eps)))
    spec = preset_problem("disk")
    spec.domain = UnitDiskPolygon(128)
    mesh = build_mesh(spec.domain, 32, spec.dirichlet_selector)
    value = discrete_series_energy(mesh, spec, eps, K)
    cross_rel = abs(value - analytic) / analytic
    elapsed = time.time() - start
    ok = bracket_ok and witnesses_ok and cross_rel < 0.05 and elapsed < 60.0
    _report(
        6,
        "embedding sharpness series",
        ok,
        f"bracket ok={bracket_ok}, cross-validation rel={cross_rel:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_energy_identity_all_presets(preset_pipelines):
    worst = 0.0
    for name, (spec, forms, basis, k, _, steps) in preset_pipelines.items():
        traj = solve_evolution(spec, forms, basis, k, steps, 1.0)
        res = energy_identity_residuals(traj)
        if len(res):
            worst = max(worst, float(np.max(res)))
    ok = worst <= 1e-9
    _report(7, "backward-Euler energy identity", ok, f"max relative residual={worst:.1e}")


def test_criterion_8_deterministic_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.preset = drift1d\nmesh.resolution = 30\nbasis.k = 10\ntime.steps = 50\n"
    )
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "ncparab.cli", "solve", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(
            tuple((out / f).read_bytes() for f in ("trajectory.csv", "report.csv", "solution_final.csv"))
        )
    ok = payloads[0] == payloads[1]
    _report(8, "byte-identical repeated runs", ok)
