import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncparab import fields
from ncparab.config import RunConfig, build_problem, preset_problem
from ncparab.errors import NotSPD
from ncparab.estimates import (
    apriori_bounds,
    check_cauchy_bound,
    check_continuity,
    check_uniqueness_condition,
    compute_constants,
)
from ncparab.integrator import build_galerkin_system, discretize, solve_evolution
from ncparab.meshing import build_mesh
from ncparab.problem import Interval, ProblemSpec
from tests.conftest import build_pipeline


def _constants_spec(first_order=(), a0=0.0):
    return ProblemSpec(
        domain=Interval(0.0, 1.0),
        final_time=1.0,
        principal=fields.constant_matrix([[1.0]]),
        first_order=[fields.constant_scalar(a) for a in first_order],
        zero_order=fields.constant_scalar(a0),
    )


def _constants(**kwargs):
    spec = _constants_spec(**kwargs)
    return compute_constants(spec, build_mesh(spec.domain, 4))


def test_constants_zero():
    assert _constants() == (0.0, 0.0)


def test_constants_modulus_of_delta_a0():
    # c2 is the modulus of the remainder a0 - max(Re a0, 0)
    _, c2 = _constants(a0=-2.0 + 1.0j)
    assert c2 == pytest.approx(np.sqrt(5.0))
    assert _constants(a0=3.0 - 4.0j)[1] == 4.0
    assert _constants(a0=3.0)[1] == 0.0


def test_constants_euclidean_norm_of_sups():
    c1, _ = _constants(first_order=(3.0, 4.0))
    assert c1 == pytest.approx(5.0)


def test_bounds_zero_data_pass():
    spec, mesh, forms, basis, k = build_pipeline("zero1d", resolution=16, k=8)
    trajectory = solve_evolution(spec, forms, basis, k, 20, 0.5)
    report = apriori_bounds(trajectory, 0.0, 0.0)
    assert report.sup_lhs == 0.0 and report.sup_rhs == 0.0
    assert report.sup_ok and report.energy_ok


def test_bounds_heat_sup_attained_at_zero():
    spec, mesh, forms, basis, k = build_pipeline("heat1d", resolution=50, k=20)
    trajectory = solve_evolution(spec, forms, basis, k, 100, 0.5)
    c1, c2 = compute_constants(spec, mesh)
    assert (c1, c2) == (0.0, 0.0)
    report = apriori_bounds(trajectory, c1, c2)
    # heat semigroup decays, so the sup sits at t = 0 and the factor is 1
    assert report.gronwall_factor == 1.0
    assert report.sup_lhs == pytest.approx(trajectory.norm_l2_sq[0])
    assert report.sup_ok and report.energy_ok


def test_bounds_growth_case_holds_with_exponential_factor():
    spec, mesh, forms, basis, k = build_pipeline("growth1d", resolution=40, k=15)
    trajectory = solve_evolution(spec, forms, basis, k, 200, 0.5)
    c1, c2 = compute_constants(spec, mesh)
    assert (c1, c2) == (0.0, 5.0)
    report = apriori_bounds(trajectory, c1, c2)
    assert report.gronwall_factor == pytest.approx(np.exp(10.0 * spec.final_time))
    assert report.sup_ok and report.energy_ok


def test_growth_single_mode_matches_scalar_ode():
    # for k = 1 the system is d1 g' + (1 + Chat) g = 0 with exponential
    # solution; the trajectory must follow it to scheme accuracy
    spec, mesh, forms, basis, _ = build_pipeline("growth1d", resolution=40, k=1)
    trajectory = solve_evolution(spec, forms, basis, 1, 400, 0.5)
    rate = (1.0 + trajectory.interaction[0, 0]) / trajectory.basis.mass_norms[0]
    exact = trajectory.coefficients[0, 0] * np.exp(-rate * trajectory.times)
    err = np.max(np.abs(trajectory.coefficients[:, 0] - exact))
    assert err <= 1e-4 * np.max(np.abs(exact))


def test_uniqueness_condition_signs():
    assert check_uniqueness_condition(np.zeros((3, 3))) == (0.0, True)
    min_eig, ok = check_uniqueness_condition(np.eye(3))
    assert min_eig == pytest.approx(1.0) and ok
    min_eig, ok = check_uniqueness_condition(-np.eye(3))
    assert min_eig == pytest.approx(-1.0) and not ok


def test_uniqueness_on_presets():
    for name, expect in (("heat1d", True), ("drift1d", True), ("growth1d", False)):
        spec, mesh, forms, basis, k = build_pipeline(name, resolution=30, k=10)
        _, ok = check_uniqueness_condition(build_galerkin_system(forms, basis, k))
        assert ok is expect


def test_continuity_zero_trajectory():
    spec, mesh, forms, basis, k = build_pipeline("zero1d", resolution=16, k=8)
    trajectory = solve_evolution(spec, forms, basis, k, 20, 0.5)
    assert check_continuity(trajectory) == 0.0


def test_continuity_jumps_halve_with_dt_under_forcing():
    spec, mesh, forms, basis, k = build_pipeline("forced1d", resolution=30, k=10)
    jumps = [
        check_continuity(solve_evolution(spec, forms, basis, k, steps, 0.5))
        for steps in (50, 100, 200)
    ]
    for coarse, fine in zip(jumps[:-1], jumps[1:]):
        assert 1.5 <= coarse / fine <= 2.6


def test_twin_solves_converge_at_first_order():
    # when the uniqueness condition holds, the backward-Euler and midpoint
    # trajectories of the same data differ by O(dt) in sup-L2
    spec, mesh, forms, basis, k = build_pipeline("forced1d", resolution=30, k=10)
    min_eig, ok = check_uniqueness_condition(build_galerkin_system(forms, basis, k))
    assert ok and min_eig >= -1e-10
    diffs = []
    for steps in (40, 80, 160):
        t_cn = solve_evolution(spec, forms, basis, k, steps, 0.5)
        t_be = solve_evolution(spec, forms, basis, k, steps, 1.0)
        delta = t_cn.coefficients - t_be.coefficients
        sup = np.max(
            np.sqrt(np.sum(basis.mass_norms[None, :k] * np.abs(delta) ** 2, axis=1))
        )
        diffs.append(float(sup))
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    for r in ratios:
        assert 1.5 <= r <= 2.7


def test_right_side_non_decreasing_in_final_time():
    base = preset_problem("forced1d")
    rhs_values = []
    for T in (0.1, 0.5, 1.0):
        spec = ProblemSpec(**{**base.__dict__, "final_time": T})
        forms, basis = discretize(spec, 30, 10)
        trajectory = solve_evolution(spec, forms, basis, 10, int(100 * T / 0.1), 0.5)
        report = apriori_bounds(trajectory, *compute_constants(spec, forms.mesh))
        rhs_values.append(report.sup_rhs)
    assert rhs_values[0] <= rhs_values[1] <= rhs_values[2]


def test_right_side_independent_of_basis_size():
    spec, mesh, forms, basis, _ = build_pipeline("forced1d", resolution=30, k=20)
    c1, c2 = compute_constants(spec, mesh)
    reports = []
    for k in (10, 20):
        trajectory = solve_evolution(spec, forms, basis, k, 100, 0.5)
        reports.append(apriori_bounds(trajectory, c1, c2))
    assert reports[0].sup_rhs == reports[1].sup_rhs
    assert all(r.sup_ok and r.energy_ok for r in reports)


def test_cauchy_bound_on_drift_preset():
    spec, mesh, forms, basis, k = build_pipeline("drift1d", resolution=25, k=10)
    c1, c2 = compute_constants(spec, mesh)
    worst, ok = check_cauchy_bound(forms, c1, c2)
    assert ok
    assert worst <= (c1 + c2) * (1.0 + 1e-9)


def _dense_cauchy(forms):
    """The largest singular value of L^-1 C L^-* with K+ + M = L L*, the
    smallest c with |v* C u| <= c |u|_E |v|_E, from dense factors."""
    L = np.linalg.cholesky((forms.k_plus + forms.mass).toarray())
    X = sla.solve_triangular(L, forms.first_order.toarray(), lower=True)
    X = sla.solve_triangular(L, X.conj().T, lower=True).conj().T
    return float(np.linalg.svd(X, compute_uv=False)[0])


def test_exact_cauchy_constant_matches_dense_svd():
    drift, _ = discretize(preset_problem("drift1d"), 40, 0)
    rng = np.random.default_rng(5)
    n = drift.N
    C = sp.random(n, n, density=0.1, random_state=rng, format="csr")
    C = C + 1j * sp.random(n, n, density=0.1, random_state=rng, format="csr")
    random_c = dataclasses.replace(drift, first_order=C.tocsr())
    small, _ = discretize(preset_problem("drift1d"), 3, 0)  # N = 2
    for forms in (drift, random_c, small):
        ratio, _ = check_cauchy_bound(forms, 1.0, 0.0)
        assert ratio == pytest.approx(_dense_cauchy(forms), rel=1e-10, abs=0.0)
    # N = 1: the closed form |C| / (K+ + M)
    (one, _) = discretize(preset_problem("drift1d"), 2, 0)
    assert one.N == 1
    expected = abs(one.first_order[0, 0]) / (one.k_plus[0, 0] + one.mass[0, 0])
    assert check_cauchy_bound(one, 1.0, 0.0)[0] == pytest.approx(expected, rel=1e-14)
    # C = 0: the constant is 0 and any c passes
    heat, _ = discretize(preset_problem("heat1d"), 20, 0)
    assert heat.first_order.count_nonzero() == 0
    assert check_cauchy_bound(heat, 0.0, 0.0) == (0.0, True)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), a0=st.sampled_from(["-1", "-0.2j"]))
@example(n=1, a0="-1")
@example(n=2, a0="-1")
@example(n=3, a0="-1")
@example(n=2, a0="-0.2j")
@example(n=3, a0="-0.2j")
def test_exact_cauchy_constant_matches_dense_svd_at_every_size(n, a0):
    # drift 0.5 with a0 = -1 gives a real C (ARPACK's real driver), with
    # a0 = -0.2j a complex one; N <= 2 takes the dense branch
    cfg = RunConfig(
        problem_preset="inline",
        problem_domain="interval(0,1)",
        problem_first_order="0.5",
        problem_a0=a0,
        problem_s="all",
    )
    forms, _ = discretize(build_problem(cfg)[0], n + 1, 0)
    assert forms.N == n
    assert (forms.first_order.dtype.kind == "f") == (a0 == "-1")
    ratio, _ = check_cauchy_bound(forms, 1.0, 0.0)
    assert ratio == pytest.approx(_dense_cauchy(forms), rel=1e-10, abs=0.0)


def test_cauchy_check_refuses_indefinite_energy_at_any_size():
    # E = K+ + M = -2 M is negative definite: N = 2 (the dense branch) and
    # N = 19 (the ARPACK branch) go through the same factor of E
    for resolution in (3, 20):
        forms, _ = discretize(preset_problem("drift1d"), resolution, 0)
        assert forms.first_order.count_nonzero()
        negative = dataclasses.replace(forms, k_plus=-3.0 * forms.mass)
        with pytest.raises(NotSPD):
            check_cauchy_bound(negative, 1.0, 0.0)


def test_exact_cauchy_check_fails_where_a_random_sample_passed():
    # drift1d at resolution 50 against c = 0.01: the largest ratio over 200
    # random vector pairs was 0.0012 and passed, the exact constant fails
    forms, _ = discretize(preset_problem("drift1d"), 50, 0)
    ratio, ok = check_cauchy_bound(forms, 0.01, 0.0)
    assert ratio == pytest.approx(0.0855, abs=5e-4)
    assert not ok


def test_constants_see_a_spike_between_sample_points():
    # a0 = -400 on a band of width 0.012, narrower than the 1/31
    # spacing of a 32-point grid, which read c2 = 0 here; the forms see the
    # spike at their quadrature points, so the maxima there are the exact
    # constants of the discrete problem.
    spec = preset_problem("heat1d")
    spec.zero_order = lambda x: np.where(np.abs(x - 0.31) < 0.006, -400.0 + 0j, 0j)
    forms, _ = discretize(spec, 400, 0)
    c1, c2 = compute_constants(spec, forms.mesh)
    points = forms.mesh.quadrature.points[..., 0]
    assert c1 == 0.0
    assert c2 == np.max(np.abs(spec.zero_order(points))) == 400.0
    ratio, ok = check_cauchy_bound(forms, c1, c2)
    assert ok
    # the assembled C holds the spike: without it the exact check fails
    assert ratio > 0.5 and not check_cauchy_bound(forms, c1, 0.0)[1]
