#!/usr/bin/env python3
"""Evolution on the polygonal unit disk with the degenerate principal matrix.

The complex Hermitian form of [[1, i], [-i, 1]] has a zero eigenvalue, so the
energy product controls holomorphic data only through the boundary term. The
trajectory of u0 = z^2 still decays monotonically in L2, and the a priori
bounds hold with the computed constants.
"""

import numpy as np

from ncparab.config import RunConfig, build_problem
from ncparab.estimates import apriori_bounds, check_uniqueness_condition, compute_constants
from ncparab.integrator import discretize, solve_evolution
from ncparab.problem import validate_coefficients


def main():
    spec, resolution, k, steps = build_problem(RunConfig(problem_preset="disk"))
    forms, basis = discretize(spec, resolution, k)
    report = validate_coefficients(spec, forms.mesh)
    print(f"ellipticity constant m = {report.ellipticity_m}")
    print(f"smallest complex-form eigenvalue = {report.min_complex_eigenvalue}")
    print(f"coercive: {report.coercive}")

    print(f"\nmesh: {forms.mesh.num_nodes} nodes, {len(forms.mesh.elements)} triangles")
    print(f"first pencil eigenvalues: {np.round(basis.eigenvalues[:5], 4)}")

    trajectory = solve_evolution(spec, forms, basis, basis.size, steps, 1.0)
    l2 = np.sqrt(trajectory.norm_l2_sq)
    print(f"\n|u(0)|_L2 = {l2[0]:.6f}  ->  |u(T)|_L2 = {l2[-1]:.6f}")
    print(f"monotone decay: {bool(np.all(np.diff(l2) <= 1e-12))}")

    est = apriori_bounds(trajectory, *compute_constants(spec, forms.mesh))
    print(f"\nsup bound:    {est.sup_lhs:.6f} <= {est.sup_rhs:.6f}  ({est.sup_ok})")
    print(f"energy bound: {est.energy_lhs:.6f} <= {est.energy_rhs:.6f}  ({est.energy_ok})")
    min_eig, ok = check_uniqueness_condition(trajectory.interaction)
    print(f"uniqueness condition: min eig = {min_eig:.2e} ({'holds' if ok else 'fails'})")


if __name__ == "__main__":
    main()
