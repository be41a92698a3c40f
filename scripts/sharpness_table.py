#!/usr/bin/env python3
"""Witness table: finite-energy series escaping every H^s with s > 1/2.

For each s the midpoint epsilon = (2s-1)/2 gives a series with finite
energy-space norm A but divergent order-s lower bound B. The last column
cross-validates the truncated series energy against the assembled form on a
disk mesh.
"""

import numpy as np

from ncparab.config import preset_problem
from ncparab.meshing import build_mesh
from ncparab.problem import UnitDiskPolygon
from ncparab.sharpness import discrete_series_energy, find_divergence_epsilon


def main():
    print(f"{'s':>5} {'epsilon':>8} {'A partial':>11} {'A tail':>9} {'B partial':>11} {'B verdict':>10}")
    for s in (0.55, 0.6, 0.75, 0.9, 0.95):
        res = find_divergence_epsilon(s, terms=200_000)
        verdict = "diverges" if res["B_diverges"] else "converges"
        print(
            f"{s:>5} {res['epsilon']:>8.3f} {res['partial_A']:>11.4f} "
            f"{res['tail_A']:>9.2e} {res['partial_B']:>11.2f} {verdict:>10}"
        )

    eps, K = 0.5, 8
    spec = preset_problem("disk")
    spec.domain = UnitDiskPolygon(128)
    mesh = build_mesh(spec.domain, 32, spec.dirichlet_selector)
    value = discrete_series_energy(mesh, spec, eps, K)
    analytic = 2.0 * np.pi * float(np.sum((np.arange(K + 1) + 1.0) ** (-1.0 - eps)))
    print(
        f"\ncross-validation (eps = {eps}, {K + 1} terms): "
        f"discrete = {value:.4f}, analytic = {analytic:.4f}, "
        f"rel = {abs(value - analytic) / analytic:.2%}"
    )


if __name__ == "__main__":
    main()
