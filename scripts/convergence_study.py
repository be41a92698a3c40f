#!/usr/bin/env python3
"""Refinement study for the 1D heat problem against separation of variables.

Space-time refinement (dt = h/10, midpoint scheme) shows second order;
time-only refinement with backward Euler shows first order.
"""

import numpy as np

from ncparab.cli import solve_error_vs_oracle


def table(title, rows):
    print(f"\n{title}")
    print(f"{'level':>5} {'resolution':>10} {'steps':>7} {'rel error':>12} {'order':>7}")
    prev = None
    for i, (resolution, steps, err) in enumerate(rows):
        order = "" if prev is None else f"{np.log2(prev / err):7.3f}"
        print(f"{i:>5} {resolution:>10} {steps:>7} {err:>12.4e} {order:>7}")
        prev = err


def main():
    rows = []
    for resolution in (25, 50, 100, 200):
        _, err = solve_error_vs_oracle("heat1d", resolution, resolution, 0.5)
        rows.append((resolution, resolution, err))
    table("space-time refinement, theta = 1/2 (expected order 2)", rows)

    rows = []
    for steps in (10, 20, 40, 80):
        _, err = solve_error_vs_oracle("heat1d", 200, steps, 1.0)
        rows.append((200, steps, err))
    table("time refinement, theta = 1 (expected order 1)", rows)


if __name__ == "__main__":
    main()
