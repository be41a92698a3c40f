"""Output check of one run against the reference committed with the benchmark.

Rules:

- ``report.csv`` verdict rows (``*_pass``, ``all_pass``) match exactly.
- Numbers that do not depend on the chosen eigenvectors (report values,
  the ``t``/``norm_plus_sq``/``norm_l2_sq``/``dual_f_sq`` columns of
  ``trajectory.csv``, ``solution_final.csv``, ``convergence.csv``) match
  within ``RTOL`` relative to the largest reference value of their column
  (per value for report rows; a ``*_margin`` row is scaled by its ``*_rhs``).
- ``g_abs_*`` columns and rows that carry round-off or seed-dependent
  sampling (``VERDICT_ONLY``) are checked through their verdict rows only.

The tolerances were set by re-running the workloads with other eigensolvers
(the generalized LAPACK routine, and sparse shift-invert Lanczos where k < N)
and with one wrong eigenpair. Other eigensolvers moved the compared numbers
by at most 1e-9 relative, and the convergence errors, which are differences
of nearly equal numbers, by up to 3e-5. A dropped eigenpair moved them by
3e-5 or more, and an error of 1e-3 in the eigenvector carrying the heat
solution moved the errors by more than 1e-2. Smaller eigenvector errors are
caught by the eigenpair residual of traced runs (run.py).
"""

from __future__ import annotations

import csv
import math
import os

RTOL = 1e-7
ERROR_RTOL = 1e-3
VERDICT_ONLY = {"cauchy_ratio", "energy_residual_max", "uniqueness_min_eig"}
TRAJECTORY_COLUMNS = ("t", "norm_plus_sq", "norm_l2_sq", "dual_f_sq")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(value: float, ref: float, scale: float, rtol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= rtol * abs(scale)


def _columns(header, rows, names) -> dict[str, list[float]]:
    return {n: [float(r[header.index(n)]) for r in rows] for n in names}


def _compare_columns(label, got: dict, ref: dict, rtol: float) -> list[str]:
    problems = []
    for name, ref_col in ref.items():
        col = got[name]
        if len(col) != len(ref_col):
            problems.append(f"{label}: {name} has {len(col)} rows, expected {len(ref_col)}")
            continue
        scale = max((abs(v) for v in ref_col if not math.isnan(v)), default=0.0)
        bad = [i for i, (v, r) in enumerate(zip(col, ref_col)) if not _close(v, r, scale, rtol)]
        if bad:
            i = bad[0]
            problems.append(
                f"{label}: {name} differs in {len(bad)} rows, first row {i}: "
                f"{col[i]!r} vs reference {ref_col[i]!r}"
            )
    return problems


def check_report(path: str, ref_path: str) -> list[str]:
    _, rows = read_csv(path)
    _, ref_rows = read_csv(ref_path)
    got, ref = dict(rows), dict(ref_rows)
    if list(got) != list(ref):
        return [f"report.csv keys {list(got)} differ from reference {list(ref)}"]
    problems = []
    for key, ref_value in ref.items():
        if key.endswith("_pass"):
            if got[key] != ref_value:
                problems.append(f"report.csv: {key} = {got[key]}, reference {ref_value}")
        elif key not in VERDICT_ONLY:
            scale_key = key[: -len("_margin")] + "_rhs" if key.endswith("_margin") else key
            if not _close(float(got[key]), float(ref_value), float(ref[scale_key]), RTOL):
                problems.append(f"report.csv: {key} = {got[key]}, reference {ref_value}")
    return problems


def check_trajectory(path: str, ref_path: str) -> list[str]:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header[: len(ref_header)] != ref_header:
        return [f"trajectory.csv header {header[:4]} differs from reference {ref_header}"]
    return _compare_columns(
        "trajectory.csv",
        _columns(header, rows, ref_header),
        _columns(ref_header, ref_rows, ref_header),
        RTOL,
    )


def check_solution(path: str, ref_path: str) -> list[str]:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"solution_final.csv shape differs from reference ({len(rows)} rows)"]
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return ["solution_final.csv node ids differ from reference"]
    got = [complex(float(r[1]), float(r[2])) for r in rows]
    ref = [complex(float(r[1]), float(r[2])) for r in ref_rows]
    scale = max(abs(z) for z in ref)
    bad = [i for i, (z, r) in enumerate(zip(got, ref)) if abs(z - r) > RTOL * scale]
    if bad:
        return [f"solution_final.csv differs at {len(bad)} nodes, first id {rows[bad[0]][0]}"]
    return []


def check_convergence(path: str, ref_path: str) -> list[str]:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header != ref_header:
        return [f"convergence.csv header {header} differs from reference {ref_header}"]
    got, ref = _columns(header, rows, header), _columns(ref_header, ref_rows, header)
    grid = ("h", "dt")
    problems = _compare_columns(
        "convergence.csv", {k: got[k] for k in grid}, {k: ref[k] for k in grid}, RTOL
    )
    # Each level's error is compared relative to itself, not to the coarsest.
    for i, (v, r) in enumerate(zip(got["error"], ref["error"])):
        if not _close(v, r, r, ERROR_RTOL):
            problems.append(f"convergence.csv: error at level {i} = {v!r}, reference {r!r}")
    return problems


CHECKS = {
    "report.csv": check_report,
    "trajectory.csv": check_trajectory,
    "solution_final.csv": check_solution,
    "convergence.csv": check_convergence,
}


def check_outputs(out_dir: str, ref_dir: str, outputs) -> list[str]:
    """Problems found in ``out_dir``; an empty list means the run is correct."""
    problems = []
    for name in outputs:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} was not written")
            continue
        problems += CHECKS[name](path, os.path.join(ref_dir, name))
    return problems
