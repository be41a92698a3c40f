"""Command-line entry point.

Subcommands: ``solve`` (full pipeline plus report), ``eigs`` (basis
eigenvalues), ``convergence`` (refinement study against the exact solution),
``check`` (the ``solve`` report with the energy identity, report.csv only),
``sharpness`` (embedding series).
The config file says what is computed; the flags say where it is written
(``--out``, created if missing) and how it runs (``--jobs``).
Exit codes: 0 all checks passed, 1 a check failed, 2 config or usage error,
3 numerical failure, 4 internal error (any other exception; its traceback
goes to stderr). Every output file, the mesh and matrix exports included,
goes through one table writer: written atomically with LF line endings and
floats with 17 significant digits, so identical runs are byte-identical. It
formats and writes a fixed number of rows at a time, so a table never
exists as one string.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from .config import RunConfig, build_problem, named_preset, preset_problem
from .errors import ConfigError, NcparabError, NoOracle
from .estimates import (
    apriori_bounds,
    check_cauchy_bound,
    check_continuity,
    check_uniqueness_condition,
    compute_constants,
)
from .integrator import (
    ENERGY_TOL,
    discretize,
    energy_identity_residuals,
    reconstruct_solution,
    solve_evolution,
    solve_nodal,
)
from .fields import axes
from .meshing import Mesh, build_mesh
from .presets import get_preset
from .sharpness import series_hs_lower_bound, series_plus_norm, witness_epsilon


# %-format of a table column by numpy dtype kind; bools are written as
# true/false strings. 17 significant digits round-trip every float.
_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
# Rows formatted and written at a time.
TABLE_ROWS = 256


def _cells(column) -> tuple[str, list]:
    """The %-format and the Python values of one table column."""
    values = np.asarray(column)
    if values.dtype.kind == "b":
        values = np.where(values, "true", "false")
    return _FORMATS[values.dtype.kind], values.tolist()


def _fmt(v) -> str:
    """One value as the table writer writes it in a column of its type."""
    fmt, (value,) = _cells([v])
    return fmt % value


def _write_blocks(path: str, header: list[str], blocks) -> None:
    """Write a CSV table from an iterable of blocks, each a list of
    equal-length columns, one %-format call per row. The table goes to
    ``path + ".tmp"`` block by block and then replaces ``path``; a failure
    while writing removes the partial file."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for columns in blocks:
                formats, values = zip(*map(_cells, columns))
                line = ",".join(formats) + "\n"
                fh.write("".join(line % row for row in zip(*values)))
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _write_table(path: str, header: list[str], columns: list) -> None:
    """Write equal-length columns as a CSV table, ``TABLE_ROWS`` rows at a time."""
    columns = [np.asarray(c) for c in columns]
    starts = range(0, len(columns[0]), TABLE_ROWS)
    _write_blocks(path, header, ([c[i : i + TABLE_ROWS] for c in columns] for i in starts))


def export_mesh(mesh: Mesh, out_dir: str) -> None:
    """Write nodes.csv, elements.csv and facets.csv into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    names = ["n0", "n1", "n2"]
    _write_table(
        os.path.join(out_dir, "nodes.csv"),
        ["id", "x", "y"][: 1 + mesh.dim],
        [np.arange(mesh.num_nodes), *mesh.nodes.T],
    )
    _write_table(
        os.path.join(out_dir, "elements.csv"),
        ["id"] + names[: mesh.elements.shape[1]],
        [np.arange(len(mesh.elements)), *mesh.elements.T],
    )
    _write_table(
        os.path.join(out_dir, "facets.csv"),
        ["id"] + names[: mesh.boundary_facets.shape[1]] + ["tag"],
        [
            np.arange(len(mesh.boundary_facets)),
            *mesh.boundary_facets.T,
            np.where(mesh.facet_dirichlet, "S", "robin"),
        ],
    )


def export_matrix_coo(path: str, matrix) -> None:
    """Write every entry of a dense matrix in coordinate text format
    (row, col, re, im), row-major, exact zeros included."""
    matrix = np.asarray(matrix)
    data = matrix.ravel()

    def blocks():
        for start in range(0, data.size, TABLE_ROWS):
            values = data[start : start + TABLE_ROWS]
            rows, cols = np.divmod(np.arange(start, start + len(values)), matrix.shape[1])
            yield [rows, cols, values.real, values.imag]

    _write_blocks(path, ["row", "col", "re", "im"], blocks())


def _run_estimates(cfg: RunConfig, spec, trajectory) -> tuple[list, bool]:
    c1, c2 = compute_constants(spec, trajectory.forms.mesh)
    rows = [["c1", _fmt(c1)], ["c2", _fmt(c2)]]
    report = apriori_bounds(trajectory, c1, c2)
    min_eig, uniq_ok = check_uniqueness_condition(trajectory.interaction)
    rows += [
        ["gronwall_factor", _fmt(report.gronwall_factor)],
        ["sup_bound_lhs", _fmt(report.sup_lhs)],
        ["sup_bound_rhs", _fmt(report.sup_rhs)],
        ["sup_bound_margin", _fmt(report.sup_rhs - report.sup_lhs)],
        ["sup_bound_pass", _fmt(report.sup_ok)],
        ["energy_bound_lhs", _fmt(report.energy_lhs)],
        ["energy_bound_rhs", _fmt(report.energy_rhs)],
        ["energy_bound_margin", _fmt(report.energy_rhs - report.energy_lhs)],
        ["energy_bound_pass", _fmt(report.energy_ok)],
        ["uniqueness_min_eig", _fmt(min_eig)],
        ["uniqueness_pass", _fmt(uniq_ok)],
        ["continuity_max_jump", _fmt(check_continuity(trajectory))],
    ]
    ok = report.bounds_ok and uniq_ok
    if cfg.checks_energy:
        res = energy_identity_residuals(trajectory)
        energy_ok = bool(np.max(res) <= ENERGY_TOL) if len(res) else True
        rows += [
            ["energy_residual_max", _fmt(float(np.max(res)) if len(res) else 0.0)],
            ["energy_residual_pass", _fmt(energy_ok)],
        ]
        ok = ok and energy_ok
    if cfg.checks_cauchy:
        ratio, cauchy_ok = check_cauchy_bound(trajectory.forms, c1, c2)
        rows += [["cauchy_ratio", _fmt(ratio)], ["cauchy_pass", _fmt(cauchy_ok)]]
        ok = ok and cauchy_ok
    rows.append(["all_pass", _fmt(ok)])
    return rows, ok


def run_solve(
    cfg: RunConfig, out_dir: str, write_mesh: bool = False, report_only: bool = False
) -> int:
    """Solve and check one problem. ``report_only`` writes report.csv alone,
    without the trajectory and the final solution."""
    spec, resolution, k, steps = build_problem(cfg)
    forms, basis = discretize(spec, resolution, k)
    trajectory = solve_evolution(spec, forms, basis, basis.size, steps, cfg.time_theta)

    if not report_only:
        shown = min(basis.size, 16)
        header = ["t", "norm_plus_sq", "norm_l2_sq", "dual_f_sq"] + [
            f"g_abs_{j}" for j in range(1, shown + 1)
        ]
        _write_table(
            os.path.join(out_dir, "trajectory.csv"),
            header,
            [
                trajectory.times,
                trajectory.norm_plus_sq,
                trajectory.norm_l2_sq,
                trajectory.dual_f_sq,
                *np.abs(trajectory.coefficients[:, :shown]).T,
            ],
        )
        final = reconstruct_solution(trajectory, trajectory.times[-1])
        _write_table(
            os.path.join(out_dir, "solution_final.csv"),
            ["id", "re", "im"],
            [np.arange(len(final)), final.real, final.imag],
        )

    report_rows, ok = _run_estimates(cfg, spec, trajectory)
    _write_table(os.path.join(out_dir, "report.csv"), ["key", "value"], list(zip(*report_rows)))
    if write_mesh:
        export_mesh(forms.mesh, out_dir)
    return 0 if ok else 1


def run_check(cfg: RunConfig, out_dir: str) -> int:
    """``run_solve`` with the energy-identity check on, writing report.csv
    only. The Cauchy check stays as ``checks.cauchy`` sets it."""
    cfg.checks_energy = True
    return run_solve(cfg, out_dir, report_only=True)


def run_eigs(cfg: RunConfig, out_dir: str, vectors: bool = False) -> int:
    spec, resolution, k, _ = build_problem(cfg)
    _, basis = discretize(spec, resolution, k)
    _write_table(
        os.path.join(out_dir, "eigenvalues.csv"),
        ["j", "lambda", "mass_norm"],
        [np.arange(1, basis.size + 1), basis.eigenvalues, basis.mass_norms],
    )
    if vectors:
        export_matrix_coo(os.path.join(out_dir, "eigenvectors.csv"), basis.vectors)
    return 0


def _convergence_level(args) -> tuple[float, float]:
    """Mesh size h and error of one level, from the level's own mesh.

    In ``eigs`` mode the error is that of the first three pencil
    eigenvalues; otherwise it is the relative L2 error at final time against
    the preset oracle. The Galerkin solution with the full basis (k = N) is
    the nodal theta scheme, so no eigenbasis is computed there.
    """
    mode, preset_name, resolution, steps, theta = args
    preset = get_preset(preset_name)
    spec = preset_problem(preset_name)
    if mode == "eigs":
        forms, basis = discretize(spec, resolution, 3)
        exact = preset.spectrum(basis.size)
        return forms.mesh.size, float(np.max(np.abs(basis.eigenvalues - exact) / exact))
    forms, _ = discretize(spec, resolution, 0)
    numeric = solve_nodal(spec, forms, steps, theta)
    coords = axes(forms.mesh.nodes[forms.dofmap.free])
    exact = np.asarray(preset.oracle(*coords, spec.final_time), dtype=complex)
    diff = numeric - exact
    M = forms.mass
    err = np.sqrt(np.real(np.vdot(diff, M @ diff)))
    ref = np.sqrt(np.real(np.vdot(exact, M @ exact)))
    return forms.mesh.size, float(err / ref)


def run_convergence(cfg: RunConfig, out_dir: str, jobs: int = 1) -> int:
    """Write convergence.csv, running the levels in min(jobs, levels)
    processes; ``jobs`` below 1 is a usage error (``ConfigError``)."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    preset = named_preset(cfg)
    mode = cfg.convergence_mode
    if preset.oracle is None or (mode == "eigs" and preset.spectrum is None):
        raise NoOracle(f"preset {cfg.problem_preset!r} has no exact solution")
    spec = preset_problem(cfg.problem_preset)
    count = range(cfg.convergence_levels)
    if mode == "time":
        resolutions = [cfg.mesh_resolution or 200 for _ in count]
        steps = [(cfg.time_steps or 10) * 2**i for i in count]
    else:
        resolutions = [(cfg.mesh_resolution or 25) * 2**i for i in count]
    if mode == "space_time":
        # dt = h/10 rounded to whole steps on the coarsest level, then halved
        # with h, so both errors fall by the same factor; only the coarsest
        # mesh is built here (none for zero levels), each level builds its own
        coarsest = [build_mesh(spec.domain, r).size for r in resolutions[:1]]
        steps = [max(1, round(spec.final_time / (coarsest[0] / 10.0))) * 2**i for i in count]
    elif mode == "eigs":
        steps = [1 for _ in count]
    levels = [
        (mode, cfg.problem_preset, resolution, n, cfg.time_theta)
        for resolution, n in zip(resolutions, steps)
    ]

    workers = min(jobs, len(levels))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_convergence_level, levels))
    else:
        results = [_convergence_level(level) for level in levels]
    sizes = [h for h, _ in results]
    errors = [err for _, err in results]

    dts = [float("nan") if mode == "eigs" else spec.final_time / n for n in steps]
    orders = [
        float("nan") if i == 0 else float(np.log2(errors[i - 1] / err))
        for i, err in enumerate(errors)
    ]
    _write_table(
        os.path.join(out_dir, "convergence.csv"),
        ["h", "dt", "error", "observed_order"],
        [sizes, dts, errors, orders],
    )
    return 0


def run_sharpness(cfg: RunConfig, out_dir: str) -> int:
    terms = cfg.sharpness_terms
    if cfg.sharpness_epsilon > 0.0:
        epsilon = cfg.sharpness_epsilon
    else:
        epsilon = witness_epsilon(cfg.sharpness_s)
    rows = []
    consistent = True
    sizes = (max(terms // 100, 10), max(terms // 10, 100), terms)
    for n in sorted({min(size, terms) for size in sizes}):
        partial_a, tail_a = series_plus_norm(epsilon, n)
        lower = series_hs_lower_bound(cfg.sharpness_s, epsilon, n)
        verdict = "diverges" if lower.diverges else "converges"
        rows.append([n, partial_a, tail_a, lower.partial_sum, verdict])
        if n == terms and lower.diverges and not lower.growth_observed:
            consistent = False
    _write_table(
        os.path.join(out_dir, "sharpness.csv"),
        ["N", "partial_A", "tail_A", "partial_B", "verdict"],
        list(zip(*rows)),
    )
    return 0 if consistent else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncparab",
        description="Galerkin solver and estimate checker for complex parabolic "
        "problems with degenerate Robin boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "eigs", "convergence", "check", "sharpness"):
        # no abbreviations: a removed flag such as --s must not read as --seed
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="path to a key-value config file")
        p.add_argument("--out", default="out", help="output directory, created if missing")
        # accepted for existing scripts; no computation draws random numbers
        p.add_argument("--seed", type=int, default=None)
        if name == "convergence":
            p.add_argument("--jobs", type=int, default=1)
        if name == "solve":
            p.add_argument("--export-mesh", action="store_true")
        if name == "eigs":
            p.add_argument("--vectors", action="store_true")

    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        out_dir = args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # an existing file, say: the flag is at fault
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        if args.command == "sharpness":
            return run_sharpness(cfg, out_dir)
        if args.command == "solve":
            return run_solve(cfg, out_dir, write_mesh=args.export_mesh)
        if args.command == "check":
            return run_check(cfg, out_dir)
        if args.command == "eigs":
            return run_eigs(cfg, out_dir, vectors=args.vectors)
        if args.command == "convergence":
            return run_convergence(cfg, out_dir, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NcparabError as exc:
        print(f"numerical failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
