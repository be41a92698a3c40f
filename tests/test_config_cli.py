import ast
import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ncparab import cli, integrator
from ncparab.cli import export_matrix_coo, export_mesh, main
from ncparab.config import RunConfig, build_problem, parse_domain, preset_problem
from ncparab.errors import ConfigError, NoConvergence
from ncparab.estimates import check_cauchy_bound
from ncparab.meshing import build_mesh
from ncparab.presets import PRESETS
from ncparab.problem import Interval, Rectangle, UnitDiskPolygon

from tests.conftest import child_env


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_config_round_trip_defaults():
    cfg = RunConfig()
    assert RunConfig.from_text(cfg.to_text()) == cfg


def test_config_round_trip_modified():
    cfg = RunConfig(
        problem_preset="disk",
        mesh_resolution=7,
        basis_k=12,
        time_steps=33,
        time_theta=1.0 / 3.0,
        checks_energy=True,
        sharpness_s=0.6180339887498949,
    )
    text = cfg.to_text()
    assert "time.theta = " in text and "problem.preset = disk" in text
    assert RunConfig.from_text(text) == cfg


def test_config_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        RunConfig.from_text("no.such.key = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("time.steps = many\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("time.theta = 1.5\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("just a line\n")


def test_config_comments_and_blanks_ignored():
    cfg = RunConfig.from_text("# comment\n\nmesh.resolution = 9  # inline\n")
    assert cfg.mesh_resolution == 9


def test_config_output_dir_used_without_flag(tmp_path, monkeypatch):
    # the output directory comes only from --out, whose default is ./out
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(
        tmp_path, "problem.preset = zero1d\nmesh.resolution = 8\nbasis.k = 4\ntime.steps = 10\n"
    )
    assert main(["solve", "--config", cfg]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == sorted(_RESULT_CSVS)


def test_out_that_cannot_be_created_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out in (taken, taken / "below"):
        assert main(["sharpness", "--out", str(out)]) == 2
        assert f"config error: cannot create output directory {out}" in capsys.readouterr().err
    assert taken.read_text() == "a file\n"


def test_config_key_set_twice_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: time.steps is already set on line 1"):
        RunConfig.from_text("time.steps = 10\n# again\ntime.steps = 10\n")


@pytest.mark.parametrize(
    "domain, side", [("interval(1e6,1000001)", "right"), ("interval(0,1e-9)", "left")]
)
def test_one_sided_s_tags_one_end_of_any_interval(tmp_path, domain, side):
    # an absolute tolerance would also tag the other end: the far end of a
    # short interval, or the near end of a unit interval far from 0
    cfg = _write_cfg(
        tmp_path,
        f"problem.preset = inline\nproblem.domain = {domain}\nproblem.s = {side}\n"
        "problem.u0 = sine\nmesh.resolution = 8\nbasis.k = 3\ntime.steps = 5\n",
    )
    out = tmp_path / "out"
    main(["solve", "--config", cfg, "--out", str(out), "--export-mesh"])
    _, rows = _read_csv(out / "facets.csv")
    tags = {int(n0): tag for _, n0, tag in rows}
    assert tags == ({0: "S", 8: "robin"} if side == "left" else {0: "robin", 8: "S"})


def test_parse_domain_variants():
    assert parse_domain("interval(0, 2)") == Interval(0.0, 2.0)
    assert parse_domain("rectangle(0,1,0,3)") == Rectangle(0.0, 1.0, 0.0, 3.0)
    assert parse_domain("disk(32)") == UnitDiskPolygon(32)
    for bad in ("ball(1)", "interval(1)", "disk(x)"):
        with pytest.raises(ConfigError):
            parse_domain(bad)


def test_build_problem_inline_dirichlet():
    cfg = RunConfig(
        problem_preset="inline",
        problem_domain="interval(0,1)",
        problem_principal="identity",
        problem_a0="1",
        problem_s="all",
        problem_u0="sine",
        problem_T=0.05,
        mesh_resolution=10,
    )
    spec, resolution, k, steps = build_problem(cfg)
    assert resolution == 10
    x = np.array([0.5])
    # a0, b0 and b1 are kept as given
    assert spec.zero_order(x)[0] == 1.0
    assert spec.boundary_b0(x)[0] == spec.boundary_b1(x)[0] == 1.0


def test_build_problem_rejects_unknown_names():
    with pytest.raises(ConfigError):
        build_problem(RunConfig(problem_preset="nope"))
    cfg = RunConfig(problem_preset="inline", problem_domain="interval(0,1)", problem_u0="bad")
    with pytest.raises(ConfigError):
        build_problem(cfg)


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_solve_heat_small(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat1d\nmesh.resolution = 30\nbasis.k = 10\ntime.steps = 40\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "trajectory.csv"))
    assert header[:4] == ["t", "norm_plus_sq", "norm_l2_sq", "dual_f_sq"]
    assert header[4:] == [f"g_abs_{j}" for j in range(1, 11)]
    assert len(rows) == 41
    header, rows = _read_csv(os.path.join(out, "solution_final.csv"))
    assert header == ["id", "re", "im"]
    assert len(rows) == 31
    header, rows = _read_csv(os.path.join(out, "report.csv"))
    assert header == ["key", "value"]
    report = dict(rows)
    assert report["all_pass"] == "true"
    assert report["sup_bound_pass"] == "true"
    assert float(report["c1"]) == 0.0


def test_cli_solve_rejects_indefinite_inline(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = rectangle(0,1,0,1)\n"
        "problem.principal = diag(1,-1)\nproblem.s = all\nmesh.resolution = 4\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def _inline_u0_cfg(tmp_path, u0):
    return _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\nproblem.s = all\n"
        f"problem.u0 = csv:{u0}\nmesh.resolution = 20\nbasis.k = 4\ntime.steps = 5\n",
    )


def test_cli_solve_bad_u0_table_is_config_error(tmp_path):
    tables = {
        "empty.csv": "",
        "text.csv": "x,re,im\n0.0,one,0.0\n",
        "header_only.csv": "x,re,im\n",
        "short_row.csv": "x,re,im\n0.0,1.0\n1.0,1.0,0.0\n",
    }
    for name, text in tables.items():
        (tmp_path / name).write_text(text)
    for u0 in [tmp_path / "no_dir" / "missing.csv"] + [tmp_path / name for name in tables]:
        cfg = _inline_u0_cfg(tmp_path, u0)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_solve_u0_table_path_keeps_case(tmp_path):
    table = tmp_path / "Data" / "U0.csv"
    table.parent.mkdir()
    table.write_text("x,re,im\n0.0,0.0,0.0\n0.5,1.0,0.0\n1.0,0.0,0.0\n")
    cfg = _inline_u0_cfg(tmp_path, table)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "solution_final.csv")
    assert any(float(re) != 0.0 for _, re, _ in rows)


def test_cli_solve_unknown_preset_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "problem.preset = nothere\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_solve_too_many_drift_coefficients_is_config_error(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\n"
        "problem.first_order = 0.5,0.5\nproblem.s = all\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_internal_error_exits_4(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(cli, "solve_evolution", broken)
    cfg = _write_cfg(tmp_path, "problem.preset = zero1d\n")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: stage broke" in err


def test_cli_check_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = drift1d\nmesh.resolution = 25\nbasis.k = 8\n"
        "time.steps = 40\ntime.theta = 1\nchecks.cauchy = true\n",
    )
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    report = dict(_read_csv(os.path.join(out, "report.csv"))[1])
    assert report["energy_residual_pass"] == "true"
    assert report["cauchy_pass"] == "true"
    assert report["uniqueness_pass"] == "true"


def test_cli_check_energy_identity_at_crank_nicolson(tmp_path):
    # the theta-general identity is checked at every theta, not only at 1
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = forced1d\nmesh.resolution = 25\nbasis.k = 8\n"
        "time.steps = 40\ntime.theta = 0.5\n",
    )
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    report = dict(_read_csv(os.path.join(out, "report.csv"))[1])
    assert report["energy_residual_pass"] == "true"
    assert float(report["energy_residual_max"]) <= 1e-9


def test_cli_energy_identity_passes_at_small_steps(tmp_path):
    # dt = 1e-8: the difference quotient cancels terms 1e7 times |g|^2
    cfg = _write_cfg(
        tmp_path, _INTERVAL + "problem.u0 = sine\nchecks.energy = true\nproblem.T = 1e-6\n"
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = dict(_read_csv(out / "report.csv")[1])
    assert report["energy_residual_pass"] == "true"
    assert float(report["energy_residual_max"]) <= 1e-9


def test_energy_identity_gate_is_integrator_energy_tol(tmp_path, monkeypatch):
    # the verdict reads the named tolerance; at 0 any defect fails the check
    assert integrator.ENERGY_TOL == 1e-9
    cfg = _write_cfg(tmp_path, "problem.preset = forced1d\nmesh.resolution = 25\nbasis.k = 8\n")
    monkeypatch.setattr(cli, "ENERGY_TOL", 0.0)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    report = dict(_read_csv(out / "report.csv")[1])
    assert float(report["energy_residual_max"]) > 0.0
    assert report["energy_residual_pass"] == "false"


_RESULT_CSVS = ("trajectory.csv", "solution_final.csv", "report.csv")


@pytest.mark.parametrize("key", ["u0", "a0", "b0", "b1"])
def test_csv_prefix_is_matched_in_any_case_and_the_path_kept(tmp_path, key):
    table = tmp_path / "Tables" / "One.csv"
    table.parent.mkdir()
    table.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    results = []
    for prefix in ("csv", "CSV", "Csv"):
        cfg = _write_cfg(
            tmp_path, _INTERVAL + f"problem.{key} = {prefix}:{table}\nmesh.resolution = 8\n"
        )
        out = tmp_path / prefix
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        results.append([(out / name).read_bytes() for name in _RESULT_CSVS])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_named_preset_is_its_inline_twin(tmp_path, name):
    sizes = "mesh.resolution = 4\nbasis.k = 4\ntime.steps = 5\n"
    inline = "".join(
        f"{attr.replace('_', '.', 1)} = {value}\n" for attr, value in PRESETS[name].problem.items()
    )
    outputs = []
    for text in (f"problem.preset = {name}\n", "problem.preset = inline\n" + inline):
        cfg = _write_cfg(tmp_path, text + sizes)
        out = tmp_path / str(len(outputs))
        status = main(["solve", "--config", cfg, "--out", str(out)])
        outputs.append((status, [(out / csv_name).read_bytes() for csv_name in _RESULT_CSVS]))
    assert outputs[0] == outputs[1]


def test_cli_named_preset_rejects_problem_keys(tmp_path, capsys):
    # a named preset would silently drop these keys; they are a config error,
    # also where the value equals the RunConfig default (the last three)
    for preset, extra in (
        ("heat1d", "problem.u0 = csv:/no_dir/missing.csv"),
        ("heat1d", "problem.T = 0.3"),
        ("heat1d", "problem.f = sine_cos"),
        ("disk", "problem.T = 0.1"),
        ("heat1d", "problem.s = none"),
        ("disk", "problem.u0 = zero"),
    ):
        cfg = _write_cfg(tmp_path, f"problem.preset = {preset}\n{extra}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert extra.split(" ")[0] in capsys.readouterr().err
    cfg = _write_cfg(tmp_path, "problem.domain = interval(0,1)\nproblem.s = all\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match="problem.T"):
        build_problem(RunConfig(problem_preset="disk", problem_T=0.3))
    # keys left at their defaults, and every key outside problem.*, still load
    cfg = RunConfig.from_text(RunConfig(problem_preset="disk", basis_k=12).to_text())
    assert build_problem(cfg)[2] == 12


# the forced-drift-1d benchmark workload: source, drift, energy and Cauchy checks
_FORCED_DRIFT = (
    "problem.preset = inline\nproblem.domain = interval(0,1)\n"
    "problem.first_order = 0.5\nproblem.a0 = -0.2j\nproblem.s = all\nproblem.u0 = sine\n"
    "problem.f = sine_cos\nproblem.T = 0.5\nmesh.resolution = 400\nbasis.k = 25\n"
    "time.steps = 2000\ntime.theta = 1\nchecks.energy = true\nchecks.cauchy = true\n"
)


def test_arpack_failure_in_the_cauchy_check_is_no_convergence(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigs", no_convergence)
    forms, _ = integrator.discretize(preset_problem("drift1d"), 20, 0)
    with pytest.raises(NoConvergence, match="ARPACK"):
        check_cauchy_bound(forms, 1.0, 0.0)
    cfg = _write_cfg(tmp_path, _FORCED_DRIFT)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: NoConvergence: ARPACK" in err
    assert not (tmp_path / "o" / "report.csv").exists()


def test_every_config_key_is_read():
    # a field that no code reads is a key that changes nothing
    reads = set()
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                node.body = []  # its own methods do not count
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    unread = {f.name for f in dataclasses.fields(RunConfig)} - reads
    assert unread == set()


def test_every_flag_is_read():
    # a flag that main never reads changes nothing; --seed is the one kept,
    # because existing commands pass it (README)
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    dests, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            dest = [kw.value.value for kw in node.keywords if kw.arg == "dest"]
            dests.add(dest[0] if dest else node.args[0].value.lstrip("-").replace("-", "_"))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and isinstance(node.ctx, ast.Load)
        ):
            reads.add(node.attr)
    assert {"config", "out", "jobs", "export_mesh", "vectors"} <= dests
    assert dests - reads == {"seed"}


@pytest.mark.parametrize("command", ["solve", "check", "eigs", "convergence", "sharpness"])
def test_seed_flag_is_accepted_and_changes_nothing(tmp_path, command):
    text = {
        "convergence": "problem.preset = heat1d\nconvergence.levels = 2\nmesh.resolution = 10\n",
        "sharpness": "sharpness.terms = 50\n",
    }.get(command, "problem.preset = zero1d\nmesh.resolution = 8\nbasis.k = 4\ntime.steps = 5\n")
    cfg = _write_cfg(tmp_path, text)
    outputs = []
    for seed in ([], ["--seed", "7"]):
        out = tmp_path / str(len(outputs))
        status = main([command, "--config", cfg, "--out", str(out), *seed])
        outputs.append((status, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_cli_eigs(tmp_path):
    cfg = _write_cfg(
        tmp_path, "problem.preset = heat1d\nmesh.resolution = 50\nbasis.k = 5\n"
    )
    out = str(tmp_path / "out")
    assert main(["eigs", "--config", cfg, "--out", out, "--vectors"]) == 0
    header, rows = _read_csv(os.path.join(out, "eigenvalues.csv"))
    assert header == ["j", "lambda", "mass_norm"]
    assert len(rows) == 5
    lam1 = float(rows[0][1])
    assert lam1 == pytest.approx(np.pi**2, rel=1e-3)
    header, _ = _read_csv(os.path.join(out, "eigenvectors.csv"))
    assert header == ["row", "col", "re", "im"]


def test_cli_convergence_heat(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat1d\nconvergence.levels = 3\nmesh.resolution = 20\n",
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "convergence.csv"))
    assert header == ["h", "dt", "error", "observed_order"]
    assert len(rows) == 3
    orders = [float(r[3]) for r in rows[1:]]
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_cli_convergence_without_oracle_fails(tmp_path, monkeypatch, capsys):
    # the parent looks up the exact solution (spectrum in eigs mode) before
    # any level runs or any pool starts, for a named or an inline problem
    import concurrent.futures

    def no_level(*args, **kwargs):
        raise AssertionError("a level ran without an oracle")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_level)
    monkeypatch.setattr(cli, "discretize", no_level)
    for problem, name in (
        ("problem.preset = zero1d\n", "'zero1d'"),
        ("problem.preset = disk\n", "'disk'"),
        (_INTERVAL + "problem.s = all\nproblem.u0 = sine\n", "'inline'"),
    ):
        for mode in ("space_time", "time", "eigs"):
            missing = "spectrum" if mode == "eigs" else "solution"
            cfg = _write_cfg(tmp_path, f"{problem}convergence.mode = {mode}\nmesh.resolution = 4\n")
            argv = ["convergence", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"config error: problem {name} has no exact {missing}" in err


def test_convergence_level_runs_an_inline_problem_like_its_named_twin():
    # each level rebuilds its problem from the config, so an inline config
    # reaches the level functions; heat1d is an inline problem by name
    twin = RunConfig(
        problem_preset="inline", problem_domain="interval(0,1)", problem_s="all", problem_u0="sine"
    )
    heat = PRESETS["heat1d"]
    for level, exact in ((cli._nodal_error, heat.oracle), (cli._eigs_error, heat.spectrum)):
        named = level((exact, RunConfig(problem_preset="heat1d"), 8, 5))
        np.testing.assert_array_equal(level((exact, twin, 8, 5)), named)


def test_cli_convergence_time_mode_first_order(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat1d\nconvergence.mode = time\nconvergence.levels = 3\n"
        "mesh.resolution = 200\ntime.steps = 10\ntime.theta = 1\n",
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "convergence.csv"))
    orders = [float(r[3]) for r in rows[1:]]
    assert all(abs(o - 1.0) <= 0.3 for o in orders)
    assert all(float(r[0]) == 1.0 / 200 for r in rows)  # fixed mesh width


def test_cli_convergence_eigs_mode_second_order(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat1d\nconvergence.mode = eigs\nconvergence.levels = 3\n"
        "mesh.resolution = 20\n",
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "convergence.csv"))
    orders = [float(r[3]) for r in rows[1:]]
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


@pytest.mark.parametrize(
    "mode, built", [("space_time", [10, 10, 20, 40]), ("time", [200] * 3), ("eigs", [10, 20, 40])]
)
def test_cli_convergence_builds_each_level_mesh_once(tmp_path, monkeypatch, mode, built):
    # space_time builds the coarsest mesh once more for dt; every level reads
    # h from the mesh it solves on
    calls = []

    def counting(domain, resolution, *args):
        calls.append(resolution)
        return build_mesh(domain, resolution, *args)

    monkeypatch.setattr(cli, "build_mesh", counting)
    monkeypatch.setattr(integrator, "build_mesh", counting)
    cfg = _write_cfg(
        tmp_path,
        f"problem.preset = heat1d\nconvergence.mode = {mode}\nconvergence.levels = 3\n"
        + ("" if mode == "time" else "mesh.resolution = 10\n"),
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    assert calls == built
    _, rows = _read_csv(os.path.join(out, "convergence.csv"))
    assert [float(r[0]) for r in rows] == [1.0 / r for r in built[-3:]]


def test_cli_convergence_parallel_matches_serial(tmp_path):
    for preset in ("heat1d", "heat2d"):
        for mode in ("space_time", "time", "eigs"):
            cfg = _write_cfg(
                tmp_path,
                f"problem.preset = {preset}\nconvergence.mode = {mode}\n"
                "convergence.levels = 3\nmesh.resolution = 8\n",
            )
            outputs = []
            for jobs in ("1", "2"):
                out = str(tmp_path / f"{preset}-{mode}-{jobs}")
                assert main(["convergence", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
                with open(os.path.join(out, "convergence.csv"), "rb") as fh:
                    outputs.append(fh.read())
            assert outputs[0] == outputs[1], (preset, mode)
    # only convergence takes --jobs; elsewhere it is a usage error
    with pytest.raises(SystemExit, match="^2$"):
        main(["solve", "--config", cfg, "--jobs", "2"])


def test_cli_solve_export_mesh_and_inline_disk(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = disk(16)\n"
        "problem.principal = paper_disk\nproblem.b0 = 1\nproblem.b1 = 1\n"
        "problem.u0 = z2\nproblem.T = 0.2\nmesh.resolution = 3\n"
        "basis.k = 8\ntime.steps = 20\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--export-mesh"]) == 0
    header, rows = _read_csv(os.path.join(out, "nodes.csv"))
    assert header == ["id", "x", "y"] and len(rows) == 1 + 3 * 16
    header, rows = _read_csv(os.path.join(out, "elements.csv"))
    assert header == ["id", "n0", "n1", "n2"]
    header, rows = _read_csv(os.path.join(out, "facets.csv"))
    assert header == ["id", "n0", "n1", "tag"]
    assert all(r[3] == "robin" for r in rows)


def _sharpness(tmp_path, text):
    """Exit code of ``sharpness`` on a config of ``text`` into tmp_path/out."""
    cfg = _write_cfg(tmp_path, text)
    return main(["sharpness", "--config", cfg, "--out", str(tmp_path / "out")])


def test_cli_sharpness_witness(tmp_path):
    out = str(tmp_path / "out")
    assert _sharpness(tmp_path, "sharpness.s = 0.75\nsharpness.terms = 20000\n") == 0
    header, rows = _read_csv(os.path.join(out, "sharpness.csv"))
    assert header == ["N", "partial_A", "tail_A", "partial_B", "verdict"]
    assert rows[-1][4] == "diverges"
    partials = [float(r[1]) for r in rows]
    assert partials == sorted(partials)


def test_cli_sharpness_stops_at_the_requested_terms(tmp_path):
    out = str(tmp_path / "out")
    assert _sharpness(tmp_path, "sharpness.s = 0.75\nsharpness.terms = 50\n") == 0
    _, rows = _read_csv(os.path.join(out, "sharpness.csv"))
    sizes = [int(r[0]) for r in rows]
    assert sizes[-1] == 50 and max(sizes) == 50


def test_cli_sharpness_out_of_range(tmp_path):
    assert _sharpness(tmp_path, "sharpness.s = 0.4\n") == 2


def test_cli_sharpness_explicit_epsilon_converging(tmp_path):
    out = str(tmp_path / "out")
    text = "sharpness.s = 0.75\nsharpness.epsilon = 1.0\nsharpness.terms = 5000\n"
    assert _sharpness(tmp_path, text) == 0
    _, rows = _read_csv(os.path.join(out, "sharpness.csv"))
    assert rows[-1][4] == "converges"
    assert np.isfinite(float(rows[-1][1]))


def test_inline_config_with_tabulated_coefficient(tmp_path):
    table = tmp_path / "a0.csv"
    table.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\n"
        f"problem.a0 = csv:{table}\nproblem.s = all\nproblem.u0 = sine\n"
        "mesh.resolution = 12\nbasis.k = 6\ntime.steps = 20\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    report = dict(_read_csv(os.path.join(out, "report.csv"))[1])
    assert report["all_pass"] == "true"


def test_mesh_export_schema(tmp_path):
    mesh = build_mesh(Interval(0.0, 1.0), 4, lambda x: np.isclose(x, 0.0))
    export_mesh(mesh, str(tmp_path))
    header, rows = _read_csv(str(tmp_path / "nodes.csv"))
    assert header == ["id", "x"] and len(rows) == 5
    header, rows = _read_csv(str(tmp_path / "elements.csv"))
    assert header == ["id", "n0", "n1"] and len(rows) == 4
    header, rows = _read_csv(str(tmp_path / "facets.csv"))
    assert header == ["id", "n0", "tag"]
    assert [r[2] for r in rows] == ["S", "robin"]


def test_matrix_coordinate_export(tmp_path):
    path = str(tmp_path / "mat.csv")
    export_matrix_coo(path, np.array([[1.0, 0.0], [2.0j, 3.0]]))
    header, rows = _read_csv(path)
    assert header == ["row", "col", "re", "im"]
    parsed = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]
    assert parsed == [(0, 0, 1.0, 0.0), (0, 1, 0.0, 0.0), (1, 0, 0.0, 2.0), (1, 1, 3.0, 0.0)]


def test_cli_eigs_vectors_writes_every_entry(tmp_path):
    # the entry set is fixed by the block's shape: N k pairs in row-major
    # order, whatever entries come out exactly zero (zero1d: N = 31, k = 16)
    cfg = _write_cfg(tmp_path, "problem.preset = zero1d\n")
    out = str(tmp_path / "out")
    assert main(["eigs", "--config", cfg, "--out", out, "--vectors"]) == 0
    _, rows = _read_csv(os.path.join(out, "eigenvectors.csv"))
    pairs = [(int(r[0]), int(r[1])) for r in rows]
    assert pairs == [(i, j) for i in range(31) for j in range(16)]


def _per_cell_line(row):
    # the writer's reference: each cell formatted and joined one at a time
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    return ",".join(fmt(v) for v in row)


def test_table_writer_matches_per_cell_formatting(tmp_path):
    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308,
              -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0, np.float64(-2.5e-300)]
    n = len(floats)
    columns = [
        floats,
        np.array(floats[::-1]),
        list(range(-3, n - 3)),
        np.arange(n, dtype=np.int64) * 10**17,
        np.arange(n, dtype=np.uint32),
        [i % 2 == 0 for i in range(n)],
        np.arange(n) % 3 == 0,
        [f"s{i}" for i in range(n)],
    ]
    path = str(tmp_path / "table.csv")
    header = [f"c{j}" for j in range(len(columns))]
    cli._write_table(path, header, columns)
    expected = [",".join(header)] + [_per_cell_line(row) for row in zip(*columns)]
    with open(path, "rb") as fh:
        assert fh.read() == ("\n".join(expected) + "\n").encode()
    for v in floats + [7, np.int64(-7), True, np.bool_(False), "word"]:
        assert cli._fmt(v) == _per_cell_line([v])
    cli._write_table(path, ["a", "b"], [[], []])
    with open(path, "rb") as fh:
        assert fh.read() == b"a,b\n"
    assert not os.path.exists(path + ".tmp")


def _one_string_table(header, columns):
    # the writer before it streamed: the whole table formatted as one string
    formats, values = zip(*map(cli._cells, columns))
    line = ",".join(formats) + "\n"
    return (",".join(header) + "\n" + "".join(line % row for row in zip(*values))).encode()


def test_table_writer_in_blocks_matches_one_string_writer(tmp_path):
    n = 2 * cli.TABLE_ROWS + 3
    rng = np.random.default_rng(5)
    columns = [
        np.arange(n) - 7,
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        rng.random(n) < 0.5,
        [f"w{i}" for i in range(n)],
    ]
    header = ["i", "x", "flag", "word"]
    path = str(tmp_path / "table.csv")
    cli._write_table(path, header, columns)
    with open(path, "rb") as fh:
        assert fh.read() == _one_string_table(header, columns)
    empty = [np.array([], dtype=int), np.array([]), np.array([], dtype=bool), []]
    cli._write_table(path, header, empty)
    with open(path, "rb") as fh:
        assert fh.read() == _one_string_table(header, empty) == b"i,x,flag,word\n"
    # the coordinate export builds each block's indices, with the same rows
    # as the indices of the whole matrix
    matrix = rng.standard_normal((37, 19)) + 1j * rng.standard_normal((37, 19))
    assert matrix.size > cli.TABLE_ROWS
    export_matrix_coo(path, matrix)
    rows, cols = np.indices(matrix.shape)
    whole = [rows.ravel(), cols.ravel(), matrix.ravel().real, matrix.ravel().imag]
    with open(path, "rb") as fh:
        assert fh.read() == _one_string_table(["row", "col", "re", "im"], whole)
    assert os.listdir(tmp_path) == ["table.csv"]


def test_table_writer_failure_leaves_no_partial_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old\n")
    n = 2 * cli.TABLE_ROWS
    # a complex column has no format, so the first block fails after the header
    columns = [np.arange(n), np.arange(n) * 1j]
    with pytest.raises(KeyError):
        cli._write_table(str(path), ["i", "z"], columns)
    assert os.listdir(tmp_path) == ["table.csv"]
    assert path.read_bytes() == b"old\n"


def test_cli_import_leaves_process_pool_unloaded():
    code = "import sys, ncparab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_exports_are_atomic_with_lf_line_endings(tmp_path):
    mesh = build_mesh(Rectangle(0.0, 1.0, 0.0, 1.0), 2, lambda x, y: np.isclose(y, 0.0))
    export_mesh(mesh, str(tmp_path))
    export_matrix_coo(str(tmp_path / "mat.csv"), np.array([[1.0, 0.0], [2.0j, complex(-0.0, 3.0)]]))
    for name in ("nodes.csv", "elements.csv", "facets.csv", "mat.csv"):
        data = (tmp_path / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
    assert sorted(os.listdir(tmp_path)) == ["elements.csv", "facets.csv", "mat.csv", "nodes.csv"]
    assert (tmp_path / "mat.csv").read_text().splitlines()[1:] == [
        "0,0,1,0", "0,1,0,0", "1,0,0,2", "1,1,-0,3",
    ]


def test_repeated_runs_identical_in_process(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = drift1d\nmesh.resolution = 20\nbasis.k = 8\ntime.steps = 30\n",
    )
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("domain", ["rectangle(0,0,0,1)", "interval(1,0)"])
def test_cli_degenerate_domain_is_config_error(tmp_path, domain, monkeypatch):
    def no_mesh(*args):
        raise AssertionError("meshed a degenerate domain")

    monkeypatch.setattr(cli, "discretize", no_mesh)
    cfg = _write_cfg(
        tmp_path, f"problem.preset = inline\nproblem.domain = {domain}\nproblem.s = all\n"
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_parse_domain_rejects_degenerate_bounds():
    for bad in ("interval(1,0)", "interval(0,0)", "interval(0,inf)", "rectangle(0,0,0,1)",
                "rectangle(0,1,1,0)", "rectangle(0,1,0,nan)", "disk(2)"):
        with pytest.raises(ConfigError):
            parse_domain(bad)


def test_cli_unparsable_diag_principal_is_config_error(tmp_path):
    for principal in ("diag(1,x)", "diag(1,nan)"):
        cfg = _write_cfg(
            tmp_path,
            "problem.preset = inline\nproblem.domain = rectangle(0,1,0,1)\n"
            f"problem.principal = {principal}\nproblem.s = all\nmesh.resolution = 4\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_non_finite_problem_values_are_config_errors(tmp_path):
    table = tmp_path / "nan.csv"
    table.write_text("x,re,im\n0.0,1.0,0.0\n1.0,nan,0.0\n")
    for line in ("problem.a0 = nan", "problem.b0 = inf", "problem.first_order = nan",
                 "problem.first_order = x", "problem.T = nan", "problem.T = inf",
                 f"problem.a0 = csv:{table}"):
        cfg = _write_cfg(
            tmp_path,
            "problem.preset = inline\nproblem.domain = interval(0,1)\nproblem.s = all\n"
            f"mesh.resolution = 6\n{line}\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, line


def test_b1_may_vanish_on_the_constrained_set_only(tmp_path):
    # b1 vanishes at x = 0: allowed where the solution is pinned (S = left),
    # a division by zero where the Robin condition needs b0/b1 (S = right)
    table = tmp_path / "b1.csv"
    table.write_text("x,re,im\n0.0,0.0,0.0\n1.0,1.0,0.0\n")
    for side, code in (("left", 0), ("right", 3)):
        cfg = _write_cfg(
            tmp_path,
            "problem.preset = inline\nproblem.domain = interval(0,1)\n"
            f"problem.s = {side}\nproblem.u0 = sine\nproblem.b1 = csv:{table}\n"
            "mesh.resolution = 20\nbasis.k = 3\ntime.steps = 5\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / side)]) == code


def test_cli_convergence_heat2d_second_order(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat2d\nconvergence.levels = 3\nmesh.resolution = 8\n",
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "convergence.csv"))
    h, dt = ([float(r[i]) for r in rows] for i in (0, 1))
    # h is the longest edge, the cell diagonal; dt = h/10 rounded to whole
    # steps on the coarsest level, then halved with h
    assert h == pytest.approx([np.sqrt(2.0) / 8 / 2**i for i in range(3)], rel=1e-15)
    assert dt == pytest.approx([0.05 / 3 / 2**i for i in range(3)], rel=1e-15)
    orders = [float(r[3]) for r in rows[1:]]
    assert all(abs(o - 2.0) <= 0.02 for o in orders)


def test_cli_convergence_heat2d_eigs_mode_second_order(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = heat2d\nconvergence.mode = eigs\nconvergence.levels = 3\n"
        "mesh.resolution = 8\n",
    )
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "convergence.csv"))
    orders = [float(r[3]) for r in rows[1:]]
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


@pytest.mark.parametrize("mode", ["space_time", "time"])
def test_cli_convergence_computes_no_eigenbasis(tmp_path, monkeypatch, mode):
    from ncparab import integrator

    def no_eigenbasis(*args):
        raise AssertionError("convergence computed an eigenbasis")

    monkeypatch.setattr(integrator, "generalized_eigenbasis", no_eigenbasis)
    cfg = _write_cfg(
        tmp_path,
        f"problem.preset = heat1d\nconvergence.mode = {mode}\nconvergence.levels = 2\n"
        "mesh.resolution = 20\ntime.steps = 10\n",
    )
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("resolution", [16, 32, 64])
@pytest.mark.parametrize("command", ["eigs", "solve"])
def test_cli_singular_k_plus_exits_3(tmp_path, command, resolution, capsys):
    # b0 = 0 and a0 = 0 make K+ the pure Neumann stiffness, and constants
    # have zero energy; roundoff puts its smallest pencil eigenvalue near
    # +-1e-12, on either side of 0
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\n"
        f"problem.b0 = 0\nproblem.a0 = 0\nmesh.resolution = {resolution}\n",
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "NotSPD" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, quantity",
    [("problem.b0 = 1+5j", "b0/b1"), ("problem.b0 = -3", "b0/b1"), ("problem.b1 = 1+1j", "b1")],
)
def test_cli_robin_data_that_no_form_represents_exits_2(tmp_path, line, quantity, capsys):
    # a complex or negative b0/b1, or a complex b1, at a Robin end would be
    # dropped in part by the energy product; it is refused, never run
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\n"
        f"{line}\nmesh.resolution = 8\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {quantity} = " in capsys.readouterr().err
    assert not (tmp_path / "o" / "solution_final.csv").exists()


def test_cli_b1_zero_at_a_robin_end_exits_3(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "problem.preset = inline\nproblem.domain = interval(0,1)\nproblem.b1 = 0\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "DivisionByZeroB1" in capsys.readouterr().err


def test_cli_convergence_runs_at_most_one_worker_per_level(tmp_path, monkeypatch):
    # a process pool starts all its workers at once, so --jobs is capped at
    # the level count; the pool here records its size and maps serially
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    out = str(tmp_path / "o")
    for levels, jobs, pools in ((3, "100000", [3]), (3, "1", []), (1, "8", [])):
        sizes.clear()
        cfg = _write_cfg(
            tmp_path,
            f"problem.preset = heat1d\nconvergence.levels = {levels}\nmesh.resolution = 10\n",
        )
        assert main(["convergence", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
        assert sizes == pools
        assert len(_read_csv(os.path.join(out, "convergence.csv"))[1]) == levels


_INTERVAL = "problem.preset = inline\nproblem.domain = interval(0,1)\n"
_RECTANGLE = "problem.preset = inline\nproblem.domain = rectangle(0,1,0,1)\n"
_HEAT = "problem.preset = heat1d\nconvergence.levels = 2\nmesh.resolution = 10\n"
_TINY = _INTERVAL + (
    "problem.s = all\nproblem.u0 = sine\nmesh.resolution = 5\nbasis.k = 2\ntime.steps = 4\n"
)
_HUGE_C1 = _TINY + "problem.first_order = 1e200\n"
_HUGE_GRONWALL = _TINY + "problem.a0 = -5\nproblem.T = 1e300\n"
_HUGE_CAUCHY = _TINY + "problem.a0 = -1e300j\nchecks.cauchy = true\n"
_HUGE_ROBIN = _TINY.replace("s = all", "s = none") + "problem.b0 = 1e300\nproblem.b1 = 1e-300\n"
_HUGE_DRIFT = _TINY + "problem.principal = diag(1e300)\nproblem.first_order = -1e300\n"
_TINY_2D = _TINY.replace("interval(0,1)", "rectangle(0,1,0,1)")
_HUGE_MODAL = _TINY_2D + "problem.principal = diag(1e-300,1e-300)\nproblem.a0 = -1e300j\n"
_HUGE_ENERGY = _TINY_2D + (
    "problem.principal = diag(1e300,1)\nproblem.T = 1e-320\nchecks.energy = true\n"
)
_HUGE_ENERGY_BOUND = _INTERVAL + (
    "problem.s = left\nproblem.u0 = sine\nproblem.a0 = 1e300\nproblem.T = 1e300\n"
    "mesh.resolution = 2\nbasis.k = 3\ntime.steps = 1\ntime.theta = 0.5\n"
)

# (command and flags, config text or None, documented exit code); {one} and
# {two} name a 1D and a 2D CSV field table
EXIT_CODES = {
    "csv-2d-a0-on-interval": (["solve"], _INTERVAL + "problem.a0 = csv:{two}\n", 2),
    "csv-2d-u0-on-interval": (["solve"], _INTERVAL + "problem.u0 = csv:{two}\n", 2),
    "csv-1d-b1-on-rectangle": (["solve"], _RECTANGLE + "problem.b1 = csv:{one}\n", 2),
    "jobs-zero": (["convergence", "--jobs", "0"], _HEAT, 2),
    "jobs-negative": (["convergence", "--jobs", "-3"], _HEAT, 2),
    # a mesh of one cell, or a problem without an exact solution to compare
    # with, is refused as the config's fault
    "resolution-one-solve": (["solve"], "problem.preset = zero1d\nmesh.resolution = 1\n", 2),
    "resolution-one-convergence": (
        ["convergence"], "problem.preset = heat1d\nconvergence.levels = 2\nmesh.resolution = 1\n", 2
    ),
    "convergence-inline-no-oracle": (
        ["convergence"], _INTERVAL + "problem.s = all\nproblem.u0 = sine\nmesh.resolution = 8\n", 2
    ),
    "step-matrix-overflow": (
        ["solve"], _INTERVAL + "problem.u0 = sine\nproblem.T = 1e-320\n", 3
    ),
    # a Robin weight b0/b1 that overflows is no form; an explicit modal
    # step that overflows is no trajectory
    "robin-weight-overflow": (["solve"], _HUGE_ROBIN, 2),
    "modal-step-overflow": (["solve"], _TINY + "problem.a0 = 1e300\ntime.theta = 0\n", 3),
    # a drift that overflows against the principal factor is no form; a
    # modal matrix H* C H that overflows is no system
    "drift-overflow": (["solve"], _HUGE_DRIFT, 2),
    "modal-matrix-overflow": (["solve"], _HUGE_MODAL, 3),
    # an energy identity whose terms overflow (dt = 2.5e-321) fails, and so
    # does an energy bound whose left side overflows (dt = 1e300)
    "energy-identity-overflow-solve": (["solve"], _HUGE_ENERGY, 1),
    "energy-bound-overflow-solve": (["solve"], _HUGE_ENERGY_BOUND, 1),
    "energy-bound-overflow-check": (["check"], _HUGE_ENERGY_BOUND, 1),
    # an infinite c1 or Gronwall factor is an infinite bound, not a crash;
    # both runs fail the uniqueness condition
    "first-order-overflow-solve": (["solve"], _HUGE_C1, 1),
    "first-order-overflow-check": (["check"], _HUGE_C1, 1),
    "gronwall-overflow-solve": (["solve"], _HUGE_GRONWALL, 1),
    "gronwall-overflow-check": (["check"], _HUGE_GRONWALL, 1),
    # an exact Cauchy constant that overflows is an eigensolver failure, from
    # ARPACK (N = 4) or from the dense branch (N = 2)
    "huge-cauchy-constant": (["solve"], _HUGE_CAUCHY, 3),
    "huge-cauchy-constant-n2": (["solve"], _HUGE_CAUCHY.replace("resolution = 5", "resolution = 3"), 3),
    # a map that overflows is refused at its first value that is not finite
    "arpack-map-overflow": (
        ["solve"], _TINY + "problem.first_order = -1e300\nchecks.cauchy = true\n", 3
    ),
    # the sharpness values come only from the config: a removed flag is a
    # usage error, even with a valid value
    "sharpness-epsilon-flag": (["sharpness", "--epsilon", "1.0"], None, 2),
    "sharpness-epsilon-key": (["sharpness"], "sharpness.epsilon = -1\n", 2),
    "sharpness-terms-flag": (["sharpness", "--terms", "5000"], None, 2),
    "sharpness-terms-key": (["sharpness"], "sharpness.terms = 0\n", 2),
    "sharpness-s-flag": (["sharpness", "--s", "0.75"], None, 2),
    "abbreviated-flag": (["sharpness", "--s", "1"], None, 2),  # not --seed 1
    # an s outside (1/2, 1), or outside (0, 1] with epsilon set, is the config's fault
    "sharpness-s-out-of-range": (["sharpness"], "sharpness.s = 0.4\n", 2),
    "sharpness-s-above-one": (["sharpness"], "sharpness.s = 1.5\nsharpness.epsilon = 0.1\n", 2),
    # the output directory comes only from --out, and no key is a seed
    "output-dir-key": (["solve"], "problem.preset = zero1d\noutput.dir = elsewhere\n", 2),
    "seed-key": (["solve"], "problem.preset = zero1d\nseed = 7\n", 2),
    "key-set-twice": (["solve"], "problem.preset = zero1d\ntime.steps = 10\ntime.steps = 20\n", 2),
    "out-is-a-file": (["solve", "--out", "{one}"], "problem.preset = zero1d\n", 2),
    "unknown-preset": (["solve"], "problem.preset = nosuch\n", 2),
    "bad-domain": (["solve"], "problem.preset = inline\nproblem.domain = interval(1,0)\n", 2),
    # the element forms of such domains overflow
    "domain-too-small": (["solve"], _INTERVAL.replace("(0,1)", "(0,1e-300)"), 2),
    "domain-too-large": (["eigs"], _RECTANGLE.replace("(0,1,0,1)", "(0,1e300,0,1)"), 2),
    "theta-above-one": (["solve"], "problem.preset = zero1d\ntime.theta = 2\n", 2),
    "jobs-on-solve": (["solve", "--jobs", "2"], "problem.preset = zero1d\n", 2),
    # the checks that every report carries have no switch
    "checks-bounds-key": (["solve"], "problem.preset = zero1d\nchecks.bounds = false\n", 2),
    "checks-uniqueness-key": (["check"], "problem.preset = zero1d\nchecks.uniqueness = false\n", 2),
    "checks-continuity-key": (["solve"], "problem.preset = zero1d\nchecks.continuity = true\n", 2),
    # refusals of the config itself
    "config-unreadable": (["solve", "--config", "{one}.missing"], None, 2),
    "resolution-negative": (["solve"], "problem.preset = zero1d\nmesh.resolution = -1\n", 2),
    "convergence-mode-unknown": (["convergence"], _HEAT + "convergence.mode = nosuch\n", 2),
    "bool-key-not-bool": (["check"], "problem.preset = zero1d\nchecks.energy = maybe\n", 2),
    "s-selector-unknown": (["solve"], _INTERVAL + "problem.s = nosuch\n", 2),
    "source-unknown": (["solve"], _INTERVAL + "problem.f = nosuch\n", 2),
}


def _exit_code_case(tmp_path, name):
    """The argv of one EXIT_CODES case, with its config and tables written
    under ``tmp_path``, and its documented exit code."""
    argv, text, code = EXIT_CODES[name]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    one.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    two.write_text("x,y,re,im\n0.0,0.0,1.0,0.0\n1.0,1.0,1.0,0.0\n")
    argv = [arg.format(one=one) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    if text is not None:
        argv += ["--config", _write_cfg(tmp_path, text.format(one=one, two=two))]
    return argv, code


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_cli_exit_code_contract(tmp_path, name, capsys):
    argv, code = _exit_code_case(tmp_path, name)
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        status = exc.code
    assert status == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err


def _exit_code_case_in_a_child(tmp_path, name):
    """The finished process of one EXIT_CODES case run as ``python -W
    error``, after checking its real status and that no traceback escaped."""
    argv, code = _exit_code_case(tmp_path, name)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ncparab.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def test_cli_exit_code_contract_in_a_child_process(tmp_path):
    # the real process status, with every warning an error as in the suite
    proc = _exit_code_case_in_a_child(tmp_path, "step-matrix-overflow")
    assert "SingularStepMatrix" in proc.stderr


@pytest.mark.parametrize(
    "name, message",
    [
        ("robin-weight-overflow", "b0/b1 = "),
        ("modal-step-overflow", "trajectory is not finite"),
        ("drift-overflow", "problem.first_order entry 1 = "),
        ("modal-matrix-overflow", "H* C H"),
    ],
)
def test_overflows_are_refused_in_a_warnings_as_errors_child(tmp_path, name, message):
    # no overflow warning escapes before the refusal
    assert message in _exit_code_case_in_a_child(tmp_path, name).stderr


@pytest.mark.parametrize("name", sorted(name for name in EXIT_CODES if "-overflow-" in name))
def test_overflowing_constants_exit_1_in_a_child_process(tmp_path, name):
    # no overflow warning escapes the bounds: the run reports and exits 1
    assert _exit_code_case_in_a_child(tmp_path, name).stderr == ""


def test_an_overflowing_arpack_map_is_refused_before_lapack_sees_it(tmp_path):
    # LAPACK's LASCL complaint and ARPACK's workspace advice would misname
    # the failure; LAPACK writes to stdout
    proc = _exit_code_case_in_a_child(tmp_path, "arpack-map-overflow")
    assert "NoConvergence: ARPACK: the map overflows" in proc.stderr
    assert "LASCL" not in proc.stdout + proc.stderr and "workspace" not in proc.stderr


# A tiny valid inline problem from the documented vocabulary, and extremes
# of each key; a draw pushes one key to one of its extremes
_TAME = {
    "problem.domain": ("interval(0,1)", "rectangle(0,1,0,1)", "disk(8)"),
    "problem.first_order": ("", "1"),
    "problem.a0": ("0", "1"),
    "problem.s": ("none", "all"),
    "problem.u0": ("zero", "sine"),
    "time.theta": ("0.5", "1"),
    "mesh.resolution": ("2", "5"),
    "basis.k": ("1", "3"),
    "time.steps": ("1", "4"),
    "checks.energy": ("false", "true"),
    "checks.cauchy": ("false", "true"),
}
_EXTREME = {
    "problem.domain": (
        "interval(0,1e-300)", "interval(-1e300,1e300)", "rectangle(0,1e300,0,1)",
        "rectangle(0,1e-300,0,1)", "disk(3)",
    ),
    "problem.principal": (
        "diag(0,1)", "diag(1e300,1)", "diag(-1,1)", "diag(1e-300,1e-300)", "paper_disk", "diag(0)",
    ),
    "problem.first_order": ("1e200", "-1e300", "1j", "1e300,1e300", "1e-300"),
    "problem.a0": ("-1e300", "1e300", "1e-300", "-5", "-5+1e300j"),
    "problem.b0": ("0", "1e300", "-1e300", "1e-300", "1j"),
    "problem.b1": ("0", "1e300", "1e-300", "-1", "1j"),
    "problem.s": ("left", "right"),
    "problem.u0": ("cosine", "z2"),
    "problem.f": ("sine_cos",),
    "problem.T": ("1e300", "1e-300", "1e-320"),
    "time.theta": ("0",),
    "mesh.resolution": ("1",),
    "basis.k": ("0", "1000"),
    "time.steps": ("0",),
}


@st.composite
def _pushed_run(draw):
    """A command and the config text of one draw."""
    command = draw(st.sampled_from(["solve", "check", "eigs"]))
    values = {key: draw(st.sampled_from(choices)) for key, choices in _TAME.items()}
    key = draw(st.sampled_from(sorted(_EXTREME)))
    values[key] = draw(st.sampled_from(_EXTREME[key]))
    return command, "problem.preset = inline\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


def _argv(root, command, text):
    config = os.path.join(root, "run.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    return [command, "--config", config, "--out", os.path.join(root, "o")]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(run=_pushed_run())
def test_exit_code_contract_holds_over_the_config_vocabulary(run):
    # in-process, where the suite makes every warning an error
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stderr(err):
        status = main(_argv(root, *run))
    assert status in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


@settings(max_examples=4, derandomize=True, deadline=None)
@given(run=_pushed_run())
def test_exit_code_contract_holds_in_a_warnings_as_errors_child(run):
    with tempfile.TemporaryDirectory() as root:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ncparab.cli", *_argv(root, *run)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
    assert proc.returncode in (0, 1, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr and "internal error" not in proc.stderr
