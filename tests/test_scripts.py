"""The example studies: each committed config under ``examples/`` runs
in-process through ``cli.main`` and must give its key result. The disk demo
script runs in a child process with ``child_env`` and must print its own."""

import csv
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncparab.cli import main
from ncparab.config import preset_problem
from ncparab.meshing import build_mesh
from ncparab.problem import UnitDiskPolygon
from tests.conftest import EXAMPLES, child_env
from tests.test_acceptance import discrete_series_energy

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _study(command, config, out):
    """The data rows of the table that ``command`` writes for ``config``:
    convergence.csv or sharpness.csv."""
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_disk_decay_demo():
    args = [sys.executable, str(SCRIPTS / "disk_decay_demo.py")]
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "monotone decay: True" in proc.stdout.splitlines()


def test_convergence_study_space_time_order_two(tmp_path):
    rows = _study("convergence", EXAMPLES / "convergence_space_time.cfg", tmp_path)
    errors = [f"{float(row[2]):.4e}" for row in rows]
    assert errors == ["1.4272e-03", "3.5676e-04", "8.9187e-05", "2.2297e-05"]
    orders = [float(row[3]) for row in rows[1:]]
    assert len(orders) == 3 and all(o == pytest.approx(2.0, abs=5e-3) for o in orders)


def test_convergence_study_time_order_one(tmp_path):
    rows = _study("convergence", EXAMPLES / "convergence_time.cfg", tmp_path)
    assert [float(row[0]) for row in rows] == [1.0 / 200] * 4  # fixed mesh width
    errors = [f"{float(row[2]):.4e}" for row in rows]
    assert errors == ["4.6762e-02", "2.3840e-02", "1.2031e-02", "6.0366e-03"]
    orders = [float(row[3]) for row in rows[1:]]
    assert orders == pytest.approx([0.972, 0.987, 0.995], abs=0.01)


def test_sharpness_table_witnesses_diverge(tmp_path):
    text = (EXAMPLES / "sharpness.cfg").read_text()
    printed = {}
    for s in (0.55, 0.6, 0.75, 0.9, 0.95):
        config, swapped = re.subn(r"^sharpness\.s = .*$", f"sharpness.s = {s}", text, flags=re.M)
        assert swapped == 1
        (tmp_path / f"{s}.cfg").write_text(config)
        rows = _study("sharpness", tmp_path / f"{s}.cfg", tmp_path / str(s))
        n, partial_a, tail_a, partial_b, verdict = rows[-1]
        assert (n, verdict) == ("200000", "diverges")
        printed[s] = f"{float(partial_a):.4f} {float(tail_a):.2e} {float(partial_b):.2f}"
    assert printed[0.55] == "61.0545 6.83e+01 51.24"
    assert printed[0.95] == "17.7315 5.75e-02 1683.39"

    # the truncated series' energy on the disk mesh against its limit
    eps, K = 0.5, 8
    spec = preset_problem("disk")
    spec.domain = UnitDiskPolygon(128)
    mesh = build_mesh(spec.domain, 32, spec.dirichlet_selector)
    value = discrete_series_energy(mesh, spec, eps, K)
    analytic = 2.0 * np.pi * float(np.sum((np.arange(K + 1) + 1.0) ** (-1.0 - eps)))
    assert f"{value:.4f}" == "12.4313"
    assert abs(value - analytic) / analytic < 0.01
