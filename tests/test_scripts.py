"""Smoke test of the experiment scripts: each runs in a child process with
``child_env`` and must print its key result."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name):
    args = [sys.executable, str(SCRIPTS / name)]
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_disk_decay_demo():
    assert "monotone decay: True" in _run("disk_decay_demo.py").splitlines()


def test_convergence_study_space_time_order_two():
    table = _run("convergence_study.py").split("time refinement, theta = 1 ")[0]
    orders = [float(line.split()[4]) for line in table.splitlines() if len(line.split()) == 5]
    assert len(orders) == 3 and all(o == pytest.approx(2.0, abs=5e-3) for o in orders)


def test_sharpness_table_witnesses_diverge():
    lines = _run("sharpness_table.py").splitlines()
    rows = [line.split() for line in lines[1:6]]
    assert [row[-1] for row in rows] == ["diverges"] * 5
    # the truncated series' energy on the disk mesh against its limit
    (line,) = [line for line in lines if line.startswith("cross-validation")]
    values = dict(part.split(" = ") for part in line.split(": ", 1)[1].split(", "))
    assert values["discrete"] == "12.4313"
    assert float(values["rel"].rstrip("%")) < 1.0
