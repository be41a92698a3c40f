"""The benchmark's own output check on the tiny version of every workload.

Each workload's ``tiny`` config (perfbench/workloads.py) runs in-process
through ``cli.main``, and ``perfbench/check.check_outputs`` must find no
problem against the committed reference (perfbench/reference/tiny). The
perfbench modules are only read; they are loaded under private names so
their plain module names (``check``, ``workloads``) stay out of the way.
The same tiny runs also pin the package's SuperLU factors: their count, and
that each comes from ``spectral.factor``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

from ncparab import spectral
from ncparab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


def _run_tiny(workload, tmp_path):
    """Exit code and output directory of the workload's tiny config."""
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text("tiny"))
    out = tmp_path / "out"
    argv = [workload.command, "--config", str(config), "--out", str(out), "--seed", "7"]
    return main([*argv, *workload.extra_args]), out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_the_benchmark_output_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    code, out = _run_tiny(workload, tmp_path)
    assert code == 0
    reference = PERFBENCH / "reference" / "tiny" / name
    assert check.check_outputs(str(out), str(reference), workload.outputs) == []


def test_every_sparse_factor_of_the_workloads_comes_from_spectral_factor(tmp_path, monkeypatch):
    # SuperLU is wrapped both where the package reaches it and where ARPACK
    # would factor a pencil itself; each call records the code that made it
    callers = []
    splu = spla.splu

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    monkeypatch.setattr(sys.modules[spla.eigsh.__module__], "splu", recording)
    counts = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        callers.clear()
        (tmp_path / name).mkdir()
        assert _run_tiny(workload, tmp_path / name)[0] == 0
        assert all(code is spectral.factor.__code__ for code in callers)
        counts[name] = len(callers)
    # forced-drift-1d: K+ (dual norms) and K+ + M (Cauchy check); disk: M and
    # the shifted pencil; heat-convergence: M, K+ and the step matrix per level
    assert counts == {"disk-degenerate": 2, "forced-drift-1d": 2, "heat-convergence": 6}
