"""The benchmark's own output check on the tiny version of every workload.

Each workload's ``tiny`` config (perfbench/workloads.py) runs in-process
through ``cli.main``, and ``perfbench/check.check_outputs`` must find no
problem against the committed reference (perfbench/reference/tiny). The
perfbench modules are only read; they are loaded under private names so
their plain module names (``check``, ``workloads``) stay out of the way.
The same tiny runs also pin the package's sparse factors: how many
``spectral._factor`` makes, for ``factor`` and ``arpack``, and of which
kind, and that SuperLU runs only from there, and only for the 2D workload.
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
    # the helper behind factor and arpack is wrapped, and SuperLU both where
    # the helper reaches it and where ARPACK would factor a pencil itself;
    # each factor records its hermitian flag, each SuperLU call the code
    # that made it
    factor, splu = spectral._factor, spla.splu
    factored, callers = [], []

    def counting(mat, name, hermitian):
        factored.append(hermitian)
        return factor(mat, name, hermitian)

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spectral, "_factor", counting)
    monkeypatch.setattr(spla, "splu", recording)
    monkeypatch.setattr(sys.modules[spla.eigs.__module__], "splu", recording)
    counts, superlu, kinds = {}, {}, {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        factored.clear()
        callers.clear()
        (tmp_path / name).mkdir()
        assert _run_tiny(workload, tmp_path / name)[0] == 0
        assert all(code is spectral._superlu.__code__ for code in callers)
        counts[name], superlu[name], kinds[name] = len(factored), len(callers), list(factored)
    # forced-drift-1d: K+ (dual norms) and K+ + M (Cauchy check); disk: the
    # shifted pencil; heat-convergence: K+ and the step matrix per level. M
    # is never factored: assembly checks it on the mesh
    assert counts == {"disk-degenerate": 1, "forced-drift-1d": 2, "heat-convergence": 4}
    # every matrix of a 1D mesh is tridiagonal and goes to LAPACK
    assert superlu == {"disk-degenerate": 1, "forced-drift-1d": 0, "heat-convergence": 0}
    # every one is Hermitian definite: heat1d has no lower-order form, so its
    # step matrix M/dt + theta K+ is too
    assert kinds == {
        "disk-degenerate": [True],
        "forced-drift-1d": [True, True],
        "heat-convergence": [True] * 4,
    }
