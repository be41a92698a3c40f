"""The benchmark's own output check on the tiny version of every workload.

Each workload's ``tiny`` config (perfbench/workloads.py) runs in-process
through ``cli.main``, and ``perfbench/check.check_outputs`` must find no
problem against the committed reference (perfbench/reference/tiny). The
perfbench modules are only read; they are loaded under private names so
their plain module names (``check``, ``workloads``) stay out of the way.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_the_benchmark_output_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text("tiny"))
    out = tmp_path / "out"
    argv = [workload.command, "--config", str(config), "--out", str(out), "--seed", "7"]
    assert main([*argv, *workload.extra_args]) == 0
    reference = PERFBENCH / "reference" / "tiny" / name
    assert check.check_outputs(str(out), str(reference), workload.outputs) == []
