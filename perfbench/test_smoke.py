"""Smoke test of the benchmark itself, on tiny versions of every workload.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the output check passes and can fail, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_outputs  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "3",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Two samples at least, so the byte-identity check ran.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    # Every metric, including those kept out of the JSON, is printed with its unit.
    printed = {tuple(line.split()[:3:2]) for line in proc.stdout.splitlines() if line.startswith("  ")}
    assert {(m, u) for m, u in (PER_LAYER if trace else END_TO_END).items()} <= printed
    assert "output check: pass" in proc.stdout
    assert '"seed": 7' in proc.stdout and '"environment"' in proc.stdout


def test_traced_counts_follow_the_time_grid():
    proc = bench("--workload", "forced-drift-1d", "--seed", "1", "--seconds", "1",
                 "--trace", "1", "--size", "tiny")
    m = last_json(proc.stdout)["metrics"]
    steps = WORKLOADS["forced-drift-1d"].tiny["time.steps"]
    # Modal forcing, dual-norm trace (steps + 1 each) and energy identity (steps).
    assert m["assembly.load_calls"]["value"] == 3 * steps + 2
    assert m["assembly.dual_norm_calls"]["value"] == steps + 1
    assert m["integrator.steps"]["value"] == steps


def test_output_check_catches_changed_results(tmp_path):
    ref = HERE / "reference" / "tiny" / "disk-degenerate"
    outputs = WORKLOADS["disk-degenerate"].outputs
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    # The trajectory reference holds only the compared columns.
    assert check_outputs(str(out), str(ref), outputs) == []

    lines = (out / "solution_final.csv").read_text().splitlines()
    node, re_part, im_part = lines[5].split(",")
    lines[5] = f"{node},{float(re_part) * (1 + 1e-5) + 1e-5},{im_part}"
    (out / "solution_final.csv").write_text("\n".join(lines) + "\n")
    assert any("solution_final.csv" in p for p in check_outputs(str(out), str(ref), outputs))

    shutil.copyfile(ref / "solution_final.csv", out / "solution_final.csv")
    report = (out / "report.csv").read_text().replace("sup_bound_pass,true", "sup_bound_pass,false")
    (out / "report.csv").write_text(report)
    assert check_outputs(str(out), str(ref), outputs) == [
        "report.csv: sup_bound_pass = false, reference true"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "disk-degenerate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
