"""Byte-identity of the package's outputs against recorded digests.

Every preset's ``solve`` at its default sizes (with the energy and Cauchy
checks on), ``convergence`` at two levels in each mode on heat1d and in
``space_time`` on heat2d, and heat2d ``eigs --vectors`` run in one child
process with one BLAS thread. The exit code and the sha256 of every output
file must match tests/golden_outputs.json. The digests hold for the numpy
and scipy versions recorded there; under other versions the test is skipped.

A change that moves output bytes on purpose rewrites the file with

    PYTHONPATH=src python -m tests.test_golden_outputs

which first prints every ``run/file`` key whose digest changed and every
run whose exit code changed, the list that CHANGES.md then gives.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from ncparab.presets import PRESETS
from tests.conftest import child_env

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

# run name -> (command and flags, config text)
RUNS = {
    **{
        f"solve-{name}": (
            ["solve"],
            f"problem.preset = {name}\nchecks.energy = true\nchecks.cauchy = true\n",
        )
        for name in PRESETS
    },
    "convergence-heat1d": (["convergence"], "problem.preset = heat1d\nconvergence.levels = 2\n"),
    "convergence-heat1d-time": (
        ["convergence"],
        "problem.preset = heat1d\nconvergence.mode = time\nconvergence.levels = 2\n"
        "mesh.resolution = 20\n",
    ),
    "convergence-heat1d-eigs": (
        ["convergence"],
        "problem.preset = heat1d\nconvergence.mode = eigs\nconvergence.levels = 2\n"
        "mesh.resolution = 10\n",
    ),
    "convergence-heat2d": (
        ["convergence"], "problem.preset = heat2d\nconvergence.levels = 2\nmesh.resolution = 8\n"
    ),
    "eigs-heat2d": (["eigs", "--vectors"], "problem.preset = heat2d\n"),
}

# runs every argv of a JSON mapping through cli.main, printing the exit codes
_CHILD = """
import json, sys
from ncparab.cli import main
print(json.dumps({name: main(argv) for name, argv in json.loads(sys.argv[1]).items()}))
"""


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_all(root: Path) -> dict:
    """Exit code and output file digests of every run, each run writing
    into its own directory under ``root``."""
    argvs = {}
    for name, (argv, text) in RUNS.items():
        config = root / f"{name}.cfg"
        config.write_text(text)
        argvs[name] = [*argv, "--config", str(config), "--out", str(root / name)]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    return {
        name: {
            "exit": codes[name],
            "files": {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted((root / name).iterdir())
            },
        }
        for name in RUNS
    }


def _digests(runs: dict) -> dict:
    """The digest of every output file, keyed by run and file name."""
    return {
        f"{name}/{file}": digest
        for name, run in runs.items()
        for file, digest in run["files"].items()
    }


def changes(recorded: dict, runs: dict) -> list[str]:
    """Every ``run/file`` key whose digest differs between two sets of runs,
    then every run whose exit code differs, as ``run: exit old -> new``
    (``None`` where a run is missing on one side)."""
    got, want = _digests(runs), _digests(recorded)
    moved = sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))
    names = sorted(recorded.keys() | runs.keys())
    exits = [[name] + [r.get(name, {}).get("exit") for r in (recorded, runs)] for name in names]
    return moved + [f"{name}: exit {old} -> {new}" for name, old, new in exits if old != new]


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded = {key: golden[key] for key in _versions()}
    if recorded != _versions():
        pytest.skip(f"digests recorded under {recorded}, running {_versions()}")
    assert changes(golden["runs"], run_all(tmp_path)) == []


def test_changes_names_moved_files_and_exit_codes():
    recorded = {"a": {"exit": 0, "files": {"x.csv": "1", "y.csv": "2"}}}
    runs = {
        "a": {"exit": 1, "files": {"x.csv": "1", "y.csv": "3"}},
        "b": {"exit": 0, "files": {"z.csv": "4"}},
    }
    assert changes(recorded, runs) == ["a/y.csv", "b/z.csv", "a: exit 0 -> 1", "b: exit None -> 0"]
    assert changes(runs, runs) == []


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        runs = run_all(Path(root))
    print("\n".join(changes(old, runs)) or "no digest or exit code changed")
    GOLDEN.write_text(json.dumps({**_versions(), "runs": runs}, indent=1) + "\n")
