"""Byte-identity of the package's outputs against recorded digests.

Every preset's ``solve`` at its default sizes (with the energy and Cauchy
checks on), heat1d ``convergence`` at two levels and heat2d
``eigs --vectors`` run in one child process with one BLAS thread. The exit
code and the sha256 of every output file must match
tests/golden_outputs.json. The digests hold for the numpy and scipy
versions recorded there; under other versions the test is skipped.

A change that moves output bytes on purpose rewrites the file with

    PYTHONPATH=src python -m tests.test_golden_outputs

and lists the moved files in CHANGES.md.
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


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded = {key: golden[key] for key in _versions()}
    if recorded != _versions():
        pytest.skip(f"digests recorded under {recorded}, running {_versions()}")
    runs = run_all(tmp_path)
    got, want = _digests(runs), _digests(golden["runs"])
    assert sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key)) == []
    assert {name: run["exit"] for name, run in runs.items()} == {
        name: run["exit"] for name, run in golden["runs"].items()
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        GOLDEN.write_text(json.dumps({**_versions(), "runs": run_all(Path(root))}, indent=1) + "\n")
