from pathlib import Path

import pytest

import ncparab
from ncparab.config import RunConfig, build_problem
from ncparab.integrator import discretize

# The committed example studies, one config each.
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def build_pipeline(preset_name, resolution=None, k=None):
    """Discretize a preset, at its defaults where no size is given; shared
    helper returning (spec, mesh, forms, basis, basis size)."""
    spec, resolution, k, _ = build_problem(
        RunConfig(problem_preset=preset_name, mesh_resolution=resolution or 0, basis_k=k or 0)
    )
    forms, basis = discretize(spec, resolution, k)
    return spec, forms.mesh, forms, basis, basis.size


def child_env():
    """A minimal environment for a child process: one BLAS thread, none of
    the caller's settings, and PYTHONPATH at the directory that holds the
    imported package, so the child runs the same copy of ncparab (source
    tree, editable or regular install) as the test."""
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(ncparab.__file__).resolve().parent.parent),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@pytest.fixture(scope="session")
def heat_pipeline():
    return build_pipeline("heat1d", resolution=50, k=20)


@pytest.fixture(scope="session")
def disk_pipeline():
    return build_pipeline("disk", resolution=6, k=30)
