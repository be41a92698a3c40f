"""The benchmark's tracer (perfbench/spans.py) wraps ncparab functions by
name when it installs its spans, imports one more, and reads attributes of
the results it keeps; a name that no longer exists makes every traced run
fail, so each one must resolve here first."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# What ``Tracer.summary`` and ``eigen_residuals`` read of the kept results,
# by class, and the one function ``eigen_residuals`` imports.
RESULT_ATTRIBUTES = {
    "meshing.Mesh": ("num_nodes",),
    "assembly.AssembledForms": ("N", "k_plus"),
    "spectral.EigenBasis": ("size", "vectors", "eigenvalues"),
    "spectral.OrthogonalityReport": ("max_plus_residual", "max_mass_offdiag"),
    "integrator.GalerkinTrajectory": ("times",),
}
IMPORTED = ("spectral", "verify_orthogonality")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_to_callables():
    targets = _spans_module().TARGETS
    assert targets
    for home, names in targets.items():
        module = importlib.import_module(f"ncparab.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ncparab.{home}.{name}"


def test_tracer_imports_and_result_attributes_resolve():
    home, name = IMPORTED
    assert callable(getattr(importlib.import_module(f"ncparab.{home}"), name, None))
    for path, names in RESULT_ATTRIBUTES.items():
        home, cls_name = path.split(".")
        cls = getattr(importlib.import_module(f"ncparab.{home}"), cls_name)
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name in fields or hasattr(cls, name), f"ncparab.{path}.{name}"
