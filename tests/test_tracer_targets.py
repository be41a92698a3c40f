"""The benchmark's tracer (perfbench/spans.py) wraps ncparab functions by
name when it installs its spans; a name that no longer exists makes every
traced run fail, so each one must resolve here first."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
