"""The names the benchmark's tracer wraps exist in the package.

``perfbench/tracing.py`` lists a wrapped name that is gone as absent and
reads its metrics as 0, so a rename there shows only as a zeroed counter.
This test reads its ``WRAPPED`` table and fails on such a name instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({place for places in module.WRAPPED.values() for place in places})


@pytest.mark.parametrize("module_name,name", wrapped_names(), ids=lambda part: part)
def test_every_wrapped_name_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))
