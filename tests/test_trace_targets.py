"""Every function the benchmark's layer tracer wraps exists in torsionlab."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("module, path", layertrace.SPAN_TARGETS)
def test_span_target_resolves(module, path):
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # methods are wrapped on their class, so they must be defined there
    target = vars(owner).get(attr) if cls_path else getattr(owner, attr, None)
    assert callable(target), f"{module}.{path} is absent"
