"""The benchmark traces functions by name (``perfbench/tracer.py``). A
renamed or moved target is only reported on stderr and its per-layer metric
silently disappears, so every target must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module("mzsim." + module), attr, None))
