"""The benchmark traces functions by name (``perfbench/tracer.py``). A
renamed or moved target is only reported on stderr and its per-layer metric
silently disappears, so every target must still exist. The benchmark also
drives ``mzsim.cli.main`` with fixed argvs, so every one of them must parse."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mzsim.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", _load("tracer").TARGETS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module("mzsim." + module), attr, None))


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_workload_argvs_parse(name, tmp_path):
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    workload = WORKLOADS.build(name, pins["default_seed"], tmp_path, pins, smoke=True)
    parser = build_parser()
    for argv in [*workload.warmup, *(a for op in workload.templates for a in op)]:
        parser.parse_args(argv)
