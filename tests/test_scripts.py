"""Smoke tests for the scripts under ``scripts/``, which import the package
API but are not otherwise run by the suite."""

import importlib.util
import math
from pathlib import Path

from mzsim.config import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scan_update_rules_measures_a_visibility():
    spec = importlib.util.spec_from_file_location(
        "scan_update_rules", SCRIPTS / "scan_update_rules.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    vis, w, r2 = module.measure(ExperimentConfig(), steps=8, photons=300)
    assert math.isfinite(vis) and 0.0 <= vis <= 1.0
