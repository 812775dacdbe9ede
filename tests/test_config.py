import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from mzsim.config import (
    ConfigError,
    ExperimentConfig,
    SplitterConfig,
    config_from_dict,
    load_config,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_empty_file_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert load_config(path) == ExperimentConfig()


def test_empty_object_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert load_config(path) == ExperimentConfig()


def test_reference_defaults_are_pinned():
    cfg = ExperimentConfig()
    assert cfg.photon_count == 100_000
    assert cfg.source_rate == 20.0
    assert cfg.inter_arrival_law == "exponential"
    assert cfg.particle_frequency == 1.0
    assert cfg.particle_initial_phase is None
    assert cfg.bs1 == SplitterConfig(1.0, 0.0, 0.94, 0.06)
    assert cfg.bs2 == SplitterConfig(0.0, 0.0, 0.94, 0.06)
    assert cfg.master_seed == 42


def test_zero_photon_count_names_the_field():
    with pytest.raises(ConfigError, match="photon_count"):
        config_from_dict({"photon_count": 0})


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"bogus": 1})


def test_unknown_nested_key_is_rejected():
    with pytest.raises(ConfigError, match=r"unknown config key bs1\.'nope'$"):
        config_from_dict({"bs1": {"nope": 2}})


def test_missing_file_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nowhere.json")


def test_parse_failure_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_dict_round_trip():
    non_default = ExperimentConfig(
        photon_count=1234,
        source_rate=3.5,
        inter_arrival_law="uniform",
        particle_frequency=2.25,
        particle_initial_phase=1.0,
        bs1=SplitterConfig(0.5, 0.1, 0.9, 0.1),
        bs2=SplitterConfig(0.0, 0.2, 0.8, 0.2),
        base_path_length=2.0,
        delta=0.75,
        master_seed=987654321,
    )
    for cfg in (ExperimentConfig(), non_default):
        assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"source_rate": 0.0}, "source_rate"),
        ({"source_rate": math.inf}, "source_rate"),
        ({"inter_arrival_law": "weibull"}, "inter_arrival_law"),
        ({"particle_frequency": 0.0}, "particle_frequency"),
        ({"base_path_length": -1.0}, "base_path_length"),
        ({"delta": -0.5}, "delta"),
        ({"master_seed": -1}, "master_seed"),
        ({"master_seed": 2**64}, "master_seed"),
        ({"bs1": {"frequency": -1.0}}, "bs1.frequency"),
        ({"photon_count": 2.5}, "photon_count"),
        ({"bs2": {"update_alpha": math.nan}}, "bs2"),
        ({"source_rate": "20"}, "source_rate"),
        ({"bs1": {"frequency": None}}, "bs1.frequency"),
        ({"photon_count": True}, "photon_count"),
        ({"master_seed": True}, "master_seed"),
        ({"bs2": {"update_alpha": 1e308}}, "bs2"),
        ({"particle_initial_phase": math.inf}, "particle_initial_phase"),
        ({"bs2": {"initial_offset": math.nan}}, "bs2.initial_offset"),
        ({"photon_count": 2**63}, "photon_count"),
        ({"particle_frequency": 10.0, "delta": 1e308}, "particle_frequency"),
        ({"bs1": {"frequency": 1e308}}, "bs1.frequency"),
    ],
)
def test_validation_names_offending_field(patch, field):
    with pytest.raises(ConfigError, match=field.split(".")[0]) as from_dict:
        config_from_dict(patch)
    # every other way to build a config runs the same checks: a nested
    # patch goes through replace() of the default splitter first
    default = ExperimentConfig()
    kwargs = {
        key: replace(getattr(default, key), **value) if isinstance(value, dict) else value
        for key, value in patch.items()
    }
    for build in (ExperimentConfig, lambda **kw: replace(default, **kw)):
        with pytest.raises(ConfigError) as built:
            build(**kwargs)
        assert str(built.value) == str(from_dict.value)


@pytest.mark.parametrize("data, message", [
    ([1, 2], "config root must be an object, got list"),
    ({"bs1": 0.5}, "bs1 must be an object, got float"),
], ids=["root", "splitter"])
def test_config_parts_that_are_not_objects_are_refused(data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


def test_shipped_strong_interference_config_loads():
    cfg = load_config(REPO_ROOT / "configs" / "strong_interference.json")
    assert cfg.photon_count == 50_000
    assert cfg.bs1.update_alpha == 0.94
    assert cfg.bs2.frequency == 0.0
