import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mzsim.config import INTER_ARRIVAL_LAWS, ConfigError, ExperimentConfig
from mzsim.experiment import run_mzi
from mzsim.optics import generate_emissions
from mzsim.phases import TWO_PI
from reference import interact


def run_times(**overrides):
    """The emission times a run returns: the stream loop sums
    ``generate_emissions``' gaps into them."""
    times, _, _ = run_mzi(replace(ExperimentConfig(), **overrides))
    return times


def gaps(seed, **overrides):
    """``generate_emissions``' gaps for the default config with ``overrides``."""
    return generate_emissions(replace(ExperimentConfig(), **overrides), np.random.default_rng(seed))


def test_decide_cases():
    # the routing decision of the splitter rule: reflect iff wrap(p - s) < pi
    assert interact(0.4, 0.4, 1.0, 0.0)[0] is True
    assert interact(math.pi, 0.0, 1.0, 0.0)[0] is False  # strict boundary
    assert interact(1.5 * math.pi, 0.0, 1.0, 0.0)[0] is False
    assert interact(0.0, 0.5, 1.0, 0.0)[0] is False  # wrap(-0.5) is above pi


def test_decide_splits_the_circle_evenly():
    rng = np.random.default_rng(2024)
    diffs = rng.uniform(0.0, TWO_PI, 1_000_000)
    frac = float(np.mean(diffs < math.pi))
    assert abs(frac - 0.5) <= 0.002
    # spot-check that interact agrees with the measured rule
    for d in diffs[:2000]:
        assert interact(float(d), 0.0, 1.0, 0.0)[0] == (d < math.pi)


def test_interact_equal_phases_reflects_and_doubles():
    reflected, p_new, s_new = interact(1.0, 1.0, 1.0, 1.0)
    assert reflected
    assert p_new == pytest.approx(2.0, abs=1e-12)
    assert s_new == pytest.approx(2.0, abs=1e-12)


def test_interact_at_exact_pi_transmits_unchanged():
    p, s = 0.7 + math.pi, 0.7
    assert interact(p, s, 1.0, 1.0) == (False, p, s)


@pytest.mark.parametrize("p, s", [(4.0, 0.5), (0.1, 1.2), (6.0, 2.0)])
def test_transmission_is_side_effect_free(p, s):
    if (p - s) % TWO_PI < math.pi:
        pytest.skip("pair reflects, not a transmission case")
    assert interact(p, s, 0.94, 0.06) == (False, p, s)


def test_identity_update_reflects_without_phase_change():
    assert interact(0.9, 0.6, 1.0, 0.0) == (True, 0.9, 0.6)


def test_generate_emissions_deterministic():
    a = gaps(7, source_rate=2.0, photon_count=500)
    b = gaps(7, source_rate=2.0, photon_count=500)
    assert np.array_equal(a, b)


def test_generate_emissions_strictly_increasing():
    # as the run sums the gaps into times
    times = run_times(photon_count=5000, source_rate=3.0, master_seed=11)
    assert (np.diff(times) > 0.0).all() and times[0] > 0.0


def test_generate_emissions_mean_gap_matches_rate():
    # oracle: the direct mean of the generated gaps
    drawn = gaps(3, source_rate=2.0, photon_count=100_000)
    assert abs(drawn.mean() - 0.5) <= 0.05 * 0.5


def test_generate_emissions_fixed_law_is_exact():
    drawn = gaps(0, source_rate=2.0, photon_count=10, inter_arrival_law="fixed")
    assert (drawn == 0.5).all()


def test_generate_emissions_uniform_law_mean():
    drawn = gaps(5, source_rate=2.0, photon_count=100_000, inter_arrival_law="uniform")
    assert abs(drawn.mean() - 0.5) <= 0.05 * 0.5
    assert drawn.max() <= 1.0  # uniform law is bounded by 2/rate


@pytest.mark.parametrize("law", ["exponential", "uniform", "fixed"])
def test_generate_emissions_is_the_cumulative_sum_of_the_gaps(law):
    # the run's loop sums the gaps in place; the bits must be np.cumsum's
    rate, n = 3.0, 10_000
    rng = np.random.default_rng(19)
    draws = {
        "exponential": lambda: rng.exponential(1.0 / rate, n),
        "uniform": lambda: rng.uniform(0.0, 2.0 / rate, n),
        "fixed": lambda: np.full(n, 1.0 / rate),
    }
    times = run_times(photon_count=n, source_rate=rate, inter_arrival_law=law, master_seed=19)
    assert times.tobytes() == np.cumsum(draws[law]()).tobytes()


@pytest.mark.parametrize("law", INTER_ARRIVAL_LAWS)
@pytest.mark.parametrize("rate", [1e-308, 1e-307])  # a gap, or only the sum, overflows
def test_generate_emissions_overflow_is_inf_without_a_warning(law, rate):
    # the run refuses an infinite time with one error line; a numpy warning
    # printed before it would break that line
    cfg = replace(ExperimentConfig(), photon_count=100, source_rate=rate,
                  inter_arrival_law=law, master_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="last emission time inf overflows"):
            run_mzi(cfg)

