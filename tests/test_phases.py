import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzsim.phases import TWO_PI, wrap_phase


def circular_close(a, b, tol=1e-9):
    d = abs(a - b)
    return min(d, TWO_PI - d) <= tol


# wrap_phase on oscillator phases, as these two form them. The stream loop
# forms neither: it carries each phase by the emission gap.


def phase_at(nu, offset, t):
    """Phase of an oscillator ``nu*t + offset`` at time ``t``."""
    return wrap_phase(nu * t + offset)


def rebase(nu, t, target):
    """Offset that gives the phase ``target`` at time ``t``."""
    return wrap_phase(target - nu * t)


def test_wrap_identity_cases():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(-math.pi / 2) == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_wrap_boundary_snaps_to_zero():
    assert wrap_phase(TWO_PI - 1e-13) == 0.0
    assert wrap_phase(-1e-300) == 0.0  # float modulo can land exactly on 2*pi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrap_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        wrap_phase(bad)


@given(
    theta=st.floats(-1e3, 1e3),
    k=st.integers(min_value=-(10**6), max_value=10**6),
)
def test_wrap_is_periodic_in_full_turns(theta, k):
    value = wrap_phase(theta + TWO_PI * k)
    assert 0.0 <= value < TWO_PI
    assert circular_close(value, wrap_phase(theta), tol=1e-9)


def test_phase_at_cases():
    assert phase_at(0.0, 1.2, 5.0) == pytest.approx(1.2, abs=1e-15)
    assert phase_at(1.0, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-15)
    # 2*(pi/2) + pi is exactly a full turn
    assert phase_at(2.0, math.pi, math.pi / 2) == 0.0


def test_phase_at_rejects_non_finite_time():
    with pytest.raises(ValueError):
        phase_at(1.0, 0.0, math.inf)


@given(nu=st.floats(0.1, 10.0), t=st.floats(0.0, 100.0), phi=st.floats(0.0, TWO_PI, exclude_max=True))
def test_phase_at_is_periodic_in_time(nu, t, phi):
    assert circular_close(phase_at(nu, phi, t), phase_at(nu, phi, t + TWO_PI / nu), tol=1e-9)


def test_rebase_zero_frequency_sets_offset_to_target():
    assert rebase(0.0, 3.0, 1.0) == 1.0


def test_rebase_example_forced_by_definition():
    offset = rebase(1.0, math.pi, 0.0)
    assert offset == pytest.approx(math.pi, abs=1e-12)
    assert phase_at(1.0, offset, math.pi) == pytest.approx(0.0, abs=1e-12)


def test_rebase_round_trip_is_identity():
    nu, offset, t = 2.3, 0.7, 4.2
    assert circular_close(rebase(nu, t, phase_at(nu, offset, t)), offset, tol=1e-12)


def test_rebase_postcondition_over_random_triples():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        nu = float(rng.uniform(0.0, 10.0))
        t = float(rng.uniform(0.0, 100.0))
        target = float(rng.uniform(0.0, TWO_PI))
        achieved = phase_at(nu, rebase(nu, t, target), t)
        assert circular_close(achieved, wrap_phase(target), tol=1e-9)
