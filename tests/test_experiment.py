import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim.config import ConfigError, ExperimentConfig, SplitterConfig
from mzsim.experiment import (
    default_sweep_deltas,
    derive_child_seed,
    photon_buffers,
    point_config,
    pool_size,
    run_mzi,
    run_single_bs,
    run_sweep,
    _contiguous_slices,
    _initial_offsets,
    _load_kernel,
    _prepare_stream,
    _run_stream_py,
    _stream_params,
)
from mzsim.phases import TWO_PI, WRAP_SNAP, wrap_phase
from test_kernel import assert_same_run, needs_cc, stream_outcomes


def small_config(**overrides):
    base = dict(photon_count=2000, master_seed=77)
    base.update(overrides)
    return replace(ExperimentConfig(), **base)


# ---------------------------------------------------------------------------
# single splitter


def test_single_bs_is_balanced_for_uniform_phases():
    (d1, d2), _ = run_single_bs(small_config(photon_count=20_000))
    assert d1 + d2 == 20_000
    # 3-sigma binomial band at n=2e4
    assert abs(d1 / (d1 + d2) - 0.5) <= 0.011


def test_single_photon_with_locked_phase_reflects():
    # particle and first splitter share frequency and offset, so the phase
    # difference at arrival is exactly zero
    cfg = small_config(photon_count=1, particle_initial_phase=0.0)
    counts, _ = run_single_bs(cfg)
    assert counts == (1, 0)


def test_single_bs_grid_enumeration_oracle():
    # independent oracle: enumerate 1e4 initial phases at a frozen arrival
    # time and apply the reflect-below-pi rule directly
    cfg = ExperimentConfig()
    t1 = 3.7
    phis = np.arange(10_000) * (TWO_PI / 10_000)
    diffs = (
        cfg.particle_frequency * t1
        + phis
        - (cfg.bs1.frequency * t1 + cfg.bs1.initial_offset)
    ) % TWO_PI
    grid_fraction = float(np.mean(diffs < math.pi))
    assert abs(grid_fraction - 0.5) <= 1e-4


def test_single_bs_deterministic():
    a = run_single_bs(small_config())
    b = run_single_bs(small_config())
    assert_same_run(a, b)
    assert a[1][2] is None


# ---------------------------------------------------------------------------
# full interferometer


def test_mzi_counts_are_conserved():
    (d1, d2), _ = run_mzi(small_config(delta=1.1))
    assert d1 + d2 == 2000


def test_mzi_deterministic_including_trace():
    cfg = small_config(delta=0.4)
    a = run_mzi(cfg)
    b = run_mzi(cfg)
    assert_same_run(a, b)
    _, trace = a
    assert [x.shape for x in trace] == [(2000,)] * 3


def test_mzi_trace_periodic_in_delta():
    cfg = small_config(photon_count=20_000, delta=0.8)
    period = TWO_PI / cfg.particle_frequency
    assert_same_run(run_mzi(cfg), run_mzi(replace(cfg, delta=0.8 + period)))


def test_random_initial_offsets_are_uniform_draws():
    # drawn as rng.random scaled in place; the bits and the generator's end
    # state must be those of rng.uniform from the same state
    cfg = small_config()
    rng, reference = np.random.default_rng(31), np.random.default_rng(31)
    got = _initial_offsets(cfg, rng, np.empty(cfg.photon_count))
    assert got.tobytes() == reference.uniform(0.0, TWO_PI, cfg.photon_count).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_mzi_rejects_invalid_config():
    with pytest.raises(ConfigError):
        run_mzi(replace(ExperimentConfig(), photon_count=0))


finite = st.floats(-50.0, 50.0)
splitters = st.builds(
    SplitterConfig,
    frequency=st.floats(0.0, 5.0),
    initial_offset=finite,
    update_alpha=st.floats(-2.0, 2.0),
    update_beta=st.floats(-2.0, 2.0),
)
configs = st.builds(
    ExperimentConfig,
    photon_count=st.integers(1, 300),
    source_rate=st.floats(0.5, 50.0),
    inter_arrival_law=st.sampled_from(["exponential", "uniform", "fixed"]),
    particle_frequency=st.floats(0.01, 5.0),
    particle_initial_phase=st.none() | finite,
    bs1=splitters,
    bs2=splitters,
    base_path_length=st.floats(0.0, 5.0),
    delta=st.floats(0.0, 50.0),
    master_seed=st.integers(0, 2**64 - 1),
)


def assert_kernel_fills_the_reference_arrays(config):
    kernel = stream_outcomes(_load_kernel(), config)
    reference = stream_outcomes(_run_stream_py, config)
    for got, expected in zip(kernel, reference):
        np.testing.assert_array_equal(got, expected)


@needs_cc
@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_stream_loop_matches_interact_reference(config):
    """The compiled kernel (what run_mzi runs) fills the same outcome
    arrays as the interact-based reference loop, photon for photon."""
    assert_kernel_fills_the_reference_arrays(config)


@needs_cc
@settings(max_examples=40, deadline=None)
@given(config=configs, bs2=splitters, delta=st.floats(0.0, 50.0))
def test_bs1_outcomes_do_not_depend_on_bs2_or_delta(config, bs2, delta):
    """BS1's rule reads neither BS2's state nor delta, in either loop: what
    makes a single-bs run the BS1 part of a two-splitter run."""
    other = replace(config, bs2=bs2, delta=delta)
    for loop in (_load_kernel(), _run_stream_py):
        bs1 = stream_outcomes(loop, config)[0]
        np.testing.assert_array_equal(stream_outcomes(loop, other)[0], bs1)


fast_splitters = st.builds(
    SplitterConfig,
    frequency=st.floats(5e12, 1e13),
    initial_offset=finite,
    update_alpha=st.floats(-2.0, 2.0),
    update_beta=st.floats(-2.0, 2.0),
)
streams_past_2_to_50 = st.builds(
    ExperimentConfig,
    photon_count=st.integers(400, 600),
    source_rate=st.floats(0.5, 1.0),
    inter_arrival_law=st.just("fixed"),
    particle_frequency=st.floats(5e12, 1e13),
    particle_initial_phase=st.none() | finite,
    bs1=fast_splitters,
    bs2=fast_splitters,
    base_path_length=st.floats(0.0, 5.0),
    delta=st.floats(0.0, 50.0),
    master_seed=st.integers(0, 2**64 - 1),
)


@needs_cc
@settings(max_examples=20, deadline=None)
@given(config=streams_past_2_to_50)
def test_stream_loop_matches_reference_where_phases_pass_2_to_50(config):
    """The kernel reduces phases with its own remainder below 2**50 and with
    fmod above; a stream whose nu*t climbs past 2**50 crosses both."""
    emissions = _prepare_stream(config, photon_buffers(config.photon_count))[0]
    t_last = emissions[-1] + config.base_path_length
    assert config.particle_frequency * emissions[0] < 2**50 < config.particle_frequency * t_last
    assert_kernel_fills_the_reference_arrays(config)


# TWO_PI - WRAP_SNAP itself is excluded: TWO_PI minus it is not below
# WRAP_SNAP, so it is the first value that does not snap.
below_two_pi = st.floats(TWO_PI - WRAP_SNAP, TWO_PI, exclude_min=True, exclude_max=True)


@needs_cc
@pytest.mark.parametrize("configured", [False, True], ids=["mzi", "particle-initial-phase"])
@settings(max_examples=30, deadline=None)
@given(config=configs, data=st.data())
def test_stream_loops_snap_initial_phases_just_below_two_pi(configured, config, data):
    """Each loop wraps the initial phases it reads, so raw phases in
    (TWO_PI - WRAP_SNAP, TWO_PI) give the outcomes of the same phases
    snapped to 0.0 beforehand, as wrap_phase snaps them."""
    if configured:
        config = replace(config, particle_initial_phase=data.draw(below_two_pi))
        raw = np.full(config.photon_count, config.particle_initial_phase)
    else:
        raw = _prepare_stream(config, photon_buffers(config.photon_count))[1]
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, raw.size - 1), below_two_pi), max_size=10))
        for i, phase in [(0, np.nextafter(TWO_PI, 0.0)), *picks]:
            raw[i] = phase
    snapped = np.array([wrap_phase(x) for x in raw.tolist()])
    assert (snapped == 0.0).any() or configured
    kernel = _load_kernel()
    expected = stream_outcomes(kernel, config, snapped)
    for loop in (kernel, _run_stream_py):
        for offsets in (raw, snapped):
            for got, want in zip(stream_outcomes(loop, config, offsets), expected):
                np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(first=configs, second=configs)
def test_runs_through_one_buffer_set_equal_fresh_runs(first, second):
    """Back to back through one buffer set, each run gives the counts and
    arrays of a run with fresh arrays: nothing of the one before leaks."""
    second = replace(second, photon_count=first.photon_count)
    buffers = photon_buffers(first.photon_count)
    for config in (first, second):
        fresh = run_mzi(config)
        reused = run_mzi(config, buffers)
        assert_same_run(reused, fresh)
        emissions, _, bs1, bs2 = buffers
        assert all(got is buf for got, buf in zip(reused[1], (emissions, bs1, bs2), strict=True))


@pytest.mark.parametrize("buffer, bad", [
    (0, np.empty(99)), (1, np.empty(100, np.float32)), (2, np.empty(101, np.int8)),
    (3, np.empty(100)), (3, np.empty(200, np.int8)[::2]),
], ids=["emissions-short", "offsets-float32", "bs1-long", "bs2-float64", "bs2-strided"])
def test_run_refuses_buffers_that_do_not_fit(buffer, bad):
    buffers = list(photon_buffers(100))
    buffers[buffer] = bad
    with pytest.raises(ValueError, match="must be a C-contiguous"):
        run_mzi(small_config(photon_count=100), tuple(buffers))


def test_reversed_stream_changes_splitter_memory():
    # same photon set, opposite processing order: the states the splitters
    # accumulate differ, so later outcomes differ
    cfg = small_config(photon_count=3000, delta=1.7)
    forward = _prepare_stream(cfg, photon_buffers(cfg.photon_count))
    backward = tuple(a[::-1].copy() for a in forward)
    loop = _load_kernel() or _run_stream_py
    for emissions, offsets, bs1, bs2 in (forward, backward):
        loop(emissions, offsets, cfg.photon_count, *_stream_params(cfg), bs1, bs2)
    assert not all(np.array_equal(f, b[::-1]) for f, b in zip(forward[2:], backward[2:]))


# ---------------------------------------------------------------------------
# child seeds and sweeps


def test_child_seed_deterministic():
    assert derive_child_seed(42, 0) == derive_child_seed(42, 0)
    assert derive_child_seed(42, 0) == 13679457532755275413


def test_child_seeds_distinct_for_small_indices():
    seeds = [derive_child_seed(42, i) for i in range(51)]
    assert len(set(seeds)) == 51


def test_child_seeds_have_no_collisions_up_to_1e4():
    seeds = {derive_child_seed(42, i) for i in range(10_001)}
    assert len(seeds) == 10_001


def test_child_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_child_seed(42, -1)


def test_sweep_single_point_equals_direct_run():
    cfg = small_config()
    direct, _ = run_mzi(point_config(cfg, 0.0))
    assert run_sweep(cfg, [0.0]) == [direct]


def test_sweep_is_permutation_invariant():
    cfg = small_config()
    deltas = [0.0, 0.7, 1.9, 3.1, 4.5, 6.0]
    forward = run_sweep(cfg, deltas)
    backward = run_sweep(cfg, deltas[::-1])
    assert backward[::-1] == forward


def test_sweep_preserves_input_order():
    cfg = small_config(photon_count=500)
    deltas = [2.0, 0.5, 1.0]
    assert run_sweep(cfg, deltas) == [run_sweep(cfg, [d])[0] for d in deltas]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_equals_one_run_per_point_on_uneven_slices(jobs):
    # 7 points: a pool of 2 takes slices of 4 and 3, each through one buffer set
    cfg = small_config(photon_count=700)
    deltas = [0.0, 0.4, 1.1, 2.5, 3.3, 4.0, 5.9]
    expected = [run_mzi(point_config(cfg, d))[0] for d in deltas]
    assert run_sweep(cfg, deltas, jobs=jobs) == expected


@pytest.mark.parametrize("n, parts, lengths", [
    (7, 2, [4, 3]), (7, 3, [3, 2, 2]), (50, 2, [25, 25]), (3, 3, [1, 1, 1]), (5, 1, [5]),
])
def test_contiguous_slices_keep_order_and_differ_by_at_most_one(n, parts, lengths):
    items = list(range(n))
    slices = _contiguous_slices(items, parts)
    assert [len(s) for s in slices] == lengths
    assert [x for s in slices for x in s] == items


def test_sweep_parallel_matches_serial():
    cfg = small_config()
    deltas = [0.0, 1.0, 2.0, 3.0]
    assert run_sweep(cfg, deltas, jobs=2) == run_sweep(cfg, deltas, jobs=1)


def test_negative_zero_delta_is_the_same_point():
    cfg = small_config()
    a, b = run_sweep(cfg, [0.0, -0.0])
    assert a == b
    assert math.copysign(1.0, point_config(cfg, -0.0).delta) == 1.0  # run as 0.0, not -0.0


def test_pool_size_is_bounded_by_points_and_cpus():
    assert pool_size(64, 50, 2) == 2
    assert pool_size(8, 3, 16) == 3
    assert pool_size(2, 50, 16) == 2
    assert pool_size(0, 5, 4) == 1
    assert pool_size(-3, 5, 4) == 1
    assert pool_size(4, 5, None) == 1  # os.cpu_count() may be unknown


def test_sweep_rejects_empty_deltas():
    with pytest.raises(ValueError):
        run_sweep(small_config(), [])


def test_sweep_fraction_is_exact_ratio():
    # Python ints, so d1 / (d1 + d2) is the correctly rounded ratio
    ((d1, d2),) = run_sweep(small_config(photon_count=640), [0.3])
    assert type(d1) is int and type(d2) is int and d1 + d2 == 640
    assert d1 / (d1 + d2) == float(Fraction(d1, d1 + d2))


def test_default_sweep_deltas_cover_two_periods():
    cfg = ExperimentConfig()
    deltas = default_sweep_deltas(cfg)
    assert len(deltas) == 50
    assert deltas[0] == 0.0
    assert deltas[-1] == pytest.approx(2 * TWO_PI / cfg.particle_frequency)
    assert default_sweep_deltas(cfg, steps=1) == [0.0]


def test_default_sweep_deltas_bad_args():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError):
        default_sweep_deltas(cfg, steps=0)
    with pytest.raises(ValueError):
        default_sweep_deltas(cfg, delta_max=-1.0)
