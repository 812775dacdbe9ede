import concurrent.futures
import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim.config import ConfigError, ExperimentConfig, SplitterConfig, config_from_dict
from mzsim.experiment import (
    default_sweep_deltas,
    derive_child_seed,
    point_config,
    pool_size,
    run_mzi,
    run_sweep,
    _counts,
    _load_kernel,
    _stream_params,
)
from mzsim.optics import generate_emissions
from mzsim.phases import TWO_PI, WRAP_SNAP, wrap_phase
from reference import listed_bitgen, reference_stream, stream_outcomes
from test_kernel import EVERY_ARM, assert_same_run


def small_config(**overrides):
    base = dict(photon_count=2000, master_seed=77)
    base.update(overrides)
    return replace(ExperimentConfig(), **base)


# ---------------------------------------------------------------------------
# single splitter


def single_bs_counts(config):
    """A single-bs run's ``(d1, d2)``: the reflections and transmissions at
    BS1 of a :func:`run_mzi` run, as ``mzsim single-bs`` counts them."""
    bs1 = run_mzi(config)[1]
    d1 = int(np.count_nonzero(bs1))
    return d1, bs1.size - d1


def test_single_bs_is_balanced_for_uniform_phases():
    d1, d2 = single_bs_counts(small_config(photon_count=20_000))
    assert d1 + d2 == 20_000
    # 3-sigma binomial band at n=2e4
    assert abs(d1 / (d1 + d2) - 0.5) <= 0.011


def test_single_photon_with_locked_phase_reflects():
    # particle and first splitter share frequency and offset, so the phase
    # difference at arrival is exactly zero
    cfg = small_config(photon_count=1, particle_initial_phase=0.0)
    assert single_bs_counts(cfg) == (1, 0)


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
    # the emission times and BS1 outcomes a single-bs run reads
    a = run_mzi(small_config())[:2]
    b = run_mzi(small_config())[:2]
    assert_same_run(a, b)


# ---------------------------------------------------------------------------
# full interferometer


def test_mzi_counts_are_conserved():
    d1, d2 = _counts(small_config(delta=1.1))
    assert d1 + d2 == 2000


def test_mzi_deterministic_including_trace():
    cfg = small_config(delta=0.4)
    a = run_mzi(cfg)
    b = run_mzi(cfg)
    assert_same_run(a, b)
    assert [x.shape for x in a] == [(2000,)] * 3


def test_mzi_trace_periodic_in_delta():
    cfg = small_config(photon_count=20_000, delta=0.8)
    period = TWO_PI / cfg.particle_frequency
    assert_same_run(run_mzi(cfg), run_mzi(replace(cfg, delta=0.8 + period)))


def test_random_initial_offsets_are_uniform_draws():
    # drawn in the loop as next_double * TWO_PI after the gaps; the bits
    # must be those of rng.uniform after rng.exponential from the master
    # seed, given to the oracle as turns of the circle
    cfg = small_config()
    n = cfg.photon_count
    reference, again = (np.random.default_rng(cfg.master_seed) for _ in range(2))
    for rng in (reference, again):
        rng.exponential(1.0 / cfg.source_rate, n)
    turns = reference.random(n)
    assert (turns * TWO_PI).tobytes() == again.uniform(0.0, TWO_PI, n).tobytes()
    _, bs1, bs2 = run_mzi(cfg)
    for got, want in zip((bs1, bs2), stream_outcomes(reference_stream, cfg, turns), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.fixture(params=["kernel"])
def loop():
    """The stream loop run_mzi runs, the compiled kernel, loaded before the
    test starts; the parameter names it in the test IDs."""
    _load_kernel()


@pytest.mark.parametrize("law", ["exponential", "uniform", "fixed"])
@pytest.mark.parametrize("phase", [None, 7.0, -2.0])
def test_run_leaves_its_draw_in_the_first_two_buffers(loop, law, phase, monkeypatch):
    """A run draws all the gaps from a generator seeded with the master
    seed, then one phase per photon (none for a configured phase). The
    emission times it returns are the cumulative sum of those gaps, and the
    run's generator is where n gaps and then n phases leave a fresh one.
    The counts are the edges of the kernel's blocks of 512 phases."""
    default_rng, generators = np.random.default_rng, []

    def recorded_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    for n in (1, 511, 512, 513, 2000):
        cfg = small_config(photon_count=n, inter_arrival_law=law, particle_initial_phase=phase,
                           delta=1.3)
        emissions, _, _ = run_mzi(cfg)
        reference = default_rng(cfg.master_seed)
        gaps = generate_emissions(cfg, reference)
        assert emissions.tobytes() == np.cumsum(gaps).tobytes()
        if phase is None:
            reference.random(n)
        assert generators[-1].bit_generator.state == reference.bit_generator.state


def test_run_refuses_a_path_phase_that_overflows(loop):
    # nu*base_path_length is inf, so the config is refused before any run
    with pytest.raises(ConfigError, match="^particle_frequency 10.0 times the longest path "
                                          "inf overflows$"):
        small_config(photon_count=100, base_path_length=1e308, particle_frequency=10.0)


@pytest.mark.parametrize("law", ["exponential", "uniform", "fixed"])
def test_run_goes_ahead_where_only_last_time_plus_longest_path_overflows(law):
    # nu*last and nu*(2*base + delta) are each finite, but their sum is not;
    # the loop forms no such sum, so the run goes ahead, and the oracle,
    # whose wrap_phase raises on any phase that is not finite, agrees
    cfg = small_config(photon_count=100, source_rate=100 / 1.2e308, inter_arrival_law=law,
                       delta=1.5e308)
    emissions, _, bs2 = run_mzi(cfg)
    last, longest = float(emissions[-1]), 2.0 * cfg.base_path_length + cfg.delta
    assert math.isfinite(last) and math.isinf(last + longest)
    assert 0 < np.count_nonzero(bs2) < bs2.size  # NaN phases would transmit every photon
    assert_kernel_fills_the_reference_arrays(cfg)


def test_run_memory_is_10_bytes_per_photon():
    # the emission times and the two outcome arrays, and a fixed slack: the
    # peak read 2,006,288 bytes (10.03 per photon). A run that also held its
    # phases and the times beside the gaps read 3,606,299 (18.03 per photon).
    cfg = replace(ExperimentConfig(), photon_count=200_000, delta=1.3)
    run_mzi(cfg)  # the kernel is loaded once per process
    tracemalloc.start()
    try:
        run_mzi(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * cfg.photon_count + 64 * 1024


@pytest.mark.parametrize("phase", [7.0, TWO_PI - 1e-13, 6 * math.pi + 0.5, 1e6])
def test_configured_phase_runs_as_its_wrapped_value(loop, phase):
    # the loop wraps the phase it reads, so a raw one needs no wrap before
    cfg = small_config(delta=1.3, particle_initial_phase=phase)
    wrapped = replace(cfg, particle_initial_phase=wrap_phase(phase))
    assert_same_run(run_mzi(cfg), run_mzi(wrapped))


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
    # both calls of the kernel, run_mzi's and stream_outcomes', against the oracle
    reference = stream_outcomes(reference_stream, config)
    _, *shipped = run_mzi(config)
    for kernel in (stream_outcomes(_load_kernel(), config), shipped):
        for got, expected in zip(kernel, reference, strict=True):
            np.testing.assert_array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_stream_loop_matches_interact_reference(config):
    """The compiled kernel (what run_mzi runs) fills the same outcome
    arrays as the oracle, reference_stream, photon for photon."""
    assert_kernel_fills_the_reference_arrays(config)


@settings(max_examples=40, deadline=None)
@given(config=configs, bs2=splitters, delta=st.floats(0.0, 50.0))
def test_bs1_outcomes_do_not_depend_on_bs2_or_delta(config, bs2, delta):
    """BS1's rule reads neither BS2's state nor delta, in the kernel or the
    oracle: what makes a single-bs run the BS1 part of a two-splitter run."""
    other = replace(config, bs2=bs2, delta=delta)
    for loop in (_load_kernel(), reference_stream):
        bs1 = stream_outcomes(loop, config)[0]
        np.testing.assert_array_equal(stream_outcomes(loop, other)[0], bs1)


fast_splitters = st.builds(
    SplitterConfig,
    frequency=st.floats(5e12, 1e13),
    initial_offset=finite,
    update_alpha=st.floats(-2.0, 2.0),
    update_beta=st.floats(-2.0, 2.0),
)
fast_streams = st.builds(
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


@settings(max_examples=20, deadline=None)
@given(config=fast_streams)
def test_stream_loop_matches_reference_where_each_phase_step_passes_4_pi(config):
    """The kernel's wrap takes no quotient for -TWO_PI < x < 2*TWO_PI and
    calls fmod otherwise; at these frequencies every nu*gap step by which a
    phase is carried is past 4*pi, so every step takes the fmod path."""
    emissions, _, _ = run_mzi(config)
    gaps = np.diff(emissions, prepend=0.0)
    slowest = min(config.particle_frequency, config.bs1.frequency, config.bs2.frequency)
    assert slowest * gaps.min() > 2 * TWO_PI
    assert_kernel_fills_the_reference_arrays(config)


@pytest.mark.parametrize("phase", [None, 7.0, -20.0])
def test_stream_loop_matches_reference_on_every_arm_of_wrap(phase):
    """Under EVERY_ARM each site of the kernel's phase reduction takes every
    arm it can take, so each arm of both flavours, wrap and wrap_m, meets
    the oracle. Of 2000 photons with drawn phases (counted in a build that
    tallies the arms), the source's clock step took fmod 1263 times,
    x - 2*pi 480 and x 257; BS1's update a1*p + b1*s1 took x + 2*pi 117
    times and x - 2*pi 201; 1076 photons met BS2 by path 2, lag2 = 0.91
    later. The initial phase takes x when drawn, x - 2*pi at 7.0 and fmod
    at -20.0."""
    config = config_from_dict(
        {**EVERY_ARM, "photon_count": 2000, "particle_initial_phase": phase, "delta": 1.3})
    emissions, _, _ = run_mzi(config)
    steps = config.particle_frequency * np.diff(emissions, prepend=0.0)
    assert steps.max() > 2 * TWO_PI and steps.min() < TWO_PI
    assert _stream_params(config)[-1] != 0.0  # lag2
    assert_kernel_fills_the_reference_arrays(config)


def test_stream_loop_transmits_at_an_exact_pi_difference():
    """The rule transmits where wrap(p - s) is exactly pi. Here the source's
    clock steps by one whole turn per gap, BS1's and BS2's stand at 0, both
    paths are 0 long, and the photon's phase is pi: so p - s1 and p2 - s2
    are exactly pi for every photon, which transmits at both splitters. A
    kernel whose BS1 or BS2 took pi as below pi reflects all 1000 there."""
    config = config_from_dict({
        "photon_count": 1000, "particle_frequency": TWO_PI, "source_rate": 1.0,
        "inter_arrival_law": "fixed", "particle_initial_phase": math.pi,
        "base_path_length": 0.0, "bs1": {"frequency": 0.0}, "delta": 0.0,
    })
    nu_p, path1, path2, nu1, _, _, s1, nu2, _, _, c2, lag2 = _stream_params(config)
    assert wrap_phase(nu_p * 1.0) == path1 == path2 == s1 == c2 == lag2 == nu1 == nu2 == 0.0
    _, bs1, bs2 = run_mzi(config)
    assert bs1.size == 1000 and not bs1.any() and not bs2.any()
    assert_kernel_fills_the_reference_arrays(config)


@pytest.mark.parametrize("law", ["exponential", "uniform", "fixed"])
def test_phase_fixed_at_bs1_offset_reflects_every_photon_at_any_time(loop, law):
    """With the photon's phase fixed at BS1's offset (0) and nu1 = nu_p, the
    photon meets BS1 in phase, and its symmetric update keeps the two in
    phase, so BS1 reflects every photon. At rate 0.05 the arrival times
    reach ~6e4, past the 2**13 from which the rounding of a phase formed as
    wrap(nu*t + offset) outgrows wrap's 1e-12 snap; the kernel carries each
    phase by the gaps, so that rounding never reaches a decision."""
    cfg = small_config(photon_count=3000, source_rate=0.05, inter_arrival_law=law,
                       particle_initial_phase=0.0, delta=2.0, master_seed=1)
    emissions, bs1, _ = run_mzi(cfg)
    assert emissions[-1] > 2 * 2**13
    assert np.count_nonzero(bs1 == 0) == 0


# TWO_PI - WRAP_SNAP itself is excluded: TWO_PI minus it is not below
# WRAP_SNAP, so it is the first value that does not snap.
below_two_pi = st.floats(TWO_PI - WRAP_SNAP, TWO_PI, exclude_min=True, exclude_max=True)
# Draws u whose phase u * TWO_PI lies in that interval: 1 - k * 2**-53 is
# the k-th double below 1, and k * 2**-53 * TWO_PI < WRAP_SNAP up to k = 1433.
turns_below_one = st.integers(1, 1400).map(lambda k: 1.0 - k * 2.0**-53)


@pytest.mark.parametrize("configured", [False, True], ids=["mzi", "particle-initial-phase"])
@settings(max_examples=30, deadline=None)
@given(config=configs, data=st.data())
def test_stream_loops_snap_initial_phases_just_below_two_pi(configured, config, data):
    """The kernel and the oracle wrap the initial phases they draw or are
    given, so phases in (TWO_PI - WRAP_SNAP, TWO_PI) give the outcomes of
    the same phases snapped to 0.0 beforehand, as wrap_phase snaps them."""
    if configured:
        raw = (replace(config, particle_initial_phase=data.draw(below_two_pi)), None)
        snapped = (replace(config, particle_initial_phase=0.0), None)
    else:
        rng = np.random.default_rng(config.master_seed)
        generate_emissions(config, rng)
        turns = rng.random(config.photon_count)  # the drawn phases, in turns
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, turns.size - 1), turns_below_one), max_size=10))
        for i, turn in [(0, 1.0 - 2.0**-53), *picks]:
            assert TWO_PI - WRAP_SNAP < turn * TWO_PI < TWO_PI
            turns[i] = turn
        raw = (config, turns)
        snapped = (config, np.array([0.0 if wrap_phase(u * TWO_PI) == 0.0 else u for u in turns.tolist()]))
        assert (snapped[1] == 0.0).any()
    kernel = _load_kernel()
    expected = stream_outcomes(kernel, *snapped)
    for loop in (kernel, reference_stream):
        for stream in (raw, snapped):
            for got, want in zip(stream_outcomes(loop, *stream), expected):
                np.testing.assert_array_equal(got, want)


def test_reversed_stream_changes_splitter_memory():
    # same gaps and initial phases, opposite processing order: the states
    # the splitters accumulate differ, so later outcomes differ
    cfg = small_config(photon_count=3000, delta=1.7)
    n = cfg.photon_count
    rng = np.random.default_rng(cfg.master_seed)
    gaps = generate_emissions(cfg, rng)
    turns = rng.random(n)
    loop = _load_kernel()
    forward, backward = ([np.empty(n, np.int8), np.empty(n, np.int8)] for _ in range(2))
    for order, (bs1, bs2) in ((slice(None), forward), (slice(None, None, -1), backward)):
        loop(gaps[order].copy(), n, listed_bitgen(turns[order]), None, 0.0, *_stream_params(cfg),
             bs1, bs2)
    assert not all(np.array_equal(f, b[::-1]) for f, b in zip(forward, backward))


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
    assert run_sweep(cfg, [0.0]) == [_counts(point_config(cfg, 0.0))]


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
    # 7 points over a pool of 2 workers, which cannot share them evenly
    cfg = small_config(photon_count=700)
    deltas = [0.0, 0.4, 1.1, 2.5, 3.3, 4.0, 5.9]
    expected = [_counts(point_config(cfg, d)) for d in deltas]
    assert run_sweep(cfg, deltas, jobs=jobs) == expected


def test_sweep_parallel_matches_serial():
    cfg = small_config()
    deltas = [0.0, 1.0, 2.0, 3.0]
    assert run_sweep(cfg, deltas, jobs=2) == run_sweep(cfg, deltas, jobs=1)


def test_sweep_on_one_usable_cpu_starts_no_pool(monkeypatch):
    # jobs=2 on a machine with more CPUs than this process may run on: the
    # pool is sized by the CPUs in its affinity mask, here one, so no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    cfg = small_config(photon_count=500)
    deltas = [0.0, 1.0, 2.0, 3.0]
    serial = run_sweep(cfg, deltas)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert run_sweep(cfg, deltas, jobs=2) == serial


def test_parallel_sweep_forks_nothing(monkeypatch):
    # The workers are threads of this process: nothing is forked, so no
    # config or count is pickled and no interpreter is started.
    def no_fork():
        raise AssertionError("a process was forked")

    cfg = small_config(photon_count=500)
    deltas = [0.0, 0.9, 1.8, 2.7, 3.6]
    serial = run_sweep(cfg, deltas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_sweep(cfg, deltas, jobs=2) == serial


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


def test_sweep_rejects_a_bad_delta_before_any_run(monkeypatch):
    # each point's config is built, and so checked, before the first run
    runs = []

    def counting_run_mzi(config, *args):
        runs.append(config.delta)
        return run_mzi(config, *args)

    monkeypatch.setattr("mzsim.experiment.run_mzi", counting_run_mzi)
    with pytest.raises(ConfigError, match="delta"):
        run_sweep(small_config(), [0.0, -1.0])
    # a finite delta whose longest path overflows a phase
    with pytest.raises(ConfigError, match=r"^particle_frequency 10.0 times the longest path "
                                          r"1e\+308 overflows$"):
        run_sweep(small_config(particle_frequency=10.0), [0.0, 1e308])
    assert runs == []


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
