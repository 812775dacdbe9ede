"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL
line with the measured numbers. Run with ``pytest tests/test_acceptance.py -v -s``.

The reference setup is the package default config (seed 42, 1e5 photons).
All sweeps below run serially; on a multi-core machine ``run_sweep(...,
jobs=k)`` or the CLI ``--parallel k`` cuts the wall time further.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mzsim.analysis import binomial_ci, fit_sine, qm_reference, visibility
from mzsim.cli import main as cli_main
from mzsim.config import ExperimentConfig, load_config
from mzsim.experiment import (
    _load_kernel, default_sweep_deltas, point_config, run_mzi, run_sweep,
)
from mzsim.phases import TWO_PI
from reference import stream_outcomes
from test_experiment import single_bs_counts

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ExperimentConfig()


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_sweep():
    deltas = default_sweep_deltas(REFERENCE, steps=50)
    start = time.perf_counter()
    points = run_sweep(REFERENCE, deltas)
    elapsed = time.perf_counter() - start
    return deltas, [d1 / (d1 + d2) for d1, d2 in points], elapsed


def test_criterion_1_single_splitter_is_50_50():
    start = time.perf_counter()
    d1, d2 = single_bs_counts(REFERENCE)
    elapsed = time.perf_counter() - start
    frac = d1 / (d1 + d2)
    _report(
        "1 single-splitter 50/50",
        0.495 <= frac <= 0.505 and elapsed < 1.0,
        f"d1_fraction={frac:.5f} (target 0.5 +- 0.005), runtime={elapsed:.2f}s (< 1 s)",
    )


def test_criterion_2_sweep_is_sine_like(reference_sweep):
    deltas, fractions, elapsed = reference_sweep
    fit = fit_sine(deltas, fractions)
    period = TWO_PI / fit.angular_frequency
    ideal = TWO_PI / REFERENCE.particle_frequency
    period_err = abs(period - ideal) / ideal
    _report(
        "2 sine-like interference",
        fit.r_squared >= 0.9 and period_err <= 0.05 and elapsed < 60.0,
        f"R^2={fit.r_squared:.4f} (>= 0.9), period={period:.4f} vs {ideal:.4f} "
        f"(err {period_err:.2%} <= 5%), sweep runtime={elapsed:.1f}s (< 60 s)",
    )


def test_criterion_3_deviation_magnitude(reference_sweep):
    _, fractions, _ = reference_sweep
    ref_vis = visibility(fractions)
    extremum_dev = max(abs(f - 0.5) for f in fractions)

    tuned_cfg = load_config(REPO_ROOT / "configs" / "strong_interference.json")
    tuned = run_sweep(tuned_cfg, default_sweep_deltas(tuned_cfg, steps=50))
    tuned_vis = visibility([d1 / (d1 + d2) for d1, d2 in tuned])

    # pinned achieved value for the shipped config (deterministic given its seed)
    pinned = 0.5153
    _report(
        "3 deviation magnitude",
        0.4 <= tuned_vis <= 0.6
        and abs(tuned_vis - pinned) <= 0.05
        and ref_vis >= 0.3
        and extremum_dev >= 0.15,
        f"strong_interference visibility={tuned_vis:.4f} (in [0.4, 0.6], pinned "
        f"{pinned} +- 0.05); reference visibility={ref_vis:.4f} (>= 0.3), "
        f"extremum deviation from 0.5 = {extremum_dev:.4f} (>= 0.15)",
    )


def test_criterion_4_exact_delta_periodicity():
    cfg = replace(REFERENCE, delta=1.3)
    period = TWO_PI / cfg.particle_frequency
    trace_a = run_mzi(cfg)
    trace_b = run_mzi(replace(cfg, delta=1.3 + period))
    # trace arrays: emission times, BS1 and BS2 outcomes, one entry per photon
    differing = np.any([a != b for a, b in zip(trace_a, trace_b, strict=True)], axis=0)
    _report(
        "4 exact delta-periodicity",
        not differing.any(),
        f"per-photon traces for delta and delta+2pi/nu: {np.count_nonzero(differing)} "
        f"photons differ out of {trace_a[0].size} (exact equality required)",
    )
    for a, b in zip(trace_a, trace_b):
        np.testing.assert_array_equal(a, b, strict=True)


def test_criterion_5_byte_identical_reruns(tmp_path):
    commands = {
        "single-bs": ["single-bs", "--photons", "4000", "--seed", "11"],
        "mzi": ["mzi", "--photons", "4000", "--seed", "11", "--delta", "0.9"],
        "sweep": ["sweep", "--steps", "7", "--photons", "4000", "--seed", "11"],
    }
    all_same = True
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        all_same = all_same and a.read_bytes() == b.read_bytes()
    _report(
        "5 determinism",
        all_same,
        "single-bs, mzi, and sweep reruns produced byte-identical CSV files",
    )


def test_criterion_6_no_memory_null_result():
    null_cfg = replace(
        REFERENCE,
        bs1=replace(REFERENCE.bs1, update_alpha=1.0, update_beta=0.0),
        bs2=replace(REFERENCE.bs2, update_alpha=1.0, update_beta=0.0),
    )
    points = run_sweep(null_cfg, default_sweep_deltas(null_cfg, steps=50))
    worst = max(abs(d1 / (d1 + d2) - 0.5) for d1, d2 in points)
    _report(
        "6 no-memory null result",
        worst <= 0.01,
        f"identity updates (alpha, beta)=(1, 0): max |d1_fraction - 0.5| = "
        f"{worst:.5f} over 50 sweep points (<= 0.01)",
    )


def test_criterion_7_analytic_oracle_vs_monte_carlo():
    # oracle: enumerate 1e4 initial phases on a uniform grid at a frozen
    # arrival time and apply the reflect-below-pi rule directly
    t1 = 3.7
    phis = np.arange(10_000) * (TWO_PI / 10_000)
    diffs = (
        REFERENCE.particle_frequency * t1
        + phis
        - (REFERENCE.bs1.frequency * t1 + REFERENCE.bs1.initial_offset)
    ) % TWO_PI
    grid_fraction = float(np.mean(diffs < math.pi))

    d1, d2 = single_bs_counts(REFERENCE)
    lo, hi = binomial_ci(d1, d1 + d2)
    mc_within_ci = lo <= grid_fraction <= hi
    _report(
        "7 analytic oracle",
        abs(grid_fraction - 0.5) <= 1e-4 and mc_within_ci,
        f"grid enumeration fraction={grid_fraction:.6f} (0.5 +- 1e-4); Monte Carlo "
        f"fraction={d1 / (d1 + d2):.5f}, 95% CI=[{lo:.5f}, {hi:.5f}] "
        f"contains the grid value: {mc_within_ci}",
    )


def test_criterion_8_analysis_unit_oracles():
    checks = []

    lo, hi = binomial_ci(50_000, 100_000)
    half = 1.9599639845400536 * math.sqrt(0.25 / 100_000)
    checks.append(abs(lo - (0.5 - half)) <= 1e-12 and abs(hi - (0.5 + half)) <= 1e-12)
    checks.append(binomial_ci(0, 50)[0] == 0.0 and binomial_ci(50, 50)[1] == 1.0)

    checks.append(visibility([0.5, 0.5]) == 0.0)
    checks.append(visibility([0.25, 0.75]) == 0.5)
    checks.append(visibility([0.0, 1.0]) == 1.0)

    x = np.linspace(0.0, 2 * TWO_PI, 50)
    y = 0.5 + 0.25 * np.sin(x + 0.3)
    fit = fit_sine(x, y)
    checks.append(
        abs(fit.amplitude - 0.25) <= 1e-6
        and abs(fit.angular_frequency - 1.0) <= 1e-6
        and abs(fit.phase - 0.3) <= 1e-6
        and abs(fit.offset - 0.5) <= 1e-6
        and fit.r_squared >= 1.0 - 1e-9
    )
    flat = fit_sine(x, np.full(50, 0.5))
    checks.append(flat.amplitude <= 1e-9)

    checks.append(qm_reference(0.0, 1.0) == 1.0)
    checks.append(abs(qm_reference(math.pi, 1.0)) <= 1e-12)
    checks.append(abs(qm_reference(math.pi / 2, 1.0) - 0.5) <= 1e-12)

    _report(
        "8 analysis unit oracles",
        all(checks),
        f"{sum(checks)}/{len(checks)} oracle checks passed "
        "(binomial_ci, visibility, fit_sine, qm_reference at stated tolerances)",
    )


def test_criterion_9_fringe_needs_random_phases():
    """Random initial phases make the fringe; random emission times do not.

    The exact all-reflect property of a phase fixed at 0 is checked at 1e6
    photons too, whose arrival times reach 5e4: it does not depend on how
    long the stream runs.
    """
    # 48 points over two periods, 2e4 photons per point. Over seeds 1-20 the
    # visibility read 0.507-0.538 with random initial phases (exponential or
    # fixed gaps) and 0.0107-0.0215 with the phase fixed at 0 and exponential
    # gaps, the spread of 48 fractions that differ only by sampling noise; the
    # bounds sit ~0.06 below the first range and over twice the second's top.
    base = replace(REFERENCE, photon_count=20_000)
    deltas = default_sweep_deltas(base, steps=48)

    def config(phase, law, seed):
        return replace(base, particle_initial_phase=phase, inter_arrival_law=law,
                       master_seed=seed)

    def sweep_visibility(phase, law, seed):
        counts = run_sweep(config(phase, law, seed), deltas)
        return visibility([d1 / (d1 + d2) for d1, d2 in counts])

    seeds = (1, 2, 3)
    random_vis = [sweep_visibility(None, law, s) for law in ("exponential", "fixed") for s in seeds]
    fixed_vis = [sweep_visibility(0.0, "exponential", s) for s in seeds]
    # A phase fixed at BS1's initial offset (0), with nu1 = nu_p, is carried
    # by the same steps as BS1's, so the two meet in phase up to the rounding
    # of BS1's update, which wrap's 1e-12 snap takes to 0; the update is
    # symmetric, so the two stay in phase and BS1 reflects every photon: none
    # takes the delta arm. With fixed gaps too, the run draws no random
    # number, so every sweep point is the same run.
    bs1 = np.concatenate([
        run_mzi(replace(config(0.0, law, 1), photon_count=n, delta=deltas[1]))[1]
        for law in ("exponential", "fixed") for n in (base.photon_count, 10**6)
    ])
    flat = set(run_sweep(config(0.0, "fixed", 1), deltas))
    _report(
        "9 fringe needs random phases",
        min(random_vis) >= 0.45 and max(fixed_vis) <= 0.05 and bs1.all() and len(flat) == 1,
        f"visibility with random initial phases {min(random_vis):.4f}-{max(random_vis):.4f} "
        f"(>= 0.45, exponential and fixed gaps); with the phase fixed at 0 and exponential "
        f"gaps {min(fixed_vis):.4f}-{max(fixed_vis):.4f} (<= 0.05); phase fixed, runs of 2e4 "
        f"and 1e6 photons with exponential and fixed gaps: BS1 reflects "
        f"{np.count_nonzero(bs1)}/{bs1.size} photons; phase and gaps fixed: {len(flat)} "
        f"distinct (d1, d2) over {len(deltas)} points (1 required)",
    )


def test_criterion_10_fringe_without_randomness():
    """The fringe needs no random number: with fixed gaps, initial phases
    spread evenly over consecutive photons make one, and slowly varying
    ones do not.

    Each sweep point runs the compiled stream loop on the point's
    fixed-gap stream, drawn as run_mzi draws it from the point's child seed,
    with initial phases from a formula: Kronecker, i*(sqrt(2) - 1) mod 1
    turns for photon i, or a ramp, i/n turns. Neither draws a random number,
    so two master seeds give equal fractions. Random phases, drawn after the
    gaps as run_mzi draws them, are the comparison.
    """
    # 48 points over two periods, 2e4 photons per point, the reference
    # splitters. Kronecker phases read visibility 0.5914, 0.6112 and 0.6126
    # at 2e3, 2e4 and 1e5 photons, with R^2 0.962-0.964; with both
    # splitters' alpha at 0.9 they read 0.445-0.448. The ramp read 0.0006-
    # 0.0243 over those counts, and at most 0.028 with alpha at 0.9 or 0.99.
    # Random phases read 0.515-0.538 over seeds 1-20. So the bound 0.45 sits
    # 0.16 below Kronecker's reading and R^2 0.9 0.06 below its fit's, and
    # the ramp's bound 0.05 is twice its highest reading. The contrast
    # depends on the setup: at source rate 5 (gap 0.2) Kronecker phases
    # read 0.12, at rate 50 0.47, and with base_path_length 2.5 0.83.
    base = replace(REFERENCE, photon_count=20_000, inter_arrival_law="fixed")
    deltas = default_sweep_deltas(base, steps=48)
    n = base.photon_count
    loop = _load_kernel()

    def sweep(turns, seed):
        """Fractions with initial phases ``turns * TWO_PI``, or drawn ones."""
        fractions = []
        for delta in deltas:
            config = point_config(replace(base, master_seed=seed), delta)
            fractions.append(np.count_nonzero(stream_outcomes(loop, config, turns)[1]) / n)
        return fractions

    kronecker = np.arange(n) * (math.sqrt(2.0) - 1.0) % 1.0
    ramp = np.arange(n) / n
    kron, ramps, rand = ([sweep(turns, s) for s in (1, 2)] for turns in (kronecker, ramp, None))
    fit = fit_sine(deltas, kron[0])
    kron_vis, ramp_vis = visibility(kron[0]), visibility(ramps[0])
    rand_vis = [visibility(f) for f in rand]
    by_run = [d1 / (d1 + d2) for d1, d2 in run_sweep(replace(base, master_seed=1), deltas)]
    _report(
        "10 fringe without randomness",
        kron_vis >= 0.45 and fit.r_squared >= 0.9 and ramp_vis <= 0.05
        and kron[0] == kron[1] and ramps[0] == ramps[1] and rand[0] != rand[1]
        and kron_vis > max(rand_vis) and rand[0] == by_run,
        f"fixed gaps, visibility with Kronecker phases {kron_vis:.4f} (>= 0.45), R^2 "
        f"{fit.r_squared:.4f} (>= 0.9); with a ramp {ramp_vis:.4f} (<= 0.05); with random "
        f"phases {min(rand_vis):.4f}-{max(rand_vis):.4f} (below Kronecker's); equal fractions "
        f"at seeds 1 and 2: Kronecker {kron[0] == kron[1]}, ramp {ramps[0] == ramps[1]}, "
        f"random {rand[0] == rand[1]} (True, True, False); random phases give run_sweep's "
        f"fractions: {rand[0] == by_run}",
    )


def test_criterion_11_fringe_needs_phases_that_change_within_a_few_photons():
    """The fringe needs the initial phases of the next few photons to
    differ: holding each random phase for k consecutive photons cuts the
    contrast, though the phases stay uniform over the stream.

    Each sweep point runs the compiled stream loop on the point's fixed-gap
    stream with i.i.d. uniform phases of its own, drawn from the test's
    generator and each held for k photons, given as turns as in criterion
    10. The contrast is the fitted amplitude over the fitted offset, A/c0.
    """
    # 48 points over two periods, 2e4 photons per point, the reference
    # splitters. Over the test generator's seeds 1-10, A/c0 read 0.489-0.498
    # at k = 1, 0.333-0.341 at k = 4 and 0.121-0.130 at k = 16. Each bound
    # sits 0.039-0.050 outside its range, over four times the range's width.
    base = replace(REFERENCE, photon_count=20_000, inter_arrival_law="fixed")
    deltas = default_sweep_deltas(base, steps=48)
    n = base.photon_count
    loop = _load_kernel()

    def contrast(hold, seed):
        rng = np.random.default_rng(seed)
        fractions = []
        for delta in deltas:
            turns = np.repeat(rng.random(-(-n // hold)), hold)[:n]
            bs2 = stream_outcomes(loop, point_config(base, delta), turns)[1]
            fractions.append(np.count_nonzero(bs2) / n)
        fit = fit_sine(deltas, fractions)
        return fit.amplitude / fit.offset

    seeds = (1, 2)
    by_hold = {hold: [contrast(hold, s) for s in seeds] for hold in (1, 4, 16)}

    def spread(hold):
        return f"{min(by_hold[hold]):.4f}-{max(by_hold[hold]):.4f}"

    _report(
        "11 fringe needs phases that change within a few photons",
        min(by_hold[1]) >= 0.45 and 0.29 <= min(by_hold[4]) and max(by_hold[4]) <= 0.39
        and max(by_hold[16]) <= 0.18,
        f"fixed gaps, fitted contrast A/c0 with each random phase held for k photons, at "
        f"seeds {seeds[0]}-{seeds[-1]}: k=1 {spread(1)} (>= 0.45), k=4 {spread(4)} "
        f"(0.29-0.39), k=16 {spread(16)} (<= 0.18)",
    )
