#!/usr/bin/env python3
"""Scan splitter frequencies, update coefficients, and source rates.

This is the calibration experiment behind the shipped configs: for each
candidate setup it runs a reduced sweep and reports fringe visibility, the
fitted angular frequency (the fringe period should track the particle
frequency), and the fit quality. Reading the table shows the regimes:

  * both splitters at the particle frequency: the path delay cancels in
    every phase comparison, fringes only come from the noisy time term the
    reflection update injects, visibility stays low;
  * second splitter at zero frequency (a pure phase register): the delay
    enters the comparison directly, and with a gentle update gain and a
    source fast enough for the register to track the emission-time drift
    the fringes get strong;
  * identity updates (1, 0): no state ever changes, and with distinct
    splitter frequencies the emission-time drift washes every correlation
    out, the control stays flat.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mzsim.analysis import fit_sine, visibility
from mzsim.config import ExperimentConfig, SplitterConfig
from mzsim.experiment import default_sweep_deltas, run_sweep


def measure(cfg, steps, photons):
    cfg = replace(cfg, photon_count=photons)
    deltas = default_sweep_deltas(cfg, steps=steps)
    fractions = [p.d1_fraction for p in run_sweep(cfg, deltas)]
    fit = fit_sine(list(zip(deltas, fractions)))
    return visibility(fractions), fit.angular_frequency, fit.r_squared


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--photons", type=int, default=8000)
    parser.add_argument("--steps", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'rate':>6} {'nu_bs1':>6} {'nu_bs2':>6} {'alpha':>6} {'beta':>6}"
          f" {'vis':>7} {'w_fit':>7} {'R2':>7}")
    for rate in (1.0, 5.0, 20.0):
        for nu1, nu2 in ((1.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
            for alpha, beta in ((1.0, 1.0), (0.5, 0.5), (0.9, 0.1), (0.94, 0.06), (1.0, 0.0)):
                cfg = ExperimentConfig(
                    source_rate=rate,
                    bs1=SplitterConfig(frequency=nu1, update_alpha=alpha, update_beta=beta),
                    bs2=SplitterConfig(frequency=nu2, update_alpha=alpha, update_beta=beta),
                    master_seed=args.seed,
                )
                vis, w, r2 = measure(cfg, args.steps, args.photons)
                mark = "  <-" if vis >= 0.3 and abs(w - 1.0) <= 0.05 and r2 >= 0.9 else ""
                print(f"{rate:6.1f} {nu1:6.1f} {nu2:6.1f} {alpha:6.2f} {beta:6.2f}"
                      f" {vis:7.3f} {w:7.3f} {r2:7.3f}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
