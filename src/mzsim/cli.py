"""Command-line interface.

Subcommands: ``single-bs``, ``mzi``, ``sweep``, ``analyze``, ``compare-qm``.
Flag values override config-file values, which override the built-in
defaults (the pinned reference setup).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .analysis import SineFit, binomial_ci, compare_to_qm, fit_sine, visibility
from .config import ExperimentConfig, load_config
from .experiment import default_sweep_deltas, run_mzi, run_single_bs, run_sweep
from .output import build_record, read_sweep_csv, write_csv, write_json


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="JSON config file")
    run = argparse.ArgumentParser(add_help=False, parents=[config])
    run.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    run.add_argument("--photons", type=int, metavar="N", help="photon count override")
    run.add_argument("--out", metavar="PATH", help="write results to this file")
    run.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default: by --out suffix, else csv)",
    )
    single = argparse.ArgumentParser(add_help=False, parents=[run])
    single.add_argument(
        "--trace", action="store_true",
        help="keep per-photon records (JSON output only)",
    )

    parser = argparse.ArgumentParser(
        prog="mzsim",
        description="Deterministic-particle interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single-bs", parents=[single], help="photon stream against one splitter")
    p.set_defaults(func=_run_one)

    p = sub.add_parser("mzi", parents=[single], help="full two-splitter run")
    p.add_argument("--delta", type=float, metavar="X", help="path-length difference override")
    p.set_defaults(func=_run_one)

    p = sub.add_parser("sweep", parents=[run], help="sweep the path-length difference")
    p.add_argument(
        "--parallel", type=int, default=1, metavar="K",
        help="worker processes for sweep points",
    )
    p.add_argument("--steps", type=int, default=50, metavar="N", help="sweep points (default 50)")
    p.add_argument(
        "--delta-max", type=float, default=None, metavar="X",
        help="sweep end (default two fringe periods)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="fit and summarize a results CSV")
    p.add_argument("results", metavar="RESULTS", help="CSV written by a previous run")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare-qm", parents=[config], help="compare a results CSV to the ideal curve")
    p.add_argument("results", metavar="RESULTS", help="CSV written by a previous run")
    p.set_defaults(func=cmd_compare_qm)

    return parser


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for flag, key in (("seed", "master_seed"), ("photons", "photon_count"), ("delta", "delta")):
        value = getattr(args, flag, None)  # not every subcommand has every flag
        if value is not None:
            overrides[key] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _out_format(args: argparse.Namespace) -> str:
    if args.format is not None:
        return args.format
    return "json" if str(args.out).endswith(".json") else "csv"


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an ``--out`` that is empty, is a directory (or names one, by a
    trailing separator) or whose directory does not exist before the run,
    not after it."""
    if args.out is None:
        return
    if not args.out:
        raise OSError("cannot write: the --out path is empty")
    out = Path(args.out)
    if args.out.endswith(os.sep) or out.is_dir():
        raise OSError(f"cannot write {args.out}: it is a directory")
    if not out.parent.is_dir():
        raise OSError(f"cannot write {args.out}: no directory {out.parent}")


def _emit(args: argparse.Namespace, kind: str, cfg: ExperimentConfig,
          rows: list[tuple[float, int, int]], analysis: dict, trace=None) -> None:
    if _out_format(args) == "json":
        write_json(build_record(kind, cfg, rows, analysis, trace), args.out)
    else:
        write_csv(rows, args.out)


def _print_fit(fit: SineFit, digits: int) -> None:
    print(
        f"fit: amplitude={fit.amplitude:.{digits}f} "
        f"angular_frequency={fit.angular_frequency:.{digits}f} "
        f"phase={fit.phase:.{digits}f} offset={fit.offset:.{digits}f} "
        f"r_squared={fit.r_squared:.{digits}f} converged={fit.converged}"
    )


def _run_one(args: argparse.Namespace) -> int:
    """``single-bs`` and ``mzi``: one run, named by the subcommand."""
    if args.trace and not (args.out and _out_format(args) == "json"):
        raise ValueError("--trace needs JSON output (--out PATH.json or --format json)")
    _check_out(args)
    kind = args.command
    cfg = _effective_config(args)
    runner = run_single_bs if kind == "single-bs" else run_mzi
    (d1, d2), trace = runner(cfg)
    frac = d1 / (d1 + d2)
    lo, hi = binomial_ci(d1, d1 + d2)
    if args.out:
        analysis = {"d1_fraction": frac, "ci_lo": lo, "ci_hi": hi, "confidence": 0.95}
        _emit(args, kind, cfg, [(cfg.delta, d1, d2)], analysis, trace if args.trace else None)
    print(
        f"{kind}: photons={d1 + d2} d1={d1} d2={d2} "
        f"d1_fraction={frac:.6f} ci95=[{lo:.6f}, {hi:.6f}]"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_out(args)
    cfg = _effective_config(args)
    deltas = default_sweep_deltas(cfg, steps=args.steps, delta_max=args.delta_max)
    counts = run_sweep(cfg, deltas, jobs=args.parallel)
    fractions = [d1 / (d1 + d2) for d1, d2 in counts]
    fit = fit_sine(list(zip(deltas, fractions)))
    qm = compare_to_qm(deltas, fractions, cfg.particle_frequency)
    if args.out:
        analysis = {
            "visibility": qm.model_visibility,
            "fit": None if fit is None else asdict(fit),
            "qm": {
                "ideal_period": qm.ideal_period,
                "fitted_period": qm.fitted_period,
                "model_visibility": qm.model_visibility,
                "visibility_gap": 1.0 - qm.model_visibility,
                "max_abs_residual": max(abs(r) for r in qm.residuals),
            },
        }
        rows = [(delta, d1, d2) for delta, (d1, d2) in zip(deltas, counts)]
        _emit(args, "sweep", cfg, rows, analysis)
    print(
        f"sweep: {len(deltas)} points, photons/point={cfg.photon_count}, "
        f"visibility={qm.model_visibility:.4f}"
    )
    if fit is not None:
        _print_fit(fit, 4)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    rows = read_sweep_csv(args.results)
    pairs = [(delta, d1 / (d1 + d2)) for delta, d1, d2 in rows]
    fit = fit_sine(pairs)
    if fit is not None:
        _print_fit(fit, 6)
    else:
        print("fit: skipped (needs at least 8 rows with 2 distinct deltas and a finite span)")
    print(f"visibility: {visibility([f for _, f in pairs]):.6f}")
    print("delta,d1_fraction,ci_lo,ci_hi")
    for delta, d1, d2 in rows:
        lo, hi = binomial_ci(d1, d1 + d2)
        print(f"{delta},{d1 / (d1 + d2):.6f},{lo:.6f},{hi:.6f}")
    return 0


def cmd_compare_qm(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    rows = read_sweep_csv(args.results)
    qm = compare_to_qm(
        [delta for delta, _, _ in rows], [d1 / (d1 + d2) for _, d1, d2 in rows],
        cfg.particle_frequency,
    )
    rms = (sum(r * r for r in qm.residuals) / len(qm.residuals)) ** 0.5
    print(
        f"residuals: max_abs={max(abs(r) for r in qm.residuals):.6f} rms={rms:.6f} "
        f"(model fraction minus ideal cos^2 at {len(qm.residuals)} points)"
    )
    print(
        f"visibility: model={qm.model_visibility:.6f} ideal={1.0:.6f} "
        f"gap={1.0 - qm.model_visibility:.6f} (the model saturates below the ideal contrast)"
    )
    if qm.fitted_period is not None:
        rel = abs(qm.fitted_period - qm.ideal_period) / qm.ideal_period
        print(
            f"period: fitted={qm.fitted_period:.6f} ideal={qm.ideal_period:.6f} "
            f"relative_error={rel:.6f}"
        )
    else:
        print(f"period: fit skipped, ideal={qm.ideal_period:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
