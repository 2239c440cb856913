"""Command-line entry point.

Subcommands:
  simulate   run a campaign and write the shot CSV plus a provenance record
  analyze    analysis report (JSON) and figure-ready CSVs from a shot CSV
  fidfit     field-vector/T2 estimate from an FID trace CSV
  calibrate  coupling-constant estimate from (phi, n_atoms) pairs

Exit codes: 0 success, 2 config error, 3 data/schema error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    analyze_dataset,
    cutoff_scan,
    write_cutoff_scan_csv,
    write_noise_scaling_csv,
    write_report,
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
from .errors import (
    CalibrationError,
    ConfigError,
    EstimationError,
    FitError,
    InvariantError,
    SchemaError,
)
from .magnetometry import fit_fid, read_fid_csv, write_estimate_json
from .probe import calibrate_g1
from .sequence import read_dataset, run_campaign, write_dataset
from .spins import GYROMAGNETIC_RATIO

CALIBRATION_COLUMNS = ("phi_rad", "n_atoms")


def _cleanup(paths) -> None:
    for p in paths:
        try:
            Path(p).unlink()
        except OSError:
            pass


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        try:
            cfg = cfg.with_seed(args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "shots.csv"
    provenance_path = out_dir / "provenance.json"
    try:
        table = run_campaign(cfg.campaign, cfg.sequence)
        write_dataset(dataset_path, table)
        provenance = {
            "kind": "provenance",
            "package": "singletsim",
            "version": __version__,
            "n_records": len(table),
            "config": config_to_dict(cfg),
        }
        provenance_path.write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    except BaseException:
        _cleanup([dataset_path, provenance_path])
        raise
    print(f"wrote {len(table)} shots to {dataset_path}")
    return 0


def _parse_scan(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ConfigError(f"--cutoff-scan expects start:stop:step, got {spec!r}") from None
    if not (0 < start <= stop < math.inf and 0 < step < math.inf):
        raise ConfigError(
            "--cutoff-scan requires finite values with start > 0, step > 0 and stop >= start"
        )
    values = []
    k = 0
    while True:
        c = start + k * step
        if c > stop + 1e-9:
            break
        values.append(round(c, 12))
        k += 1
    return values


def cmd_analyze(args) -> int:
    cfg: RunConfig = load_config(args.config) if args.config else config_from_dict({})
    overrides = {"n_bins": args.bins, "cutoff": args.cutoff, "n_resamples": args.resamples}
    try:
        options = replace(cfg.analysis, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"analyze options: {exc}") from None
    cutoffs = _parse_scan(args.cutoff_scan) if args.cutoff_scan else None

    table = read_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    scaling_path = out_dir / "noise_scaling.csv"
    scan_path = out_dir / "cutoff_scan.csv"
    written = [report_path, scaling_path]
    try:
        result = analyze_dataset(table, probe=cfg.probe, options=options)
        write_report(report_path, result)
        write_noise_scaling_csv(scaling_path, result)
        if cutoffs:
            rows = cutoff_scan(table, cutoffs, cfg.probe, options)
            write_cutoff_scan_csv(scan_path, rows)
            written.append(scan_path)
    except BaseException:
        _cleanup(written)
        raise
    print(f"wrote {report_path}")
    return 0


def _require_positive(args, *names) -> None:
    """``ConfigError`` unless each named option is finite and positive."""
    for name in names:
        value = getattr(args, name)
        if not 0 < value < math.inf:
            raise ConfigError(f"--{name} must be finite and positive, got {value!r}")


def cmd_fidfit(args) -> int:
    _require_positive(args, "g1", "gamma")
    z_samples, y_samples = read_fid_csv(args.samples)
    out_path = Path(args.out)
    try:
        estimate = fit_fid(z_samples, y_samples, g1=args.g1, gamma=args.gamma)
    except FitError as exc:
        log_path = out_path.with_suffix(".log")
        log_path.write_text(f"FID fit failure\n{exc}\n")
        print(f"fit failed, residual trace in {log_path}", file=sys.stderr)
        raise
    write_estimate_json(out_path, estimate)
    print(f"wrote {out_path}")
    return 0


def cmd_calibrate(args) -> int:
    _require_positive(args, "f")
    path = Path(args.pairs)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty calibration file") from None
        if tuple(header) != CALIBRATION_COLUMNS:
            raise SchemaError(
                f"{path}: bad columns {header}, expected {list(CALIBRATION_COLUMNS)}"
            )
        pairs = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                pair = (float(row[0]), float(row[1]))
            except (ValueError, IndexError) as exc:
                raise SchemaError(f"{path}:{i}: {exc}") from None
            if not all(map(math.isfinite, pair)):
                raise SchemaError(f"{path}:{i}: non-finite phi_rad or n_atoms")
            pairs.append(pair)
    slope, stderr = calibrate_g1(pairs, f=args.f)
    payload = {"g1": slope, "g1_stderr": stderr, "n_pairs": len(pairs)}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singletsim",
        description="Simulate and analyze stroboscopic QND probing of an atomic ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a campaign, write shots.csv + provenance")
    p_sim.add_argument("--config", required=True, help="JSON config (or provenance) file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sim.add_argument(
        "--workers", type=int, default=1, help="ignored; simulation is single-process"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze a shot CSV")
    p_an.add_argument("dataset", help="shot CSV file")
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--config", default=None, help="config for probe constants/options")
    p_an.add_argument("--bins", type=int, default=None, help="number of atom-number bins")
    p_an.add_argument("--cutoff", type=float, default=None, help="selection cutoff C")
    p_an.add_argument("--resamples", type=int, default=None, help="bootstrap resamples")
    p_an.add_argument(
        "--cutoff-scan", default=None, metavar="START:STOP:STEP", help="scan the cutoff"
    )
    p_an.add_argument(
        "--workers", type=int, default=1, help="ignored; analysis is single-process"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_fid = sub.add_parser("fidfit", help="fit an FID trace CSV")
    p_fid.add_argument("samples", help="FID CSV (t_us, theta_rad, branch)")
    p_fid.add_argument("--out", required=True, help="output JSON path")
    p_fid.add_argument("--g1", type=float, default=9.0e-8, help="coupling, rad/spin")
    p_fid.add_argument("--gamma", type=float, default=GYROMAGNETIC_RATIO)
    p_fid.set_defaults(func=cmd_fidfit)

    p_cal = sub.add_parser("calibrate", help="fit g1 from (phi, n_atoms) pairs")
    p_cal.add_argument("pairs", help="CSV with columns phi_rad, n_atoms")
    p_cal.add_argument("--out", required=True, help="output JSON path")
    p_cal.add_argument("--f", type=float, default=1.0, help="spin quantum number")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, EstimationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (FitError, CalibrationError, InvariantError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
