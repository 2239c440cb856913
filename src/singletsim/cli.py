"""Command-line entry point.

Subcommands:
  simulate   run a campaign and write the shot CSV plus a provenance record
  analyze    analysis report (JSON) and figure-ready CSVs from a shot CSV
  fidfit     field-vector/T2 estimate from an FID trace CSV
  calibrate  coupling-constant estimate from (phi, n_atoms) pairs

Every command takes ``--config``; the config file is the only source of
physical constants and analysis settings.  Each command does all its
work before its first write, so a config, data or numerical error
leaves no output behind.

Exit codes: 0 success, 2 config error or unwritable output, 3 data/schema
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    analyze_dataset,
    cutoff_scan,
    report_dict,
    write_cutoff_scan_csv,
    write_noise_scaling_csv,
    write_report,
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
from .errors import (
    ConfigError,
    EstimationError,
    FitError,
    InvariantError,
    SchemaError,
)
from .fileio import first_non_finite, read_table, write_json
from .magnetometry import fit_fid, read_fid_csv, write_estimate_json
from .probe import calibrate_g1
from .sequence import read_dataset, run_campaign, write_dataset

CALIBRATION_COLUMNS = ("phi_rad", "n_atoms")
# The most cutoffs one --cutoff-scan may ask for (~30 s of scan).
_MAX_SCAN_POINTS = 100_000
_CALIBRATION_DTYPE = np.dtype([(name, float) for name in CALIBRATION_COLUMNS])


def _config(args) -> RunConfig:
    return load_config(args.config) if args.config else config_from_dict({})


def _cleanup(paths) -> None:
    for p in paths:
        try:
            Path(p).unlink()
        except OSError:
            pass


def _write_outputs(out_dir: Path, writes) -> None:
    """Create ``out_dir`` and call each ``write(path, data)`` of ``writes``.

    A failed write removes the files already written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for path, write, data in writes:
            written.append(path)
            write(path, data)
    except BaseException:
        _cleanup(written)
        raise


def cmd_simulate(args) -> int:
    cfg = _config(args)
    if args.seed is not None:
        try:
            cfg = cfg.with_seed(args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    table = run_campaign(cfg.campaign, cfg.sequence)
    provenance = {
        "kind": "provenance",
        "package": "singletsim",
        "version": __version__,
        "n_records": len(table),
        "config": config_to_dict(cfg),
    }
    out_dir = Path(args.out)
    dataset_path = out_dir / "shots.csv"
    _write_outputs(
        out_dir,
        [
            (dataset_path, write_dataset, table),
            (out_dir / "provenance.json", write_json, provenance),
        ],
    )
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
    # The 1e-9 step fraction keeps a stop that rounding puts just short of
    # the last point; every point is rounded to 12 significant digits.
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SCAN_POINTS:
        raise ConfigError(f"--cutoff-scan {spec!r} has more than {_MAX_SCAN_POINTS} points")
    return [float(f"{start + k * step:.12g}") for k in range(math.floor(span) + 1)]


def cmd_analyze(args) -> int:
    cfg = _config(args)
    cutoffs = _parse_scan(args.cutoff_scan) if args.cutoff_scan else None
    table = read_dataset(args.dataset)
    result = analyze_dataset(table, probe=cfg.probe, options=cfg.analysis)
    field = first_non_finite(report_dict(result))
    if field is not None:
        raise InvariantError(f"report.json field {field} is not finite")
    out_dir = Path(args.out)
    report_path = out_dir / "report.json"
    writes = [
        (report_path, write_report, result),
        (out_dir / "noise_scaling.csv", write_noise_scaling_csv, result),
    ]
    if cutoffs:
        rows = cutoff_scan(table, cutoffs, cfg.probe, cfg.analysis)
        writes.append((out_dir / "cutoff_scan.csv", write_cutoff_scan_csv, rows))
    _write_outputs(out_dir, writes)
    print(f"wrote {report_path}")
    return 0


def cmd_fidfit(args) -> int:
    cfg = _config(args)
    z_samples, y_samples = read_fid_csv(args.samples)
    estimate = fit_fid(
        z_samples, y_samples, g1=cfg.probe.g1, gamma=cfg.field.gyromagnetic_ratio
    )
    write_estimate_json(args.out, estimate)
    print(f"wrote {args.out}")
    return 0


def _calibration_rules(rows):
    """The calibration CSV's row rules, in the order each row is checked."""
    finite = np.isfinite(rows["phi_rad"]) & np.isfinite(rows["n_atoms"])
    yield ~finite, "non-finite phi_rad or n_atoms"
    yield rows["n_atoms"] < 0, "negative n_atoms"


def _read_pairs(path) -> np.ndarray:
    """The (phi_rad, n_atoms) rows of a calibration CSV as an (n, 2) array."""
    rows = read_table(path, _CALIBRATION_DTYPE, _calibration_rules)
    return np.column_stack([rows[name] for name in CALIBRATION_COLUMNS])


def cmd_calibrate(args) -> int:
    cfg = _config(args)
    pairs = _read_pairs(args.pairs)
    slope, stderr = calibrate_g1(pairs)
    payload = {"g1": slope, "g1_stderr": stderr, "n_pairs": len(pairs)}
    write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singletsim",
        description="Simulate and analyze stroboscopic QND probing of an atomic ensemble",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out="directory"):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", default=None, help="JSON config (or provenance) file")
        p.add_argument("--out", required=True, help=f"output {out}")
        p.set_defaults(func=func)
        return p

    p_sim = command("simulate", cmd_simulate, "run a campaign, write shots.csv + provenance")
    p_sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sim.add_argument(
        "--workers", type=int, default=1, help="ignored; simulation is single-process"
    )

    p_an = command("analyze", cmd_analyze, "analyze a shot CSV")
    p_an.add_argument("dataset", help="shot CSV file")
    p_an.add_argument(
        "--cutoff-scan", default=None, metavar="START:STOP:STEP", help="scan the cutoff"
    )
    p_an.add_argument(
        "--workers", type=int, default=1, help="ignored; analysis is single-process"
    )

    p_fid = command("fidfit", cmd_fidfit, "fit an FID trace CSV", "JSON path")
    p_fid.add_argument("samples", help="FID CSV (t_us, theta_rad, branch)")

    p_cal = command("calibrate", cmd_calibrate, "fit g1 from (phi, n_atoms) pairs", "JSON path")
    p_cal.add_argument("pairs", help="CSV with columns phi_rad, n_atoms")
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
    except (FitError, InvariantError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
