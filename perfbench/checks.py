"""Output checks, computed here from the files and never by package helpers.

Each check returns a list of problems; an empty list means the command's
outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import EFFICIENCY, FID_B, FID_T2, SCAN_ROWS, SHOT_COLUMNS, Workload, snr

# Distance from the squeezing law allowed per bin, in bootstrap stderrs.
LAW_SIGMAS = 5.0
FID_TOLERANCE = 0.05


def _table(path: Path, header: str) -> tuple[np.ndarray, list[str]]:
    """Numeric CSV body as a (rows, columns) array, with any problems found."""
    width = len(header.split(","))
    if not path.is_file():
        return np.empty((0, width)), [f"{path.name}: missing"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return np.empty((0, width)), [f"{path.name}: bad header"]
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        rows = rows.reshape(len(lines) - 1, width)
    except ValueError as exc:
        return np.empty((0, width)), [f"{path.name}: {exc}"]
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append(f"{path.name}: non-finite values")
    return rows, problems


def check_shots(path: Path, wl: Workload) -> list[str]:
    """Exact shot and reference counts, finite readouts."""
    rows, problems = _table(path, SHOT_COLUMNS)
    if problems:
        return problems
    n_ref = int(np.sum(rows[:, 2] == 1.0))
    if len(rows) != wl.n_atom_shots + wl.n_reference:
        problems.append(f"shots.csv: {len(rows)} rows")
    if n_ref != wl.n_reference:
        problems.append(f"shots.csv: {n_ref} reference shots")
    return problems


def _report_problems(report: dict, wl: Workload) -> list[str]:
    bins = report["bins"]
    problems = []
    if report["n_reference"] != wl.n_reference:
        problems.append(f"report.json: n_reference {report['n_reference']}")
    skipped = sum(s["n_shots"] for s in report["skipped_bins"])
    if not bins or sum(b["n_shots"] for b in bins) + skipped != wl.n_atom_shots:
        problems.append("report.json: bin shot counts do not add up")
    for i, b in enumerate(bins):
        keys = ("n_atoms_mean", "v1_tilde", "v2_tilde", "v_cond_tilde", "xi2", "xi2_stderr")
        if not all(isinstance(b[k], (int, float)) and math.isfinite(b[k]) for k in keys):
            problems.append(f"bin {i}: non-finite values")
            continue
        if b["v_cond_tilde"] > b["v2_tilde"]:
            problems.append(f"bin {i}: v_cond > v2")
        if wl.thermal:
            n = b["n_atoms_mean"]
            predicted = 2.0 * n / (1.0 + EFFICIENCY * snr(n))
            stderr = b["xi2_stderr"] * n
            if not abs(b["v_cond_tilde"] - predicted) <= LAW_SIGMAS * stderr:
                problems.append(
                    f"bin {i}: v_cond_tilde {b['v_cond_tilde']:.4g} vs law "
                    f"{predicted:.4g} (stderr {stderr:.3g})"
                )
    return problems


def check_analysis(out: Path, wl: Workload, scan: bool) -> list[str]:
    """report.json, noise_scaling.csv and, with a scan, cutoff_scan.csv."""
    try:
        report = json.loads((out / "report.json").read_text())
        problems = _report_problems(report, wl)
        bins = report["bins"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report.json: {exc!r}"]
    rows, table_problems = _table(
        out / "noise_scaling.csv", "n_atoms,v1_tilde,v2_tilde,v_cond_tilde"
    )
    problems += table_problems
    if not table_problems and len(rows) != len(bins):
        problems.append(f"noise_scaling.csv: {len(rows)} rows for {len(bins)} bins")
    if scan:
        rows, table_problems = _table(out / "cutoff_scan.csv", "C,xi2,xi2_stderr,n_selected")
        problems += table_problems
        if not table_problems and len(rows) != SCAN_ROWS:
            problems.append(f"cutoff_scan.csv: {len(rows)} rows")
    return problems


def check_estimate(path: Path) -> list[str]:
    """Fitted |B| and T2 within 5% of the generator's values."""
    try:
        est = json.loads(path.read_text())
        b = math.sqrt(sum(est[k] ** 2 for k in ("bx_mG", "by_mG", "bz_mG"))) * 1e-3
        t2 = est["t2_us"] * 1e-6
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"estimate.json: {exc!r}"]
    true_b = math.sqrt(sum(v * v for v in FID_B))
    problems = []
    if not abs(b / true_b - 1.0) <= FID_TOLERANCE:
        problems.append(f"estimate.json: |B| {b:.4g} G vs {true_b:.4g} G")
    if not abs(t2 / FID_T2 - 1.0) <= FID_TOLERANCE:
        problems.append(f"estimate.json: T2 {t2:.4g} s vs {FID_T2:.4g} s")
    return problems


def check_command(argv: list[str], wl: Workload) -> list[str]:
    """Problems in the outputs of one finished CLI command."""
    command = argv[0]
    out = Path(argv[argv.index("--out") + 1])
    if command == "simulate":
        problems = check_shots(out / "shots.csv", wl)
        if not (out / "provenance.json").is_file():
            problems.append("provenance.json: missing")
        return problems
    if command == "analyze":
        return check_analysis(out, wl, scan="--cutoff-scan" in argv)
    if command == "fidfit":
        return check_estimate(out)
    raise ValueError(f"no check for {command}")
