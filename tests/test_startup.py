"""Start-up cost: no command imports scipy; run time needs numpy only.

Each CLI test runs commands in a fresh interpreter and records which
``scipy`` modules are loaded after the import and after each command,
so an ``import scipy`` reached from any command shows up here.  The
source guard fails on any line of the package that names ``scipy``,
reached or not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from singletsim import fid_signal

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "singletsim"

CHILD = """
import json, sys
import singletsim
from singletsim.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    loaded[name] = [main(argv), scipy_modules()]
print(json.dumps(loaded))
"""

CONFIG = {
    "seed": 3,
    "campaign": {"n_cycles": 3, "initial_atoms": 6e5},
    "analysis": {"n_bins": 4, "min_bin_shots": 5, "n_resamples": 40},
}


def run_fresh(commands):
    """Run ``(name, argv)`` CLI commands in one fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulate_calibrate_analyze(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    pairs = tmp_path / "pairs.csv"
    lines = ["phi_rad,n_atoms"]
    lines += [f"{float(9.0e-8 * n)!r},{float(n)!r}" for n in np.linspace(1e5, 1.5e6, 6)]
    pairs.write_text("\n".join(lines) + "\n")
    run, analysis = tmp_path / "run", tmp_path / "analysis"
    analyze = ["analyze", str(run / "shots.csv"), "--out", str(analysis)]

    loaded = run_fresh(
        [
            ("simulate", ["simulate", "--config", str(cfg), "--out", str(run)]),
            ("calibrate", ["calibrate", str(pairs), "--out", str(tmp_path / "g1.json")]),
            ("analyze", [*analyze, "--config", str(cfg)]),
        ]
    )
    assert loaded["import"] == []
    assert loaded["simulate"] == [0, []]
    assert loaded["calibrate"] == [0, []]
    assert loaded["analyze"] == [0, []]
    report = json.loads((analysis / "report.json").read_text())
    assert len(report["bins"]) == 4
    assert report["fits"]["snr_model"]["nfev"] > 0


def test_fidfit(tmp_path):
    t = np.arange(0.0, 1.5e-3, 2e-6)
    rows = ["t_us,theta_rad,branch"]
    b = (9.6e-3, 9.7e-3, 9.9e-3)
    for axis in ("z", "y"):
        for ti, theta in zip(t, fid_signal(t, b, axis, 1e6, 9.0e-8, 745e-6)):
            rows.append(f"{float(ti) * 1e6!r},{float(theta)!r},{axis}")
    samples = tmp_path / "fid.csv"
    samples.write_text("\n".join(rows) + "\n")

    out = tmp_path / "estimate.json"
    loaded = run_fresh([("fidfit", ["fidfit", str(samples), "--out", str(out)])])
    assert loaded["import"] == []
    assert loaded["fidfit"] == [0, []]
    assert json.loads(out.read_text())["bz_mG"] > 0


def test_package_source_never_names_scipy():
    # A text search, not a parse: it also catches importlib and __import__.
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "scipy" in line
    ]
    assert hits == [], f"the package runs on numpy alone: {hits}"
