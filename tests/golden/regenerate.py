#!/usr/bin/env python3
"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    python3 tests/golden/regenerate.py

Runs the ``published`` and ``campaign-noisy`` workloads of
``perfbench/workloads.py`` at seed 1: their own generators write the
inputs, and their CLI commands run in-process through
``singletsim.cli.main`` from the ``src/`` of this checkout.  Into
``tests/golden/<workload>/`` it writes the sha256 of ``shots.csv`` and
``provenance.json`` (``sha256.json``) and a copy of every other output:
``report.json`` and ``noise_scaling.csv``, plus ``cutoff_scan.csv`` and
``estimate.json`` for ``published``.  Rerun it only for a change that
is meant to move an output, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent
WORKLOADS = ("published", "campaign-noisy")
SEED = 1
# Outputs pinned by their bytes; every other output is pinned by its values.
HASHED = ("sim/shots.csv", "sim/provenance.json")


def _workloads():
    """``perfbench/workloads.py``, loaded without writing bytecode under ``perfbench/``."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def run_workload(name: str, work: Path) -> dict[str, Path]:
    """Run workload ``name`` at ``SEED`` under ``work``: each output's path by its name.

    Names are relative to the run's output directory, e.g.
    ``analysis/report.json``.
    """
    from singletsim.cli import main

    workloads = _workloads()
    wl = workloads.build(name)
    inputs, out = work / "inputs", work / "out"
    workloads.generate(wl, inputs, SEED)
    for command in wl.commands:
        argv = [arg.format(inputs=inputs, out=out, seed=SEED) for arg in command]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"{name}: {' '.join(argv)} exited {rc}")
    return {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def regenerate() -> None:
    for name in WORKLOADS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_workload(name, Path(tmp))
            hashes = {key: sha256(outputs[key]) for key in HASHED}
            (target / "sha256.json").write_text(json.dumps(hashes, indent=2) + "\n")
            for key, path in outputs.items():
                if key not in HASHED:
                    shutil.copyfile(path, target / Path(key).name)
        print(f"wrote {target}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
