#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``workloads.py`` (the BENCHMARK.json ones and
``reanalyze``) at a tiny size in both modes and requires each
BENCHMARK.json metric, with its unit, in the result line and no failed
command.  Then checks that a corrupted report.json is counted as a
failed command, and that the benchmark exits non-zero without a result
when the package sources are missing.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=600, cwd=cwd
    )


def _tiny_args(workload: str, trace: int) -> list[str]:
    return [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]


def check_metrics_printed() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run([str(HERE / "run.py"), *_tiny_args(workload, trace)])
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (workload, trace, printed)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name)
                assert name in proc.stdout.split("\n{")[0], (workload, name)
            print(f"ok  {workload} --trace {trace}")


def check_corrupted_report_fails() -> None:
    """A report.json that breaks v_cond <= v2 must raise error_rate."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    import singletsim.cli

    original = singletsim.cli.write_report

    def corrupted(path, result):
        original(path, result)
        report = json.loads(Path(path).read_text())
        report["bins"][0]["v_cond_tilde"] = 2.0 * abs(report["bins"][0]["v2_tilde"]) + 1.0
        Path(path).write_text(json.dumps(report))

    singletsim.cli.write_report = corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(_tiny_args("reanalyze", 0))
    finally:
        singletsim.cli.write_report = original
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    error_rate = float(next(ln for ln in lines if ln.startswith("error_rate")).split()[1])
    assert code == 0 and not result["correct"], result
    assert result["failed"] == result["attempted"] and error_rate == 1.0, (result, error_rate)
    print("ok  corrupted report.json counted as failed")


def check_bare_directory_fails() -> None:
    """Without src/ the benchmark exits non-zero and prints no result."""
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run([*SPEC["command"][1:], *_tiny_args("published", 0)], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  bare directory exits non-zero without a result")


if __name__ == "__main__":
    check_metrics_printed()
    check_bare_directory_fails()
    check_corrupted_report_fails()
