#!/usr/bin/env python3
"""Benchmark of the singletsim pipeline, driven through its CLI in-process.

    python3 perfbench/run.py --workload published --seed 1 --seconds 55 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory.  The benchmark writes the workload's inputs from ``--seed``,
runs the workload's CLI commands (``singletsim.cli.main``) repeatedly
for about ``--seconds`` seconds, checks every output, and prints the
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``attempted`` and ``failed`` count CLI commands; a command fails when it
exits non-zero, raises, or its outputs fail a check (``checks.py``) or
differ from the first run's bytes.  Their ratio is printed as
``error_rate``.

``pipeline_s`` is the median wall time of a run of all the workload's
commands, divided by the median time of a fixed calibration kernel
(``calibration.py``) timed before the first run and after every run,
times the kernel's reference time: wall seconds on a host of the
reference speed.  A shared host's changes of speed slow the kernel and
the pipeline together, so they cancel; the raw wall-time median is
printed beside it.  ``setup_s`` is the median over several set-ups of
the time to import ``singletsim`` in a fresh interpreter plus the time
to generate the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

SETUPS = 5
# The largest --workers any workload uses.  BLAS threads per process are
# capped to nproc // POOL_WORKERS, so pool processes times BLAS threads
# never exceed nproc.
POOL_WORKERS = 2

END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("spins.check_psd_calls", "count"),
    ("spins.check_psd_s", "s"),
    ("spins.apply_rotation_calls", "count"),
    ("spins.apply_rotation_s", "s"),
    ("probe.simulate_pulse_calls", "count"),
    ("probe.simulate_pulse_s", "s"),
    ("sequence.run_campaign_s", "s"),
    ("sequence.write_dataset_s", "s"),
    ("sequence.read_dataset_s", "s"),
    ("sequence.shots", "count"),
    ("sequence.csv_bytes", "bytes"),
    ("analysis.analyze_dataset_s", "s"),
    ("analysis.cutoff_scan_s", "s"),
    ("analysis.sample_covariance_calls", "count"),
    ("analysis.sample_covariance_s", "s"),
    ("analysis.conditional_covariance_calls", "count"),
    ("analysis.conditional_covariance_s", "s"),
    ("analysis.squeezing_parameter_s", "s"),
    ("analysis.select_shots_calls", "count"),
    ("analysis.select_shots_s", "s"),
    ("analysis.fit_s", "s"),
    ("analysis.write_report_s", "s"),
    ("analysis.bins_kept", "count"),
    ("analysis.bins_skipped", "count"),
    ("analysis.pinv_fallbacks", "count"),
    ("magnetometry.read_fid_csv_s", "s"),
    ("magnetometry.fit_fid_s", "s"),
    ("magnetometry.fid_signal_calls", "count"),
    ("config.load_config_s", "s"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import singletsim; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink the workload (smoke test only)"
    )
    return parser.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _digest(path: Path) -> str:
    """Hash of a file, or of every file under a directory with its name."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path) if path.is_dir() else f.name).encode())
        h.update(f.read_bytes() if f.is_file() else b"<missing>")
    return h.hexdigest()


def _import_seconds() -> float:
    """Import time of singletsim in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _environment(seed: int, threads: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": _nproc(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


COUNTS = (
    "sequence.shots",
    "sequence.csv_bytes",
    "analysis.bins_kept",
    "analysis.bins_skipped",
    "analysis.pinv_fallbacks",
)


def _analysis_counts(dataset: Path, out: Path) -> dict:
    """``COUNTS`` read from an analysed dataset and its report."""
    report = json.loads((out / "report.json").read_text())
    return {
        "sequence.shots": len(dataset.read_text().splitlines()) - 1,
        "sequence.csv_bytes": dataset.stat().st_size,
        "analysis.bins_kept": len(report["bins"]),
        "analysis.bins_skipped": len(report["skipped_bins"]),
        "analysis.pinv_fallbacks": sum(b["gamma1_singular"] for b in report["bins"]),
    }


class Bench:
    """One invocation: set-ups, then timed runs of the workload's commands."""

    def __init__(self, wl, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.inputs: Path | None = None
        self.cli = None
        self.attempted = 0
        self.failed = 0
        self.first_digests: dict[int, str] = {}
        # Zero until an analyze command passes its checks.
        self.counts = dict.fromkeys(COUNTS, 0)

    def setup(self, times: int) -> list[float]:
        """Generate the inputs ``times`` times; seconds per set-up."""
        import workloads

        seconds, digests = [], set()
        for k in range(times):
            inputs = self.work / f"inputs{k}"
            t_import = _import_seconds()
            t0 = perf_counter()
            workloads.generate(self.wl, inputs, self.seed)
            seconds.append(t_import + perf_counter() - t0)
            digests.add(_digest(inputs))
        if len(digests) != 1:
            raise RuntimeError("input generation is not deterministic")
        self.inputs = inputs
        import singletsim.cli

        if Path(singletsim.cli.__file__).resolve().parents[1] != SRC:
            raise RuntimeError(f"imported singletsim from {singletsim.cli.__file__}")
        self.cli = singletsim.cli
        return seconds

    def run_once(self, index: int) -> dict:
        """Run every command once; seconds per command name."""
        import checks

        out = self.work / f"run{index}"
        out.mkdir(parents=True)
        seconds = {}
        gc.collect()
        for k, template in enumerate(self.wl.commands):
            argv = [a.format(inputs=self.inputs, out=out, seed=self.seed) for a in template]
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            seconds[argv[0]] = perf_counter() - t0
            problems = [f"exit {code}"] if code != 0 else checks.check_command(argv, self.wl)
            digest = _digest(Path(argv[argv.index("--out") + 1]))
            if self.first_digests.setdefault(k, digest) != digest:
                problems.append("outputs differ from the first run")
            if argv[0] == "analyze" and not problems:
                self.counts = _analysis_counts(Path(argv[1]), out / "analysis")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED run {index} {argv[0]}: {'; '.join(problems)}", file=sys.stderr)
        shutil.rmtree(out)
        return seconds


def _measure(step, seconds: float, minimum: int) -> list:
    """Call ``step(i)`` until another call would end after ``seconds``."""
    results, t0 = [], perf_counter()
    while True:
        t = perf_counter()
        results.append(step(len(results)))
        last = perf_counter() - t
        if len(results) >= minimum and perf_counter() - t0 + last > seconds:
            return results


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (kB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _summarize(name: str, values: list, unit: str) -> float:
    med = statistics.median(values)
    print(
        f"{name:<28} {med:.6g} {unit}  (median of {len(values)}, "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )
    return med


def end_to_end(bench: Bench, seconds: float, setup_times: list) -> dict:
    import calibration

    kernel = [calibration.seconds()]

    def step(i: int) -> dict:
        seconds = bench.run_once(i)
        kernel.append(calibration.seconds())
        return seconds

    runs = _measure(step, seconds, minimum=2)
    # Per-command and raw wall times are printed for reading only; they
    # are not BENCHMARK.json metrics (see perfbench/README.md).
    for command in runs[0]:
        _summarize(f"{command}_s", [r[command] for r in runs], "s")
    wall = _summarize("pipeline_wall_s", [sum(r.values()) for r in runs], "s")
    speed = calibration.REFERENCE_S / _summarize("calibration_s", kernel, "s")
    print(f"{'pipeline_s':<28} {wall * speed:.6g} s  (pipeline_wall_s x {speed:.6g})")
    return {
        "pipeline_s": wall * speed,
        "setup_s": _summarize("setup_s", setup_times, "s"),
        "peak_rss_mb": _summarize("peak_rss_mb", [_peak_rss_mb()], "MB"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    summaries: list[dict] = []

    def pair(i: int) -> tuple[float, float]:
        untraced = sum(bench.run_once(2 * i).values())
        first = len(tracer.spans)
        tracer.install()
        try:
            traced = sum(bench.run_once(2 * i + 1).values())
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(first))
        return untraced, traced

    pairs = _measure(pair, seconds, minimum=1)
    tracer.write(WORK / f"spans-{bench.wl.name}.csv")
    untraced = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    metrics = spans.layer_metrics(summaries)
    metrics.update(bench.counts)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.spans) // len(pairs)
    print(f"traced runs: {len(pairs)}; spans written to {WORK / f'spans-{bench.wl.name}.csv'}")
    for name, unit in PER_LAYER:
        print(f"{name:<40} {metrics[name]:.6g} {unit}")
    if bench.wl.pool_lost:
        print(
            f"unavailable: {', '.join(bench.wl.pool_lost)} (counted inside --workers "
            "pool processes, whose spans are not returned)"
        )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singletsim" / "__init__.py").is_file():
        print(f"perfbench: no singletsim package under {SRC}", file=sys.stderr)
        return 2
    threads = str(max(1, _nproc() // POOL_WORKERS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, tiny=args.tiny)
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(wl, args.seed, work)
    try:
        setup_times = bench.setup(2 if args.tiny else SETUPS)
        print("env " + json.dumps(_environment(args.seed, threads), sort_keys=True))
        if args.trace:
            values = per_layer(bench, args.seconds)
            names = PER_LAYER
        else:
            values = end_to_end(bench, args.seconds, setup_times)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"error_rate {bench.failed / bench.attempted:.6g} ({bench.failed} of {bench.attempted} commands)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
