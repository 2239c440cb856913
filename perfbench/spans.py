"""Span recorder that wraps singletsim functions from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``singletsim`` module namespace that binds it, so calls through a
``from .x import f`` alias are seen too.  A span is (parent, name, start,
end); the parent is the span open when the call began, which is exact
because the traced process runs single-threaded.  Spans stay in memory
until ``write``.  Calls made inside forked pool workers run the wrappers
there but their spans die with the worker.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from pathlib import Path

# "module.function" to wrap -> the per-layer metric its spans count toward
# (``<metric>_calls`` and ``<metric>_s``, the summed self time).
TRACED = {
    "cli.main": "cli.overhead",
    "cli.cmd_simulate": "cli.overhead",
    "cli.cmd_analyze": "cli.overhead",
    "cli.cmd_fidfit": "cli.overhead",
    "config.load_config": "config.load_config",
    "spins.check_psd": "spins.check_psd",
    "spins.apply_rotation": "spins.apply_rotation",
    "probe.simulate_pulse": "probe.simulate_pulse",
    "sequence.run_campaign": "sequence.run_campaign",
    "sequence.write_dataset": "sequence.write_dataset",
    "sequence.read_dataset": "sequence.read_dataset",
    "analysis.analyze_dataset": "analysis.analyze_dataset",
    "analysis.cutoff_scan": "analysis.cutoff_scan",
    "analysis.sample_covariance": "analysis.sample_covariance",
    "analysis.conditional_covariance": "analysis.conditional_covariance",
    "analysis.squeezing_parameter": "analysis.squeezing_parameter",
    "analysis.select_shots": "analysis.select_shots",
    "analysis.fit_noise_scaling": "analysis.fit",
    "analysis.fit_snr_model": "analysis.fit",
    "analysis.write_report": "analysis.write_report",
    "analysis.write_noise_scaling_csv": "analysis.write_report",
    "analysis.write_cutoff_scan_csv": "analysis.write_report",
    "magnetometry.read_fid_csv": "magnetometry.read_fid_csv",
    "magnetometry.fit_fid": "magnetometry.fit_fid",
    "magnetometry.fid_signal": "magnetometry.fid_signal",
}


class Tracer:
    """Wraps the ``TRACED`` functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "singletsim"]
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"singletsim.{layer}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def summary(self, first: int = 0) -> dict:
        """Per span name: call count and summed self time, spans[first:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, start, end in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for sid in range(first, len(spans)):
            _, name, start, end = spans[sid]
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[sid]
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: id, parent, name, start_s, end_s."""
        with path.open("w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(summaries: list[dict]) -> dict:
    """Calls and median self time per ``TRACED`` metric.

    ``summaries`` holds one ``Tracer.summary`` per traced run.  Counts
    are taken from the first: the program is deterministic for a seed,
    so they repeat exactly.
    """
    metrics = sorted(set(TRACED.values()))
    calls = dict.fromkeys(metrics, 0)
    times = {m: [0.0] * len(summaries) for m in metrics}
    for i, summary in enumerate(summaries):
        for name, (count, self_time) in summary.items():
            if i == 0:
                calls[TRACED[name]] += count
            times[TRACED[name]][i] += self_time
    out = {}
    for m in metrics:
        out[f"{m}_calls"] = calls[m]
        out[f"{m}_s"] = statistics.median(times[m])
    return out
