"""A fixed reference computation that measures the host's current speed.

On a shared host the same code runs up to twice as fast at one moment
as at another, and the slow spells last from seconds to minutes.
``end_to_end`` in ``run.py`` times this kernel between the runs of the
workload and divides the pipeline's median time by the kernel's, so a
spell that slows both cancels.  The kernel never touches ``singletsim``:
its work is the same for every commit and every seed.

Its mix follows the pipeline's: a Python loop of 3x3 covariance updates
with a PSD check per step, as the simulator does per shot, and
bootstrap-resampled covariances with a pseudo-inverse, as the analysis
does per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel time, in seconds, that the normalised pipeline time is scaled
# to: ``pipeline_s`` reads as wall seconds on a host where one
# ``seconds()`` call takes REFERENCE_S.
REFERENCE_S = 1.0

STEPS = 6000
RESAMPLES = 300
ROUNDS = 6


@dataclass(frozen=True)
class _State:
    mean: np.ndarray
    cov: np.ndarray


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + np.eye(3)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    data = rng.normal(size=(1700, 6))
    acc = 0.0
    for _ in range(ROUNDS):
        state = _State(np.zeros(3), cov)
        for i in range(STEPS):
            if np.linalg.eigvalsh(state.cov)[0] < -1e-9:
                raise ArithmeticError("calibration covariance lost PSD")
            state = _State(rot @ state.mean + 1e-3, rot @ state.cov @ rot.T)
            acc += float(state.cov[2, 2]) / (1.0 + i)
        for _ in range(RESAMPLES):
            c = np.cov(data[rng.integers(0, len(data), len(data))], rowvar=False)
            acc += c[0, 1] - np.linalg.pinv(c[:3, :3])[0, 0]
    return acc


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
