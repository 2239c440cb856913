"""Faraday-rotation QND measurement model.

A linearly polarized pulse of n_photons photons picks up a polarization
rotation phi = g1 * F_z from the on-axis collective spin component, so a
shot-noise-limited polarimeter reads F_z with noise

    sigma_ro = 1 / (g1 * sqrt(b * n_photons))     [spins]

where b in (0, 1] is a single scalar detection-efficiency factor that
scales the information rate (equivalently inflates the readout variance
by 1/b).  Conditioning a Gaussian prior on such a measurement is a
one-row Kalman update; for a thermal state it reduces the measured
component's variance by 1/(1 + zeta_eff) with

    zeta = (2/3) g1^2 n_photons n_atoms,     zeta_eff = b * zeta.

The measurement leaves the measured spin component itself untouched
(QND): only the estimator's uncertainty shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, FitError
from .lsq import parameter_covariance
from .spins import CollectiveSpinState, apply_rotation, check_finite

E_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ProbeConfig:
    """Probe-pulse parameters.

    Attributes
    ----------
    g1 : float
        Vector (Faraday) coupling, radians per spin.
    n_photons : float
        Photons per pulse.
    pulse_duration : float
        Pulse length tau, seconds.
    efficiency : float
        Detection-efficiency factor b in (0, 1].
    readout_noise_override : float or None
        If set, use this readout sigma (spins) instead of the
        shot-noise formula.  Lets the measured sensitivity of a real
        apparatus be plugged in directly.
    light_backaction : bool
        If True, each probe pulse rotates the spin about lab z by a
        random angle of std g1*sqrt(n_photons)/2 (``backaction_sigma``).
        The simulation engine applies it to the true spin after each
        pulse's readout, so it scrambles the transverse components seen
        by later pulses; ``simulate_pulse`` applies it to the posterior.
        Off by default: with an unpolarized ensemble it is second order.
    """

    g1: float = 9.0e-8
    n_photons: float = 2.8e8
    pulse_duration: float = 1e-6
    efficiency: float = 0.75
    readout_noise_override: float | None = None
    light_backaction: bool = False

    def __post_init__(self):
        check_finite(g1=self.g1, n_photons=self.n_photons, pulse_duration=self.pulse_duration)
        check_finite(readout_noise_override=self.readout_noise_override)
        if self.g1 <= 0:
            raise ValueError("g1 must be positive")
        if self.n_photons <= 0:
            raise ValueError("n_photons must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.pulse_duration < 0:
            raise ValueError("pulse_duration must be non-negative")
        if self.readout_noise_override is not None and self.readout_noise_override < 0:
            raise ValueError("readout_noise_override must be non-negative")


@dataclass(frozen=True)
class PulseOutcome:
    """One probe pulse: the measured lab-z spin value (spins) and the
    back-action rotation about z it applied (radians; 0 unless
    ``light_backaction``).  The Faraday angle is g1 * measured_value.
    """

    measured_value: float
    backaction_angle: float = 0.0


def readout_noise_sigma(probe: ProbeConfig) -> float:
    """Readout sensitivity in spins (standard deviation per pulse)."""
    if probe.readout_noise_override is not None:
        return probe.readout_noise_override
    return 1.0 / (probe.g1 * math.sqrt(probe.efficiency * probe.n_photons))


def backaction_sigma(probe: ProbeConfig) -> float:
    """Std of the per-pulse back-action rotation angle about z, radians.

    The probe's S_z shot noise, sqrt(n_photons)/2, times the coupling g1.
    """
    return probe.g1 * math.sqrt(probe.n_photons) / 2.0


def snr(probe: ProbeConfig, n_atoms: float) -> float:
    """Ideal measurement SNR zeta = (2/3) g1^2 n_photons n_atoms.

    The detection efficiency is excluded; the effective SNR is
    ``probe.efficiency * snr(probe, n_atoms)``.
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be non-negative")
    return (2.0 / 3.0) * probe.g1**2 * probe.n_photons * n_atoms


def simulate_pulse(
    state: CollectiveSpinState,
    probe: ProbeConfig,
    rng: np.random.Generator,
) -> tuple[PulseOutcome, CollectiveSpinState]:
    """One QND pulse reading lab z: the sequential Kalman reference.

    The measured value is true_z + eps with eps ~ N(0, sigma_ro^2) and
    true_z drawn from the state's z marginal.  The returned state is the
    Kalman-conditioned posterior (gain
    K = cov e_z / (e_z' cov e_z + sigma_ro^2)).
    """
    sigma = readout_noise_sigma(probe)
    var_z = float(state.cov[2, 2])

    true_z = float(state.mean[2])
    if var_z > 0.0:
        true_z += math.sqrt(var_z) * rng.standard_normal()

    total = var_z + sigma**2
    if total == 0.0:
        return PulseOutcome(true_z), state

    measured = true_z + sigma * rng.standard_normal()

    gain = state.cov @ E_Z / total
    mean = state.mean + gain * (measured - state.mean[2])
    cov = state.cov - np.outer(gain, state.cov[2])
    cov = 0.5 * (cov + cov.T)
    posterior = CollectiveSpinState(mean, cov)

    backaction = 0.0
    if probe.light_backaction:
        backaction = backaction_sigma(probe) * rng.standard_normal()
        c, s = math.cos(backaction), math.sin(backaction)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        posterior = apply_rotation(posterior, rz)

    return PulseOutcome(measured, backaction), posterior


def calibrate_g1(pairs) -> tuple[float, float]:
    """Least-squares calibration of g1 from (phi, n_atoms) pairs.

    Fits the through-origin slope of phi = g1 * n_atoms (spin-1 atoms).
    Returns (slope, standard error of the slope), the stderr from
    ``lsq.parameter_covariance`` with n_atoms as the one-column design.
    A sum of squared atom numbers that overflows or underflows to 0, or
    a slope or stderr that is not finite, raises ``CalibrationError``.
    """
    data = np.asarray(list(pairs), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise CalibrationError("need at least 2 (phi, n_atoms) pairs")
    phi, x = data[:, 0], np.ascontiguousarray(data[:, 1])  # a strided x @ x sums in another order
    if np.all(x == x[0]):
        raise CalibrationError("all n_atoms identical: slope is unconstrained")
    # Huge or tiny values overflow or underflow the sums; the check below
    # reports that, so numpy's warnings would only be noise.
    with np.errstate(all="ignore"):
        sxx = x @ x
        slope = float((x @ phi) / sxx)
        resid = phi - slope * x
    try:
        if 0.0 < sxx < math.inf and math.isfinite(slope):
            return slope, math.sqrt(parameter_covariance(x[:, None], resid)[0, 0])
    except FitError:
        pass
    raise CalibrationError("calibration: the sums left the float range")
