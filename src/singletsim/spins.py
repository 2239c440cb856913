"""Collective-spin domain types, thermal states, and Larmor rotations.

The ensemble is modelled as a Gaussian over the collective spin vector:
a 3-component mean (units of spins, hbar = 1) and a 3x3 covariance
(spins^2), and nothing else.  The atoms are spin-1: an unpolarized
thermal ensemble of N of them has zero mean and per-component variance
(2/3) N, the state the simulation engine prepares
(``sequence._prepared_factor``).

Rotation convention
-------------------
``larmor_rotation_matrix`` rotates by the positive (right-handed) angle
gamma*|B|*t about B/|B|.  For a field along [1, 1, 1] one third of a
Larmor period maps e_z -> e_x, e_x -> e_y, e_y -> e_z, so a probe that
always reads the lab-z component sees the initial z, y, x components on
successive pulses.  This convention is load-bearing for the stroboscopic
schedule and is pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Default gyromagnetic ratio, rad s^-1 G^-1.  Chosen so that a 16.9 mG
# field gives an 85 us Larmor period (gamma/2pi ~ 696 kHz/G).
GYROMAGNETIC_RATIO = 4.374e6

# Default applied field: 16.9 mG along [1, 1, 1], gauss.
DEFAULT_FIELD_G = 16.9e-3

# Relative tolerances for covariance validation.
SYM_RTOL = 1e-9
PSD_RTOL = 1e-9


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {m.shape}")
    return m


def check_finite(**values) -> None:
    """Raise ``ValueError`` naming the first value that holds NaN or inf; None passes."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def check_symmetric(cov: np.ndarray, name: str = "cov") -> None:
    scale = max(float(np.max(np.abs(cov))), 1.0)
    if np.max(np.abs(cov - cov.T)) > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")


def check_psd(cov: np.ndarray, name: str = "cov") -> None:
    """Require eigenvalues >= -PSD_RTOL * trace (estimation slack)."""
    eigs = np.linalg.eigvalsh(cov)
    floor = -PSD_RTOL * max(float(np.trace(cov)), 1.0)
    if eigs.min() < floor:
        raise ValueError(f"{name} is not positive semidefinite (min eig {eigs.min():.3g})")


@dataclass(frozen=True)
class CollectiveSpinState:
    """Gaussian collective spin: ``mean`` (3,) in spins, ``cov`` (3, 3) in
    spins^2, symmetric positive semidefinite."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = _as_matrix(self.cov, "cov")
        check_symmetric(cov)
        check_psd(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MagneticField:
    """Static applied field (gauss) and gyromagnetic ratio (rad s^-1 G^-1)."""

    b: np.ndarray = field(
        default_factory=lambda: np.full(3, DEFAULT_FIELD_G / math.sqrt(3.0))
    )
    gyromagnetic_ratio: float = GYROMAGNETIC_RATIO

    def __post_init__(self):
        b = _as_vector(self.b, "b")
        check_finite(b=b, gyromagnetic_ratio=self.gyromagnetic_ratio)
        if self.gyromagnetic_ratio <= 0:
            raise ValueError("gyromagnetic_ratio must be positive")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gyromagnetic_ratio", float(self.gyromagnetic_ratio))

    @property
    def magnitude(self) -> float:
        # Plain products and sums: np.linalg.norm's BLAS dot takes its last bit from the kernel.
        x, y, z = self.b.tolist()
        return math.sqrt(x * x + y * y + z * z)


def larmor_rotation_matrix(field: MagneticField, t: float) -> np.ndarray:
    """Rotation of the collective spin after precessing for time t.

    Rodrigues rotation by angle gamma*|B|*t about B/|B| (see module
    docstring for the sign convention).  Returns the exact identity for
    t = 0 or zero field.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    b_mag = field.magnitude
    if t == 0.0 or b_mag == 0.0:
        return np.eye(3)
    n = field.b / b_mag
    theta = field.gyromagnetic_ratio * b_mag * t
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    # k @ k as plain products and sums in a fixed order: no BLAS call, so
    # the matrix does not depend on the BLAS kernel.
    k2 = k[:, :1] * k[0] + k[:, 1:2] * k[1] + k[:, 2:] * k[2]
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * k2


def apply_rotation(state: CollectiveSpinState, rotation) -> CollectiveSpinState:
    """Rigidly rotate a Gaussian state: mean -> R mean, cov -> R cov R^T."""
    r = _as_matrix(rotation, "rotation")
    if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
        raise ValueError("rotation matrix is not orthogonal within 1e-9")
    cov = r @ state.cov @ r.T
    cov = 0.5 * (cov + cov.T)
    return CollectiveSpinState(r @ state.mean, cov)


def larmor_period(field: MagneticField) -> float:
    """Larmor period 2*pi / (gamma |B|), seconds."""
    b_mag = field.magnitude
    if b_mag == 0.0:
        raise ValueError("zero field has an infinite Larmor period")
    return 2.0 * math.pi / (field.gyromagnetic_ratio * b_mag)
