"""Full-experiment orchestration: preparation, stroboscopic probing, campaigns.

One *sequence* prepares a spin sample and probes it with six pulses
spaced by a third of the Larmor period: the lab-z readout then visits
the initial-frame components (z, y, x) once per Larmor period, giving
two three-component measurements f1 and f2 of the same sample.  A
*campaign* repeats sequences over trap-loading cycles with geometric
atom loss and appends no-atom reference shots at the end of each cycle.

All shots go through one vectorized engine (``simulate_shots``; a
campaign is a single call over every shot).  Each shot's true spin
vector is drawn at preparation from the prepared Gaussian and
propagated deterministically through the rotations as a row of an
(n, 3) array; pulse outcomes are that vector's lab-z component plus
readout noise.  No Kalman estimator state is propagated: the posterior
never reaches a readout.  ``probe.simulate_pulse`` remains the analytic
single-pulse reference for the estimator.

Per-shot draw layout.  Each shot consumes one row of standard normals,
in this column order (bracketed blocks only when the branch is on):

    spin 3 | [detector 3] | round-1 readout noise 3 | [diffusion 3]
    | round-2 readout noise 3 | [back-action 6]

The detector block is drawn when ``detector_noise_cov`` is non-zero,
diffusion when ``period_diffusion`` > 0, and back-action (one lab-z
rotation angle per pulse, applied to the true spin after that pulse's
readout) when ``probe.light_backaction`` is set.  The full row is drawn
even where a term vanishes (reference shots, zero readout noise).

Campaigns are deterministic given the master seed: each cycle derives
an independent random substream from (master_seed, cycle_id), draws one
uniform for its atom-number jitter, then one block of rows for its
shots in ``seq_index`` order (atom shots, then references).  Results do
not depend on evaluation order or on the ``workers`` argument.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EstimationError, SchemaError
from .probe import ProbeConfig, backaction_sigma, readout_noise_sigma
from .spins import (
    PSD_RTOL,
    MagneticField,
    check_psd,
    check_symmetric,
    covariance_factor,
    larmor_period,
    larmor_rotation_matrix,
)

COMPONENTS = ("z", "y", "x")

DATASET_COLUMNS = (
    "cycle_id",
    "seq_index",
    "is_reference",
    "n_atoms",
    "f1_z",
    "f1_y",
    "f1_x",
    "f2_z",
    "f2_y",
    "f2_x",
)


def _zeros33() -> np.ndarray:
    return np.zeros((3, 3))


def _zeros3() -> np.ndarray:
    return np.zeros(3)


@dataclass(frozen=True)
class SequenceConfig:
    """Configuration of one six-pulse stroboscopic sequence.

    ``prep_noise_cov`` is atomic technical noise added to the thermal
    covariance at preparation (only when atoms are present); it must be
    symmetric and may be indefinite as long as the total stays PSD (the
    engine raises ``ConfigError`` at the smallest atom number where it
    does not).  ``detector_noise_cov`` is correlated detection-system
    noise (symmetric, PSD): one 3-vector drawn per shot and added to both
    rounds' readouts, so it inflates the measured covariances and
    cross-covariance equally and cancels under conditioning.
    ``period_diffusion`` (spins^2) is an isotropic random walk of the
    true spin between the two rounds, modelling imperfect QND
    repeatability.
    """

    field: MagneticField
    probe: ProbeConfig
    n_pulses: int = 6
    pulses_per_period: int = 3
    prep_noise_cov: np.ndarray = field(default_factory=_zeros33)
    prep_mean_offset: np.ndarray = field(default_factory=_zeros3)
    detector_noise_cov: np.ndarray = field(default_factory=_zeros33)
    period_diffusion: float = 0.0
    intra_pulse_rotation: bool = False

    def __post_init__(self):
        if self.pulses_per_period != 3 or self.n_pulses != 2 * self.pulses_per_period:
            raise ValueError(
                "the stroboscopic schedule requires pulses_per_period=3 and "
                "n_pulses=6 (two rounds of z, y, x)"
            )
        prep = np.asarray(self.prep_noise_cov, dtype=float)
        det = np.asarray(self.detector_noise_cov, dtype=float)
        offset = np.asarray(self.prep_mean_offset, dtype=float)
        if prep.shape != (3, 3) or det.shape != (3, 3) or offset.shape != (3,):
            raise ValueError("noise covariances must be 3x3 and the offset a 3-vector")
        check_symmetric(prep, "prep_noise_cov")
        check_symmetric(det, "detector_noise_cov")
        check_psd(det, "detector_noise_cov")
        if self.period_diffusion < 0:
            raise ValueError("period_diffusion must be non-negative")
        for arr in (prep, det, offset):
            arr.setflags(write=False)
        object.__setattr__(self, "prep_noise_cov", prep)
        object.__setattr__(self, "prep_mean_offset", offset)
        object.__setattr__(self, "detector_noise_cov", det)

    @property
    def has_detector_noise(self) -> bool:
        return bool(np.any(self.detector_noise_cov != 0.0))


@dataclass(frozen=True)
class ShotRecord:
    """One state preparation: two 3-component spin measurements.

    ``f1`` and ``f2`` hold the first- and second-round readouts in the
    fixed component order (z, y, x); ``components`` records that order
    so the analysis never re-derives the pulse schedule.
    """

    f1: np.ndarray
    f2: np.ndarray
    n_atoms: float
    is_reference: bool = False
    cycle_id: int = 0
    seq_index: int = 0
    components: tuple = COMPONENTS

    def __post_init__(self):
        f1 = np.asarray(self.f1, dtype=float)
        f2 = np.asarray(self.f2, dtype=float)
        if f1.shape != (3,) or f2.shape != (3,):
            raise ValueError("f1 and f2 must be 3-vectors")
        if self.is_reference and self.n_atoms != 0:
            raise ValueError("reference shots must have n_atoms = 0")
        f1.setflags(write=False)
        f2.setflags(write=False)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)


@dataclass(frozen=True)
class CampaignConfig:
    """Trap-loading campaign structure.

    Atom numbers start each cycle at ``initial_atoms`` jittered by a
    uniform +/- ``atom_jitter`` fraction, then decay geometrically by
    ``loss_fraction`` per sequence.
    """

    n_cycles: int = 602
    sequences_per_cycle: int = 12
    loss_fraction: float = 0.15
    initial_atoms: float = 1.5e6
    reference_shots_per_cycle: int = 2
    master_seed: int = 0
    atom_jitter: float = 0.05

    def __post_init__(self):
        for name in ("n_cycles", "sequences_per_cycle", "reference_shots_per_cycle"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ValueError("loss_fraction must be in [0, 1)")
        if self.n_cycles < 1 or self.sequences_per_cycle < 1:
            raise ValueError("n_cycles and sequences_per_cycle must be positive")
        if self.initial_atoms < 0:
            raise ValueError("initial_atoms must be non-negative")
        if self.reference_shots_per_cycle < 0:
            raise ValueError("reference_shots_per_cycle must be non-negative")
        if not 0.0 <= self.atom_jitter < 1.0:
            raise ValueError("atom_jitter must be in [0, 1)")


def draw_columns(cfg: SequenceConfig) -> int:
    """Standard normals one shot consumes (layout in the module docstring)."""
    return (
        9
        + (3 if cfg.has_detector_noise else 0)
        + (3 if cfg.period_diffusion > 0.0 else 0)
        + (cfg.n_pulses if cfg.probe.light_backaction else 0)
    )


def _prepared_factor(cfg: SequenceConfig, n_atoms: np.ndarray) -> np.ndarray:
    """Per-shot factors L with L L^T = prepared covariance, shape (n, 3, 3).

    The prepared covariance is the thermal (2/3) N I plus
    ``prep_noise_cov`` (atoms only).  All shots are factored by one
    batched ``eigh``, whose eigenvalues also serve as the PSD check.
    """
    cov = np.zeros((len(n_atoms), 3, 3))
    diag = np.arange(3)
    cov[:, diag, diag] = (2.0 / 3.0 * n_atoms)[:, None]
    cov[n_atoms > 0] += cfg.prep_noise_cov
    w, v = np.linalg.eigh(cov)
    floor = -PSD_RTOL * np.maximum(np.trace(cov, axis1=1, axis2=2), 1.0)
    bad = np.flatnonzero(w[:, 0] < floor)
    if bad.size:
        worst = bad[np.argmin(n_atoms[bad])]
        raise ConfigError(
            "sequence.prep_noise_cov: prepared covariance is not positive "
            f"semidefinite at n_atoms = {n_atoms[worst]:.6g} "
            f"(min eig {w[worst, 0]:.3g})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


def _row_products(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m @ row`` for every row, ``m`` (3, 3) or one per row (n, 3, 3).

    A stacked matmul multiplies row by row, so each shot's arithmetic is
    that of a single 3x3 product whatever the batch size: a one-cycle
    rerun reproduces its shots bit for bit.
    """
    return (m @ rows[:, :, None])[:, :, 0]


def _rotate_about_z(spin: np.ndarray, angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    x, y = spin[:, 0], spin[:, 1]
    return np.column_stack([c * x - s * y, s * x + c * y, spin[:, 2]])


def _propagate(
    cfg: SequenceConfig, n_atoms: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The simulation engine: readouts of shots with per-shot atom numbers.

    ``normals`` holds one row of ``draw_columns(cfg)`` standard normals
    per shot in the documented layout.  Returns (f1, f2), each (n, 3).
    """
    if np.any(n_atoms < 0):
        raise ValueError("n_atoms must be non-negative")
    sigma = readout_noise_sigma(cfg.probe)
    z = iter(np.hsplit(normals, range(3, normals.shape[1], 3)))

    factor = _prepared_factor(cfg, n_atoms)
    spin = _row_products(factor, next(z))
    spin[n_atoms > 0] += cfg.prep_mean_offset
    detector = np.zeros((len(n_atoms), 3))
    if cfg.has_detector_noise:
        detector = _row_products(covariance_factor(cfg.detector_noise_cov), next(z))
    eps1 = sigma * next(z)
    walk = np.sqrt(cfg.period_diffusion) * next(z) if cfg.period_diffusion > 0.0 else None
    eps = np.hstack([eps1, sigma * next(z)])
    kicks = None
    if cfg.probe.light_backaction:
        kicks = backaction_sigma(cfg.probe) * np.hstack([next(z), next(z)])

    t_step = larmor_period(cfg.field) / cfg.pulses_per_period
    r_step = larmor_rotation_matrix(cfg.field, t_step)
    r_mid = None
    if cfg.intra_pulse_rotation:
        # The pulse reads lab z of the spin rotated on to mid-pulse.
        r_mid = larmor_rotation_matrix(cfg.field, cfg.probe.pulse_duration / 2.0)

    f = np.empty((len(n_atoms), cfg.n_pulses))
    for k in range(cfg.n_pulses):
        if k > 0:
            spin = _row_products(r_step, spin)
        if k == cfg.pulses_per_period and walk is not None:
            spin = spin + walk
        value = spin[:, 2] if r_mid is None else _row_products(r_mid, spin)[:, 2]
        f[:, k] = value + detector[:, k % cfg.pulses_per_period] + eps[:, k]
        if kicks is not None:
            spin = _rotate_about_z(spin, kicks[:, k])
    return f[:, :3], f[:, 3:]


def simulate_shots(
    cfg: SequenceConfig,
    n_atoms,
    n_shots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of independent sequences.

    ``n_atoms`` is a scalar shared by all shots or one atom number per
    shot.  Draws one ``(n_shots, draw_columns(cfg))`` block of standard
    normals from ``rng`` and returns (f1, f2) arrays of shape
    (n_shots, 3) with components in the usual (z, y, x) order.
    """
    n_atoms = np.broadcast_to(np.asarray(n_atoms, dtype=float), (n_shots,))
    return _propagate(cfg, n_atoms, rng.standard_normal((n_shots, draw_columns(cfg))))


def run_sequence(
    cfg: SequenceConfig,
    n_atoms: float,
    rng: np.random.Generator,
    cycle_id: int = 0,
    seq_index: int = 0,
    is_reference: bool = False,
) -> ShotRecord:
    """Simulate one preparation followed by six stroboscopic pulses.

    A one-shot call of ``simulate_shots``.
    """
    f1, f2 = simulate_shots(cfg, n_atoms, 1, rng)
    return ShotRecord(
        f1=f1[0],
        f2=f2[0],
        n_atoms=n_atoms,
        is_reference=is_reference,
        cycle_id=cycle_id,
        seq_index=seq_index,
    )


def _simulate_cycles(
    campaign: CampaignConfig, seq_cfg: SequenceConfig, cycle_ids
) -> list[ShotRecord]:
    """Shots of the given loading cycles, each on its own random substream.

    Each cycle draws its jitter and its block of normals from
    (master_seed, cycle_id); all shots then go through the engine at once.
    """
    n_seq = campaign.sequences_per_cycle
    per_cycle = n_seq + campaign.reference_shots_per_cycle
    decay = np.array([(1.0 - campaign.loss_fraction) ** s for s in range(n_seq)])
    n_atoms = np.zeros((len(cycle_ids), per_cycle))
    normals = np.empty((len(cycle_ids), per_cycle, draw_columns(seq_cfg)))
    for i, cycle_id in enumerate(cycle_ids):
        seed = np.random.SeedSequence(campaign.master_seed, spawn_key=(cycle_id,))
        rng = np.random.default_rng(seed)
        n0 = campaign.initial_atoms * (1.0 + campaign.atom_jitter * rng.uniform(-1.0, 1.0))
        n_atoms[i, :n_seq] = n0 * decay
        rng.standard_normal(out=normals[i])
    n_atoms = n_atoms.reshape(-1)
    f1, f2 = _propagate(seq_cfg, n_atoms, normals.reshape(len(n_atoms), -1))
    cycles = [c for c in cycle_ids for _ in range(per_cycle)]
    seq_index = list(range(per_cycle)) * len(cycle_ids)
    return [
        ShotRecord(f1=a, f2=b, n_atoms=n, is_reference=s >= n_seq, cycle_id=c, seq_index=s)
        for a, b, n, c, s in zip(f1, f2, n_atoms.tolist(), cycles, seq_index)
    ]


def run_campaign(
    campaign: CampaignConfig, seq_cfg: SequenceConfig, workers: int = 1
) -> list[ShotRecord]:
    """Simulate a full campaign in one vectorized pass.

    Output depends only on the configs: each cycle uses the substream
    (master_seed, cycle_id) and records come in cycle order.
    ``workers`` is accepted for compatibility and ignored; the whole
    campaign is a few tens of milliseconds of array work.
    """
    return _simulate_cycles(campaign, seq_cfg, range(campaign.n_cycles))


@dataclass(frozen=True)
class ReferenceNoise:
    """Read-out noise estimated from no-atom reference shots.

    ``gamma0``/``v0`` come from the second-round vectors (the round the
    witness is evaluated on); the first-round estimates are kept for
    cross-checks.
    """

    gamma0: np.ndarray
    gamma0_first: np.ndarray
    v0: float
    v0_first: float
    n_reference: int


def reference_variance(records) -> ReferenceNoise:
    """Covariance of the reference (no-atom) shots and its trace."""
    from .analysis import sample_covariance

    refs = [r for r in records if r.is_reference]
    if len(refs) < 2:
        raise EstimationError("need at least 2 reference shots")
    f1 = np.array([r.f1 for r in refs])
    f2 = np.array([r.f2 for r in refs])
    gamma0 = sample_covariance(f2)
    gamma0_first = sample_covariance(f1)
    return ReferenceNoise(
        gamma0=gamma0,
        gamma0_first=gamma0_first,
        v0=float(np.trace(gamma0)),
        v0_first=float(np.trace(gamma0_first)),
        n_reference=len(refs),
    )


def write_dataset(path, records) -> None:
    """Write shots as CSV with the fixed column schema."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.cycle_id,
                    r.seq_index,
                    int(r.is_reference),
                    repr(float(r.n_atoms)),
                    *(repr(float(v)) for v in r.f1),
                    *(repr(float(v)) for v in r.f2),
                ]
            )


def read_dataset(path) -> list[ShotRecord]:
    """Read a shot CSV written by ``write_dataset``; a bad row raises ``SchemaError``."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty dataset file") from None
        if tuple(header) != DATASET_COLUMNS:
            raise SchemaError(
                f"{path}: bad columns {header}, expected {list(DATASET_COLUMNS)}"
            )
        records = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(DATASET_COLUMNS):
                raise SchemaError(f"{path}:{i}: expected {len(DATASET_COLUMNS)} fields")
            try:
                is_ref = row[2].strip() in ("1", "True", "true")
                values = [float(v) for v in row[3:10]]
                if not all(map(math.isfinite, values)):
                    raise ValueError("non-finite n_atoms or readout")
                if values[0] < 0:
                    raise ValueError("negative n_atoms")
                records.append(
                    ShotRecord(
                        f1=np.array(values[1:4]),
                        f2=np.array(values[4:7]),
                        n_atoms=values[0],
                        is_reference=is_ref,
                        cycle_id=int(row[0]),
                        seq_index=int(row[1]),
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{path}:{i}: {exc}") from None
    return records
