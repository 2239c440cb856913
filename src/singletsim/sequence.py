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
not depend on evaluation order.

A campaign is returned as one ``ShotTable``, the columnar dataset every
later stage (CSV output and input, analysis) works on.
"""

from __future__ import annotations

import csv
import math
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

# The stroboscopic schedule: two rounds of three pulses a third of a
# Larmor period apart, each round reading z, y, x.
PULSES_PER_PERIOD = 3
N_PULSES = 2 * PULSES_PER_PERIOD

# How far each component of the field's unit vector may lie from
# 1/sqrt(3); ``SequenceConfig`` says why the field must be on that axis.
FIELD_AXIS_ATOL = 1e-6

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

    The field must point along [1, 1, 1] (within ``FIELD_AXIS_ATOL``):
    only there does a third of a Larmor period map z -> x -> y, so that
    the pulses read the components the (z, y, x) labels name.

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
    prep_noise_cov: np.ndarray = field(default_factory=_zeros33)
    prep_mean_offset: np.ndarray = field(default_factory=_zeros3)
    detector_noise_cov: np.ndarray = field(default_factory=_zeros33)
    period_diffusion: float = 0.0
    intra_pulse_rotation: bool = False

    def __post_init__(self):
        if self.field.magnitude == 0.0:
            raise ValueError("field must be non-zero: a zero field has no Larmor period")
        axis = self.field.b / self.field.magnitude
        if np.max(np.abs(axis - 1.0 / math.sqrt(3.0))) > FIELD_AXIS_ATOL:
            raise ValueError(
                f"field.b must point along [1, 1, 1] (unit vector within "
                f"{FIELD_AXIS_ATOL:g}), got direction {axis.round(6).tolist()}"
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


# ShotTable's columns besides ``f``, in field order, with their dtypes.
_TABLE_COLUMNS = (
    ("cycle_id", np.int64),
    ("seq_index", np.int64),
    ("is_reference", bool),
    ("n_atoms", float),
)


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Columnar shot dataset, one row per state preparation.

    The dataset shape shared by simulation, the CSV reader and writer
    and the analysis.  Columns are read-only arrays of one length; ``f``
    is (n, 6): the first-round readouts then the second-round ones, each
    in the (z, y, x) component order, and ``f1``/``f2`` are views of its
    halves.  A slice, boolean mask or index array gives a table; there
    is no row type, so rows are read from the columns.
    """

    cycle_id: np.ndarray
    seq_index: np.ndarray
    is_reference: np.ndarray
    n_atoms: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 2 or f.shape[1] != 6:
            raise ValueError("f must have shape (n, 6)")
        for name, dtype in _TABLE_COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (len(f),):
                raise ValueError(f"{name} must have shape ({len(f)},)")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if np.any(self.n_atoms[self.is_reference] != 0):
            raise ValueError("reference shots must have n_atoms = 0")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    @property
    def f1(self) -> np.ndarray:
        return self.f[:, :3]

    @property
    def f2(self) -> np.ndarray:
        return self.f[:, 3:]

    @property
    def atoms(self) -> ShotTable:
        """The non-reference rows, in order."""
        return self[~self.is_reference]

    @property
    def references(self) -> ShotTable:
        """The reference (no-atom) rows, in order."""
        return self[self.is_reference]

    def __len__(self) -> int:
        return len(self.f)

    def __getitem__(self, key) -> ShotTable:
        return ShotTable(*(getattr(self, name)[key] for name, _ in _TABLE_COLUMNS), self.f[key])


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
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


def draw_columns(cfg: SequenceConfig) -> int:
    """Standard normals one shot consumes (layout in the module docstring)."""
    return (
        9
        + (3 if cfg.has_detector_noise else 0)
        + (3 if cfg.period_diffusion > 0.0 else 0)
        + (N_PULSES if cfg.probe.light_backaction else 0)
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
    per shot in the documented layout.  Returns the (n, 6) readouts,
    first round then second, each in (z, y, x) order.
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

    t_step = larmor_period(cfg.field) / PULSES_PER_PERIOD
    r_step = larmor_rotation_matrix(cfg.field, t_step)
    r_mid = None
    if cfg.intra_pulse_rotation:
        # The pulse reads lab z of the spin rotated on to mid-pulse.
        r_mid = larmor_rotation_matrix(cfg.field, cfg.probe.pulse_duration / 2.0)

    f = np.empty((len(n_atoms), N_PULSES))
    for k in range(N_PULSES):
        if k > 0:
            spin = _row_products(r_step, spin)
        if k == PULSES_PER_PERIOD and walk is not None:
            spin = spin + walk
        value = spin[:, 2] if r_mid is None else _row_products(r_mid, spin)[:, 2]
        f[:, k] = value + detector[:, k % PULSES_PER_PERIOD] + eps[:, k]
        if kicks is not None:
            spin = _rotate_about_z(spin, kicks[:, k])
    return f


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
    f = _propagate(cfg, n_atoms, rng.standard_normal((n_shots, draw_columns(cfg))))
    return f[:, :3], f[:, 3:]


def _simulate_cycles(
    campaign: CampaignConfig, seq_cfg: SequenceConfig, cycle_ids
) -> ShotTable:
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
    seq_index = np.tile(np.arange(per_cycle), len(cycle_ids))
    return ShotTable(
        cycle_id=np.repeat(np.asarray(cycle_ids, dtype=np.int64), per_cycle),
        seq_index=seq_index,
        is_reference=seq_index >= n_seq,
        n_atoms=n_atoms,
        f=_propagate(seq_cfg, n_atoms, normals.reshape(len(n_atoms), -1)),
    )


def run_campaign(campaign: CampaignConfig, seq_cfg: SequenceConfig) -> ShotTable:
    """Simulate a full campaign in one vectorized pass.

    Output depends only on the configs: each cycle uses the substream
    (master_seed, cycle_id) and rows come in cycle order.
    """
    return _simulate_cycles(campaign, seq_cfg, range(campaign.n_cycles))


@dataclass(frozen=True)
class ReferenceNoise:
    """Read-out noise estimated from no-atom reference shots.

    ``gamma0``/``v0`` come from the second-round vectors, the round the
    witness is evaluated on.
    """

    gamma0: np.ndarray
    v0: float
    n_reference: int


def reference_variance(table: ShotTable) -> ReferenceNoise:
    """Covariance of the table's reference (no-atom) shots and its trace."""
    from .analysis import sample_covariance

    refs = table.references
    if len(refs) < 2:
        raise EstimationError("need at least 2 reference shots")
    gamma0 = sample_covariance(refs.f2)
    return ReferenceNoise(gamma0=gamma0, v0=float(np.trace(gamma0)), n_reference=len(refs))


def write_dataset(path, table: ShotTable) -> None:
    """Write a shot table as CSV with the fixed column schema.

    Floats are written as their ``repr`` (the shortest string that reads
    back to the same double), one row per shot in table order.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        writer.writerows(
            zip(
                table.cycle_id.tolist(),
                table.seq_index.tolist(),
                table.is_reference.astype(int).tolist(),
                table.n_atoms.tolist(),
                *table.f.T.tolist(),
            )
        )


_REFERENCE_TOKENS = {
    "0": False, "1": True, "false": False, "true": True, "False": False, "True": True
}


def read_dataset(path) -> ShotTable:
    """Read a shot CSV written by ``write_dataset``; a bad row raises ``SchemaError``.

    The error names ``path:line``.  ``is_reference`` must be one of 0, 1,
    true, false, True, False; ``cycle_id``/``seq_index`` must fit in 64
    bits; values must be finite, ``n_atoms``
    non-negative (zero on reference rows); and each (cycle_id, seq_index)
    may appear on one line only.
    """
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
        line_of: dict[tuple, int] = {}
        is_ref, values = [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(DATASET_COLUMNS):
                raise SchemaError(f"{path}:{i}: expected {len(DATASET_COLUMNS)} fields")
            try:
                key = (int(row[0]), int(row[1]))
                if max(map(abs, key)) >= 2**63:
                    raise ValueError("cycle_id and seq_index must fit in 64 bits")
                ref = _REFERENCE_TOKENS.get(row[2].strip())
                if ref is None:
                    raise ValueError(
                        f"is_reference must be one of {', '.join(_REFERENCE_TOKENS)}, "
                        f"got {row[2]!r}"
                    )
                shot = list(map(float, row[3:]))
                if not all(map(math.isfinite, shot)):
                    raise ValueError("non-finite n_atoms or readout")
                if shot[0] < 0:
                    raise ValueError("negative n_atoms")
                if ref and shot[0] != 0:
                    raise ValueError("reference shots must have n_atoms = 0")
            except ValueError as exc:
                raise SchemaError(f"{path}:{i}: {exc}") from None
            first = line_of.setdefault(key, i)
            if first != i:
                raise SchemaError(
                    f"{path}:{i}: duplicate (cycle_id, seq_index) = {key}, "
                    f"first on line {first}"
                )
            is_ref.append(ref)
            values.append(shot)
    keys = np.array(list(line_of), dtype=np.int64).reshape(-1, 2)
    values = np.array(values, dtype=float).reshape(-1, 7)
    return ShotTable(
        cycle_id=keys[:, 0],
        seq_index=keys[:, 1],
        is_reference=is_ref,
        n_atoms=values[:, 0],
        f=values[:, 1:],
    )
