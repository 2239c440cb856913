"""Full-experiment orchestration: preparation, stroboscopic probing, campaigns.

One *sequence* prepares a spin sample and probes it with six pulses
spaced by a third of the Larmor period: the lab-z readout then visits
the initial-frame components (z, y, x) once per Larmor period, giving
two three-component measurements f1 and f2 of the same sample.  A
*campaign* repeats sequences over trap-loading cycles with geometric
atom loss and appends no-atom reference shots at the end of each cycle.

All shots go through one vectorized engine, ``_propagate``: a campaign
is a single call over every shot.
Each shot's true spin vector is drawn at preparation from the prepared
Gaussian and propagated deterministically through the rotations as
its three coordinate columns, one array per component over all shots;
pulse outcomes are that vector's lab-z component plus readout noise.
Every 3x3 map is plain numpy products and sums in a fixed order
(``_lincomb``) and every covariance factor elementwise (``_cholesky3``
per shot, ``_pivoted_factor`` for the detector matrix), never a BLAS or
LAPACK call, so a shot's bits depend neither on the batch it runs in nor
on the BLAS kernel.  Only numpy's ``cos``/``sin`` of the back-action
angles can still move last bits between machines.  No Kalman estimator
state is propagated: the posterior never reaches a readout.
``probe.simulate_pulse`` remains the analytic single-pulse reference
for the estimator.

Exact moments come from the same engine, not from a separate closed
form.  Without back-action a shot's readouts are affine in its row of
standard normals, so ``engine_covariance`` runs the engine on the zero
row and the unit rows and returns the exact (6, 6) covariance of
(f1, f2).

Per-shot draw layout.  Each shot consumes one row of standard normals,
in this column order (bracketed blocks only when the branch is on):

    spin 3 | [detector 3] | round-1 readout noise 3 | [diffusion 3]
    | round-2 readout noise 3 | [back-action 6]

An atom shot's spin is L z plus ``prep_mean_offset``, with z its spin
block and L the Cholesky factor of its own prepared covariance
(2/3) N I + ``prep_noise_cov``.  A reference shot's spin is 0.

The detector block, M z with M = P^T L the pivoted Cholesky factor of
``detector_noise_cov`` (``_pivoted_factor``), is drawn when that matrix
is non-zero, diffusion when ``period_diffusion`` > 0, and back-action
(one lab-z rotation angle per pulse, applied to the true spin after that
pulse's readout) when ``probe.light_backaction`` is set.  The full row
is drawn even where a term vanishes (reference shots, zero readout
noise).

Campaigns are deterministic given the master seed.  One generator,
``np.random.default_rng(master_seed)``, serves the whole campaign: it
draws every cycle's atom-number jitter first (one ``uniform(-1, 1)``
per cycle, in cycle order), then one row of normals per shot in row
order (cycle, then ``seq_index``: atom shots, then references).  Every
shot then goes through the engine at once, whose arithmetic does not
depend on the batch.

A campaign is returned as one ``ShotTable``, the columnar dataset every
later stage (CSV output and input, analysis) works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .fileio import read_table, write_csv
from .probe import ProbeConfig, backaction_sigma, readout_noise_sigma
from .spins import (
    PSD_RTOL,
    MagneticField,
    check_finite,
    check_psd,
    check_symmetric,
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

# The most loading cycles a config may ask for: far above any campaign
# that fits in memory, so an absurd count is refused before anything
# is allocated.
MAX_CYCLES = 2**32

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

    Axis orders differ: ``prep_noise_cov`` and ``prep_mean_offset`` are in
    the prep frame (x, y, z), ``detector_noise_cov`` in readout order
    (z, y, x), so ``diag(v, 0, 0)`` inflates the ``f*_x`` columns as prep
    noise but the ``f*_z`` columns as detector noise.
    """

    field: MagneticField
    probe: ProbeConfig
    prep_noise_cov: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    prep_mean_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    detector_noise_cov: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
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
        check_finite(prep_noise_cov=prep, prep_mean_offset=offset, detector_noise_cov=det)
        check_finite(period_diffusion=self.period_diffusion)
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
    is no row type, so rows are read from the columns.  A column may be
    the array the caller passed, without a copy: a table is immutable
    only while nobody writes to that array, since what is derived from
    it (``atoms``, ``references``, the analysis's selection state) is
    built once per table.
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

    @cached_property
    def atoms(self) -> ShotTable:
        """The non-reference rows, in order; built once per table."""
        return self[~self.is_reference]

    @cached_property
    def references(self) -> ShotTable:
        """The reference (no-atom) rows, in order; built once per table."""
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
        check_finite(initial_atoms=self.initial_atoms)
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ValueError("loss_fraction must be in [0, 1)")
        if self.n_cycles < 1 or self.sequences_per_cycle < 1:
            raise ValueError("n_cycles and sequences_per_cycle must be positive")
        if self.n_cycles > MAX_CYCLES:
            raise ValueError(f"n_cycles must be at most 2**32 = {MAX_CYCLES}")
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


def _cholesky3(a) -> list:
    """Lower Cholesky factor L (L L^T = a) of a symmetric PSD 3x3 matrix, as rows.

    Entries are floats or (n,) columns.  Elementwise ``sqrt``, ``*``, ``/``
    and ``-`` only, which IEEE rounds alike on every CPU and in any batch;
    a pivot at or below zero gives a zero column, as a singular PSD matrix needs.
    """
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = a
    l00 = np.sqrt(np.maximum(a00, 0.0))
    d0 = np.where(l00 > 0.0, l00, np.inf)
    l10, l20 = a10 / d0, a20 / d0
    l11 = np.sqrt(np.maximum(a11 - l10 * l10, 0.0))
    l21 = (a21 - l20 * l10) / np.where(l11 > 0.0, l11, np.inf)
    l22 = np.sqrt(np.maximum(a22 - l20 * l20 - l21 * l21, 0.0))
    return [[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, l22]]


def _pivoted_factor(a) -> list:
    """A factor M = P^T L (M M^T = a) of a constant symmetric PSD 3x3 matrix, as rows.

    Cholesky with symmetric diagonal pivoting: each step takes the index
    whose remaining diagonal is largest (ties to the lower index), so a
    singular matrix's vanishing pivots come last and divide nothing.  Row
    i of M holds index i's coefficients on the steps, in step order.  The
    arithmetic is ``_cholesky3``'s, so where no step reorders the indices
    M is its factor to the bit.
    """
    rows = [[], [], []]
    rest = [0, 1, 2]
    while rest:
        residual = []
        for i in rest:
            r = a[i][i]
            for entry in rows[i]:
                r = r - entry * entry
            residual.append(r)
        j = residual.index(max(residual))
        k = rest.pop(j)
        pivot = math.sqrt(max(residual[j], 0.0))
        divisor = pivot if pivot > 0.0 else math.inf
        column = [0.0, 0.0, 0.0]
        column[k] = pivot
        for i in rest:
            r = a[i][k]
            for entry, entry_k in zip(rows[i], rows[k]):
                r = r - entry * entry_k
            column[i] = r / divisor
        for i in range(3):
            rows[i].append(column[i])
    return rows


def _prepared_factor(cfg: SequenceConfig, n_atoms: np.ndarray) -> list:
    """Per-shot factor of the prepared covariance (2/3) N I + P, zero for references.

    Raises ``ConfigError`` at the smallest atom number where that is not
    PSD, by its eigenvalues 2N/3 + eigvalsh(P): LAPACK only checks the config.
    """
    atoms = n_atoms > 0
    thermal = 2.0 / 3.0 * n_atoms
    w = np.where(atoms, thermal + np.linalg.eigvalsh(cfg.prep_noise_cov)[:, None], 0.0)
    floor = -PSD_RTOL * np.maximum(w.sum(axis=0), 1.0)
    bad = np.flatnonzero(w[0] < floor)
    if bad.size:
        worst = bad[np.argmin(n_atoms[bad])]
        raise ConfigError(
            "sequence.prep_noise_cov: prepared covariance is not positive "
            f"semidefinite at n_atoms = {n_atoms[worst]:.6g} "
            f"(min eig {w[0, worst]:.3g})"
        )
    cov = cfg.prep_noise_cov.tolist()
    for i in range(3):
        cov[i][i] = thermal + cov[i][i]
    return _cholesky3([[np.where(atoms, entry, 0.0) for entry in row] for row in cov])


def _lincomb(row, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``row[0]*x + row[1]*y + row[2]*z`` for the columns (x, y, z), in that order.

    Separate numpy products and sums, so no fused multiply-add enters and
    every shot's arithmetic is the same whatever the batch size or the
    BLAS kernel: a shot's readouts depend only on its own row of normals.
    """
    return row[0] * x + row[1] * y + row[2] * z


def _map(m, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple:
    """``m @ v`` for every shot's v = (x, y, z); ``m``'s rows hold floats or (n,) columns."""
    return tuple(_lincomb(row, x, y, z) for row in m)


def _propagate(cfg: SequenceConfig, n_atoms: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The simulation engine: readouts of shots with per-shot atom numbers.

    ``normals`` holds one row of ``draw_columns(cfg)`` standard normals
    per shot in the documented layout.  Returns the (n, 6) readouts,
    first round then second, each in (z, y, x) order.  The spin is kept
    as its three coordinate columns (``_map``).
    """
    if np.any(n_atoms < 0):
        raise ValueError("n_atoms must be non-negative")
    sigma = readout_noise_sigma(cfg.probe)
    # Each block is a (3, n) row view of normals.T: three draw columns.
    z = iter(np.split(normals.T, range(3, normals.shape[1], 3)))

    spin = _map(_prepared_factor(cfg, n_atoms), *next(z))
    atoms = n_atoms > 0
    for column, offset in zip(spin, cfg.prep_mean_offset.tolist()):
        column[atoms] += offset
    detector = (0.0, 0.0, 0.0)
    if cfg.has_detector_noise:
        detector = _map(_pivoted_factor(cfg.detector_noise_cov.tolist()), *next(z))
    eps1 = sigma * next(z)
    walk = np.sqrt(cfg.period_diffusion) * next(z) if cfg.period_diffusion > 0.0 else None
    eps = (*eps1, *(sigma * next(z)))
    kicks = None
    if cfg.probe.light_backaction:
        kicks = backaction_sigma(cfg.probe) * np.vstack([next(z), next(z)])

    t_step = larmor_period(cfg.field) / PULSES_PER_PERIOD
    r_step = larmor_rotation_matrix(cfg.field, t_step).tolist()
    mid_z = None
    if cfg.intra_pulse_rotation:
        # The pulse reads lab z of the spin rotated on to mid-pulse.
        mid_z = larmor_rotation_matrix(cfg.field, cfg.probe.pulse_duration / 2.0)[2].tolist()

    f = np.empty((len(n_atoms), N_PULSES))
    for k in range(N_PULSES):
        if k > 0:
            spin = _map(r_step, *spin)
        if k == PULSES_PER_PERIOD and walk is not None:
            spin = tuple(column + step for column, step in zip(spin, walk))
        value = spin[2] if mid_z is None else _lincomb(mid_z, *spin)
        f[:, k] = value + detector[k % PULSES_PER_PERIOD] + eps[k]
        if kicks is not None:
            c, s = np.cos(kicks[k]), np.sin(kicks[k])
            x, y, spin_z = spin
            spin = (c * x - s * y, s * x + c * y, spin_z)
    return f


def engine_covariance(cfg: SequenceConfig, n_atoms: float) -> np.ndarray:
    """Exact (6, 6) covariance of one shot's readouts (f1, f2) at ``n_atoms``.

    Rows and columns are the readouts in ``ShotTable.f`` order: first
    round then second, each (z, y, x).  The engine is affine in its row
    of normals, so its shots on the zero row and the k unit rows of
    ``draw_columns(cfg)`` give the offset (``prep_mean_offset``) and the
    (k, 6) map F, and the covariance is F^T F.  With
    ``probe.light_backaction`` the readouts are not linear in the draws,
    and this raises ``ValueError``.
    """
    if cfg.probe.light_backaction:
        raise ValueError(
            "probe.light_backaction makes the readouts nonlinear in the draws: "
            "no exact covariance"
        )
    k = draw_columns(cfg)
    f = _propagate(cfg, np.full(k + 1, float(n_atoms)), np.vstack([np.zeros(k), np.eye(k)]))
    jac = f[1:] - f[0]
    return jac.T @ jac


def run_campaign(campaign: CampaignConfig, seq_cfg: SequenceConfig) -> ShotTable:
    """Simulate a full campaign in one vectorized pass.

    Output depends only on the configs: one generator seeded with
    ``master_seed`` draws every cycle's jitter, then one row of normals
    per shot in row order, as the module docstring states.
    """
    n_cycles, n_seq = campaign.n_cycles, campaign.sequences_per_cycle
    per_cycle = n_seq + campaign.reference_shots_per_cycle
    rng = np.random.default_rng(campaign.master_seed)
    jitter = rng.uniform(-1.0, 1.0, n_cycles)
    normals = rng.standard_normal((n_cycles * per_cycle, draw_columns(seq_cfg)))
    decay = np.array([(1.0 - campaign.loss_fraction) ** s for s in range(n_seq)])
    n0 = campaign.initial_atoms * (1.0 + campaign.atom_jitter * jitter)
    n_atoms = np.zeros((n_cycles, per_cycle))
    n_atoms[:, :n_seq] = n0[:, None] * decay
    n_atoms = n_atoms.reshape(-1)
    seq_index = np.tile(np.arange(per_cycle), n_cycles)
    return ShotTable(
        cycle_id=np.repeat(np.arange(n_cycles, dtype=np.int64), per_cycle),
        seq_index=seq_index,
        is_reference=seq_index >= n_seq,
        n_atoms=n_atoms,
        f=_propagate(seq_cfg, n_atoms, normals),
    )


def write_dataset(path, table: ShotTable) -> None:
    """Write a shot table as CSV with the fixed column schema.

    One row per shot in table order, through ``fileio.write_csv``.
    """
    rows = zip(
        table.cycle_id.tolist(),
        table.seq_index.tolist(),
        table.is_reference.astype(int).tolist(),
        table.n_atoms.tolist(),
        *table.f.T.tolist(),
    )
    write_csv(path, DATASET_COLUMNS, rows)


# Each accepted is_reference token (without surrounding whitespace) and its value.
_REFERENCE_TOKENS = {"0": 0, "1": 1, "false": 0, "true": 1, "False": 0, "True": 1}

# The shot CSV's columns as read; is_reference is read as text.
_DATASET_DTYPE = np.dtype(
    [(name, np.int64) for name in DATASET_COLUMNS[:2]]
    + [(DATASET_COLUMNS[2], object)]
    + [(name, float) for name in DATASET_COLUMNS[3:]]
)


def _reference(text) -> np.ndarray:
    """Each is_reference token's value, 1 or 0, or -1 where it is not accepted."""
    ref = np.where(text == "1", 1, np.where(text == "0", 0, -1))
    odd = np.flatnonzero(ref < 0)  # only these are stripped and looked up
    ref[odd] = [_REFERENCE_TOKENS.get(t.strip(), -1) for t in text[odd].tolist()]
    return ref


def _shot_rules(rows, ref):
    """The shot CSV's row rules, in the order each row is checked.

    ``ref`` is ``_reference`` of the rows' is_reference column.
    """
    text = rows["is_reference"]
    accepted = ", ".join(_REFERENCE_TOKENS)
    yield ref < 0, lambda i, _: f"is_reference must be one of {accepted}, got {text[i]!r}"
    values = np.column_stack([rows[name] for name in DATASET_COLUMNS[3:]])
    yield ~np.isfinite(values).all(axis=1), "non-finite n_atoms or readout"
    n_atoms = rows["n_atoms"]
    yield n_atoms < 0, "negative n_atoms"
    yield (ref == 1) & (n_atoms != 0), "reference shots must have n_atoms = 0"
    cycle_id, seq_index = rows["cycle_id"], rows["seq_index"]
    order = np.lexsort((seq_index, cycle_id))
    c, s = cycle_id[order], seq_index[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (c[1:] == c[:-1]) & (s[1:] == s[:-1])

    def duplicate(i, lines):
        key = (int(cycle_id[i]), int(seq_index[i]))
        first = np.argmax((cycle_id == key[0]) & (seq_index == key[1]))
        return f"duplicate (cycle_id, seq_index) = {key}, first on line {lines[first]}"

    yield repeat, duplicate


def read_dataset(path) -> ShotTable:
    """Read a shot CSV written by ``write_dataset``; a bad row raises ``SchemaError``.

    The error names ``path:line`` (``_shot_rules``).  ``is_reference`` must
    be one of 0, 1, true, false, True, False; ``cycle_id``/``seq_index``
    must fit in 64 bits (signed); values must be finite, ``n_atoms``
    non-negative (zero on reference rows); and each (cycle_id, seq_index)
    may appear on one line only.  Each is_reference token is classified
    once, for the rules and the table alike.
    """
    ref = None

    def rules(rows):
        nonlocal ref
        ref = _reference(rows["is_reference"])
        return _shot_rules(rows, ref)

    # ``read_table`` returns the rows its last ``rules`` call saw.
    rows = read_table(path, _DATASET_DTYPE, rules)
    return ShotTable(
        cycle_id=rows["cycle_id"],
        seq_index=rows["seq_index"],
        is_reference=ref == 1,
        n_atoms=rows["n_atoms"],
        f=np.column_stack([rows[name] for name in DATASET_COLUMNS[4:]]),
    )
