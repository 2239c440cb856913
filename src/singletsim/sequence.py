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
Gaussian and propagated deterministically through the rotations as a
row of an (n, 3) array; pulse outcomes are that vector's lab-z
component plus readout noise.  No Kalman estimator state is
propagated: the posterior never reaches a readout.  ``probe.simulate_pulse`` remains the analytic
single-pulse reference for the estimator.

Exact moments come from the same engine, not from a separate closed
form.  Without back-action a shot's readouts are affine in its row of
standard normals, so ``engine_covariance`` runs the engine on the zero
row and the unit rows and returns the exact (6, 6) covariance of
(f1, f2).

Per-shot draw layout.  Each shot consumes one row of standard normals,
in this column order (bracketed blocks only when the branch is on):

    spin 3 | [detector 3] | round-1 readout noise 3 | [diffusion 3]
    | round-2 readout noise 3 | [back-action 6]

An atom shot's spin is V diag(sqrt(2N/3 + lambda)) z plus
``prep_mean_offset``, with z its spin block and (lambda, V) =
eigh(``prep_noise_cov``): the prepared covariance (2/3) N I + P has P's
eigenvectors.  A reference shot's spin is 0.

The detector block is drawn when ``detector_noise_cov`` is non-zero,
diffusion when ``period_diffusion`` > 0, and back-action (one lab-z
rotation angle per pulse, applied to the true spin after that pulse's
readout) when ``probe.light_backaction`` is set.  The full row is drawn
even where a term vanishes (reference shots, zero readout noise).

Campaigns are deterministic given the master seed.  Cycle c draws from
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(c,))))``: one
``random()`` for its atom-number jitter, then one block of rows of
normals for its shots in ``seq_index`` order (atom shots, then
references).  The engine derives these generator states for all cycles
in one array pass, without building the objects (``_substream_states``),
so results do not depend on evaluation order and a one-cycle rerun
reproduces its shots.

A campaign is returned as one ``ShotTable``, the columnar dataset every
later stage (CSV output and input, analysis) works on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fileio import read_table, write_csv
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

# A cycle's id is its substream's spawn key, which must be one uint32 word.
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

    Axis orders differ: ``prep_noise_cov`` and ``prep_mean_offset`` are in
    the prep frame (x, y, z), ``detector_noise_cov`` in readout order
    (z, y, x), so ``diag(v, 0, 0)`` inflates the ``f*_x`` columns as prep
    noise but the ``f*_z`` columns as detector noise.
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


def _prepared_axes(cfg: SequenceConfig, n_atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axes V (3, 3) and per-shot widths (n, 3) of the prepared spin.

    The prepared covariance is the thermal (2/3) N I plus
    ``prep_noise_cov`` (atoms only).  With (lam, V) = eigh(P), every atom
    shot's covariance has eigenvalues 2N/3 + lam on V's columns, so one
    3x3 ``eigh`` serves the whole batch; a shot's spin is V (width * z)
    and reference shots have width 0.  Raises ``ConfigError`` at the
    smallest atom number whose prepared covariance is not PSD.
    """
    lam, axes = np.linalg.eigh(cfg.prep_noise_cov)
    atoms = n_atoms > 0
    w = np.zeros((len(n_atoms), 3))
    w[atoms] = (2.0 / 3.0 * n_atoms[atoms])[:, None] + lam
    floor = -PSD_RTOL * np.maximum(w.sum(axis=1), 1.0)
    bad = np.flatnonzero(w[:, 0] < floor)
    if bad.size:
        worst = bad[np.argmin(n_atoms[bad])]
        raise ConfigError(
            "sequence.prep_noise_cov: prepared covariance is not positive "
            f"semidefinite at n_atoms = {n_atoms[worst]:.6g} "
            f"(min eig {w[worst, 0]:.3g})"
        )
    return axes, np.sqrt(np.clip(w, 0.0, None))


def _row_products(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m @ row`` for every row of ``rows``, ``m`` (3, 3).

    A stacked matmul multiplies row by row, so each shot's arithmetic is
    that of a single 3x3 product whatever the batch size: a one-cycle
    rerun reproduces its shots bit for bit.
    """
    return (m @ rows[:, :, None])[:, :, 0]


def _rotate_about_z(spin: np.ndarray, angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    x, y = spin[:, 0], spin[:, 1]
    return np.column_stack([c * x - s * y, s * x + c * y, spin[:, 2]])


def _propagate(cfg: SequenceConfig, n_atoms: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The simulation engine: readouts of shots with per-shot atom numbers.

    ``normals`` holds one row of ``draw_columns(cfg)`` standard normals
    per shot in the documented layout.  Returns the (n, 6) readouts,
    first round then second, each in (z, y, x) order.
    """
    if np.any(n_atoms < 0):
        raise ValueError("n_atoms must be non-negative")
    sigma = readout_noise_sigma(cfg.probe)
    z = iter(np.hsplit(normals, range(3, normals.shape[1], 3)))

    axes, width = _prepared_axes(cfg, n_atoms)
    spin = _row_products(axes, width * next(z))
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


# numpy's SeedSequence: its pool size and hash constants (uint32 words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: (xor, multiplier) of each hash step."""
    while True:
        step = init * mult & _MASK32
        yield np.uint32(init), np.uint32(step)
        init = step


def _hashmix(words: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = x * _MIX_MULT_L - y * _MIX_MULT_R
    return words ^ (words >> _XSHIFT)


def _substream_states(master_seed: int, cycle_ids: np.ndarray) -> np.ndarray:
    """Each cycle's ``SeedSequence(master_seed, spawn_key=(c,)).generate_state(4, uint64)``.

    numpy's entropy hash, run for every cycle at once in uint32 array
    arithmetic: the seed's little-endian 32-bit words zero-padded to the
    pool size, then the cycle id as one spawn word (so ids must be below
    2**32); the pool is hashed, mixed with itself and with every word
    past it, and hashed out to 8 words.  Returns the (n, 4) uint64 words
    PCG64 seeds from (``_pcg64_state``).
    """
    seed = operator.index(master_seed)
    run = [seed & _MASK32]
    while seed := seed >> 32:
        run.append(seed & _MASK32)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = np.empty((len(run) + 1, len(cycle_ids)), dtype=np.uint32)
    entropy[:-1] = np.array(run, dtype=np.uint32)[:, None]
    entropy[-1] = cycle_ids

    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))

    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((len(cycle_ids), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hashmix(pool[i % _POOL_SIZE], constants)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words) -> dict:
    """The ``PCG64.state`` that seeding from ``words`` (4 ints) sets.

    PCG64 reads (initstate, initseq) as two 128-bit ints, high word
    first, and runs ``pcg_setseq_128_srandom_r``.
    """
    init_hi, init_lo, seq_hi, seq_lo = words
    inc = (((seq_hi << 64 | seq_lo) << 1) | 1) & _MASK128
    state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _simulate_cycles(
    campaign: CampaignConfig, seq_cfg: SequenceConfig, cycle_ids
) -> ShotTable:
    """Shots of the given loading cycles, each on its own random substream.

    Each cycle draws its jitter and its block of normals from
    (master_seed, cycle_id), as the module docstring states; all shots
    then go through the engine at once.  Cycle ids must lie in
    [0, ``MAX_CYCLES``).
    """
    ids = np.asarray(cycle_ids)
    if ids.size and not (ids.min() >= 0 and ids.max() < MAX_CYCLES):
        raise ValueError(f"cycle ids must lie in [0, 2**32), got {ids.min()}..{ids.max()}")
    words = _substream_states(campaign.master_seed, ids)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    n_seq = campaign.sequences_per_cycle
    per_cycle = n_seq + campaign.reference_shots_per_cycle
    decay = np.array([(1.0 - campaign.loss_fraction) ** s for s in range(n_seq)])
    uniforms = np.empty(len(ids))
    normals = np.empty((len(ids), per_cycle, draw_columns(seq_cfg)))
    for i in range(len(ids)):
        bits.state = _pcg64_state(words[i].tolist())
        uniforms[i] = rng.random()
        rng.standard_normal(out=normals[i])
    # Generator.uniform(-1, 1) bit for bit, without its per-call overhead.
    jitter = -1.0 + 2.0 * uniforms
    n0 = campaign.initial_atoms * (1.0 + campaign.atom_jitter * jitter)
    n_atoms = np.zeros((len(ids), per_cycle))
    n_atoms[:, :n_seq] = n0[:, None] * decay
    n_atoms = n_atoms.reshape(-1)
    seq_index = np.tile(np.arange(per_cycle), len(ids))
    return ShotTable(
        cycle_id=np.repeat(ids.astype(np.int64), per_cycle),
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


# Each accepted is_reference token, as the token the numpy pass accepts.
_REFERENCE_TOKENS = {"0": "0", "1": "1", "false": "0", "true": "1", "False": "0", "True": "1"}

# The shot CSV's columns as read; is_reference is read as text.  Two
# characters, so a longer token cannot be cut down to an accepted one.
_DATASET_DTYPE = np.dtype(
    [(name, np.int64) for name in DATASET_COLUMNS[:2]]
    + [(DATASET_COLUMNS[2], "U2")]
    + [(name, float) for name in DATASET_COLUMNS[3:]]
)


def _shots_valid(rows) -> bool:
    """Whether ``read_dataset``'s row parse passes every row, with its token as read."""
    ref = rows["is_reference"]
    values = np.column_stack([rows[name] for name in DATASET_COLUMNS[3:]])
    if not (np.all((ref == "0") | (ref == "1")) and np.all(np.isfinite(values))):
        return False
    n_atoms = rows["n_atoms"]
    if np.any(n_atoms < 0) or np.any(n_atoms[ref == "1"] != 0):
        return False
    cycle_id, seq_index = rows["cycle_id"], rows["seq_index"]
    order = np.lexsort((seq_index, cycle_id))
    cycle_id, seq_index = cycle_id[order], seq_index[order]
    return not np.any((cycle_id[1:] == cycle_id[:-1]) & (seq_index[1:] == seq_index[:-1]))


def read_dataset(path) -> ShotTable:
    """Read a shot CSV written by ``write_dataset``; a bad row raises ``SchemaError``.

    The error names ``path:line``.  ``is_reference`` must be one of 0, 1,
    true, false, True, False; ``cycle_id``/``seq_index`` must fit in 64
    bits (signed); values must be finite, ``n_atoms``
    non-negative (zero on reference rows); and each (cycle_id, seq_index)
    may appear on one line only.
    """
    line_of: dict[tuple, int] = {}

    def parse(row, line):
        key = (int(row[0]), int(row[1]))
        if not all(-(2**63) <= k < 2**63 for k in key):
            raise ValueError("cycle_id and seq_index must fit in 64 bits")
        ref = _REFERENCE_TOKENS.get(row[2].strip())
        if ref is None:
            raise ValueError(
                f"is_reference must be one of {', '.join(_REFERENCE_TOKENS)}, got {row[2]!r}"
            )
        shot = list(map(float, row[3:]))
        if not all(map(math.isfinite, shot)):
            raise ValueError("non-finite n_atoms or readout")
        if shot[0] < 0:
            raise ValueError("negative n_atoms")
        if ref == "1" and shot[0] != 0:
            raise ValueError("reference shots must have n_atoms = 0")
        first = line_of.setdefault(key, line)
        if first != line:
            raise ValueError(f"duplicate (cycle_id, seq_index) = {key}, first on line {first}")
        return (*key, ref, *shot)

    rows = read_table(path, _DATASET_DTYPE, parse, _shots_valid)
    return ShotTable(
        cycle_id=rows["cycle_id"],
        seq_index=rows["seq_index"],
        is_reference=rows["is_reference"] == "1",
        n_atoms=rows["n_atoms"],
        f=np.column_stack([rows[name] for name in DATASET_COLUMNS[4:]]),
    )
