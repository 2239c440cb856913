"""Workload definitions and seeded input generators.

Every input the program sees is written here from the workload seed:
the JSON config, the shots CSV of ``reanalyze`` (drawn from the thermal
model with numpy, never through the simulator) and the FID trace of
``published``.  The same seed gives byte-identical files.

The physical constants below are the published operating point, the
values an empty config resolves to.  The output checks use them to
evaluate the squeezing law independently of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Published operating point (config defaults).
G1 = 9.0e-8  # rad/spin
N_PHOTONS = 2.8e8
EFFICIENCY = 0.75
INITIAL_ATOMS = 1.5e6
ATOM_JITTER = 0.05
LOSS_FRACTION = 0.15
SEQUENCES_PER_CYCLE = 12
REFERENCES_PER_CYCLE = 2

# FID generator: field (gauss), dephasing time (s), polarization (spins).
FID_B = (9.6e-3, 9.7e-3, 9.9e-3)
FID_T2 = 745e-6
FID_F0 = 1.0e6
FID_GAMMA = 4.374e6  # rad s^-1 G^-1
FID_SAMPLES = 3000
FID_STEP = 0.5e-6  # s
FID_NOISE = 1.0e-3  # rad

SCAN = "0.25:3.0:0.25"
SCAN_ROWS = 12

SHOT_COLUMNS = (
    "cycle_id,seq_index,is_reference,n_atoms,f1_z,f1_y,f1_x,f2_z,f2_y,f2_x"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands`` are CLI argument lists with ``{inputs}``, ``{out}`` and
    ``{seed}`` placeholders.  ``n_cycles`` fixes the expected shot and
    reference counts.  ``thermal`` turns on the per-bin squeezing-law
    check.  ``pool_lost`` names per-layer metrics that run in pool
    workers and are therefore unavailable from the traced run.
    """

    name: str
    n_cycles: int
    config: dict
    commands: tuple
    thermal: bool = True
    pool_lost: tuple = ()

    @property
    def n_atom_shots(self) -> int:
        return self.n_cycles * SEQUENCES_PER_CYCLE

    @property
    def n_reference(self) -> int:
        return self.n_cycles * REFERENCES_PER_CYCLE

    def reads(self, name: str) -> bool:
        """Whether a command reads the generated input file ``name``."""
        return any(f"{{inputs}}/{name}" in cmd for cmd in self.commands)


def _simulate(workers: int) -> tuple:
    return (
        "simulate", "--config", "{inputs}/config.json", "--out", "{out}/sim",
        "--seed", "{seed}", "--workers", str(workers),
    )


def _analyze(dataset: str, workers: int, scan: bool) -> tuple:
    cmd = (
        "analyze", dataset, "--out", "{out}/analysis",
        "--config", "{inputs}/config.json", "--workers", str(workers),
    )
    return cmd + (("--cutoff-scan", SCAN) if scan else ())


_FIDFIT = ("fidfit", "{inputs}/fid.csv", "--out", "{out}/estimate.json")

# prep_noise_cov = 1e5 (0.5 I + 0.5 J) has eigenvalues 2e5, 5e4, 5e4, so it
# is PSD by itself and the prepared covariance is valid at every atom number.
_CORRELATED_PREP = (1.0e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3)))).tolist()

_SPIN_LAYERS = (
    "spins.check_psd_calls", "spins.check_psd_s",
    "spins.apply_rotation_calls", "spins.apply_rotation_s",
    "probe.simulate_pulse_calls", "probe.simulate_pulse_s",
)
_BIN_LAYERS = (
    "analysis.sample_covariance_calls", "analysis.sample_covariance_s",
    "analysis.conditional_covariance_calls", "analysis.conditional_covariance_s",
    "analysis.squeezing_parameter_s",
)


_WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="published",
            n_cycles=602,
            config={},
            commands=(
                _simulate(1),
                _analyze("{out}/sim/shots.csv", 1, scan=True),
                _FIDFIT,
            ),
        ),
        Workload(
            name="reanalyze",
            n_cycles=1204,
            config={},
            commands=(_analyze("{inputs}/shots.csv", 1, scan=True),),
        ),
        Workload(
            name="campaign-noisy",
            n_cycles=602,
            config={
                "sequence": {
                    "prep_noise_cov": _CORRELATED_PREP,
                    "detector_noise_cov": (1.0e5 * np.eye(3)).tolist(),
                    "period_diffusion": 1.0e4,
                    "intra_pulse_rotation": True,
                },
                "analysis": {"n_resamples": 50},
            },
            commands=(
                _simulate(2),
                _analyze("{out}/sim/shots.csv", 2, scan=False),
            ),
            thermal=False,
            pool_lost=_SPIN_LAYERS + _BIN_LAYERS,
        ),
    )
}

NAMES = tuple(_WORKLOADS)

TINY_CYCLES = 100


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it to a few seconds for the smoke test."""
    wl = _WORKLOADS[name]
    if not tiny:
        return wl
    config = dict(wl.config)
    config["campaign"] = {"n_cycles": TINY_CYCLES}
    config["analysis"] = {**config.get("analysis", {}), "n_resamples": 100}
    return replace(wl, n_cycles=TINY_CYCLES, config=config)


# ---------------------------------------------------------------------------
# generators


def snr(n_atoms):
    """zeta = (2/3) g1^2 N_L N at the published probe constants."""
    return (2.0 / 3.0) * G1**2 * N_PHOTONS * n_atoms


def readout_sigma() -> float:
    return 1.0 / (G1 * math.sqrt(EFFICIENCY * N_PHOTONS))


def write_config(path: Path, wl: Workload, seed: int) -> None:
    path.write_text(json.dumps({**wl.config, "seed": seed}, sort_keys=True) + "\n")


def _atom_numbers(rng: np.random.Generator, n_cycles: int) -> np.ndarray:
    """(n_cycles, sequences) atom numbers: jittered start, geometric loss."""
    n0 = INITIAL_ATOMS * (1.0 + ATOM_JITTER * rng.uniform(-1.0, 1.0, n_cycles))
    decay = (1.0 - LOSS_FRACTION) ** np.arange(SEQUENCES_PER_CYCLE)
    return n0[:, None] * decay[None, :]


def write_thermal_shots(path: Path, n_cycles: int, seed: int) -> None:
    """Shots drawn from the thermal model, in the simulator's CSV schema.

    Each atom shot has spin ~ N(0, (2/3) N I); both rounds read that spin
    plus independent readout noise of sigma = 1/(g1 sqrt(b N_L)).
    Reference shots have no atoms, so they read noise only.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    per_cycle = SEQUENCES_PER_CYCLE + REFERENCES_PER_CYCLE
    n_atoms = np.zeros((n_cycles, per_cycle))
    n_atoms[:, :SEQUENCES_PER_CYCLE] = _atom_numbers(rng, n_cycles)
    n_atoms = n_atoms.ravel()
    spin = rng.standard_normal((n_atoms.size, 3)) * np.sqrt(2.0 / 3.0 * n_atoms)[:, None]
    sigma = readout_sigma()
    f1 = spin + sigma * rng.standard_normal((n_atoms.size, 3))
    f2 = spin + sigma * rng.standard_normal((n_atoms.size, 3))
    seq = np.tile(np.arange(per_cycle), n_cycles)
    cycle = np.repeat(np.arange(n_cycles), per_cycle)
    lines = [SHOT_COLUMNS]
    for c, s, n, a, b in zip(
        cycle.tolist(), seq.tolist(), n_atoms.tolist(), f1.tolist(), f2.tolist()
    ):
        ref = int(s >= SEQUENCES_PER_CYCLE)
        values = ",".join(repr(v) for v in (n, *a, *b))
        lines.append(f"{c},{s},{ref},{values}")
    path.write_text("\n".join(lines) + "\n")


def fid_model(t: np.ndarray, axis: str) -> np.ndarray:
    """Faraday angle of a sample prepared along ``axis`` ('z' or 'y')."""
    bx, by, bz = FID_B
    b = math.sqrt(bx**2 + by**2 + bz**2)
    e = np.exp(-(t**2) / FID_T2**2)
    w = FID_GAMMA * b * t
    scale = G1 * FID_F0 / b**2
    if axis == "z":
        return scale * (bz**2 + (bx**2 + by**2) * np.cos(w) * e)
    return scale * (by * bz * (1.0 - np.cos(w) * e) + bx * b * np.sin(w) * e)


def write_fid_trace(path: Path, seed: int) -> None:
    """Two 3000-sample FID branches with white Faraday-angle noise."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    t = np.arange(FID_SAMPLES) * FID_STEP
    lines = ["t_us,theta_rad,branch"]
    for axis in ("z", "y"):
        theta = fid_model(t, axis) + FID_NOISE * rng.standard_normal(t.size)
        lines.extend(
            f"{tu!r},{th!r},{axis}" for tu, th in zip((t * 1e6).tolist(), theta.tolist())
        )
    path.write_text("\n".join(lines) + "\n")


def generate(wl: Workload, inputs: Path, seed: int) -> None:
    """Write every input the workload's commands read into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    write_config(inputs / "config.json", wl, seed)
    if wl.reads("shots.csv"):
        write_thermal_shots(inputs / "shots.csv", wl.n_cycles, seed)
    if wl.reads("fid.csv"):
        write_fid_trace(inputs / "fid.csv", seed)
