"""The vectorized campaign engine against a plain per-shot loop.

``reference_campaign`` rebuilds every shot from the draw layout stated
in the ``singletsim.sequence`` module docstring, one shot and one pulse
at a time with 3-vectors and 3x3 matrices.  It shares no code with the
engine beyond the probe/field constants.
"""

import math

import numpy as np
import pytest

from singletsim import (
    CampaignConfig,
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    larmor_period,
    larmor_rotation_matrix,
    readout_noise_sigma,
    run_campaign,
)
from tests.conftest import FIELD_111


def factor(cov):
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


def reference_campaign(campaign, cfg):
    """(cycle_id, seq_index, n_atoms, readouts[6]) per shot, in file order."""
    probe = cfg.probe
    sigma = readout_noise_sigma(probe)
    kick_std = probe.g1 * math.sqrt(probe.n_photons) / 2.0
    r_step = larmor_rotation_matrix(cfg.field, larmor_period(cfg.field) / 3.0)
    r_mid = np.eye(3)
    if cfg.intra_pulse_rotation:
        r_mid = larmor_rotation_matrix(cfg.field, probe.pulse_duration / 2.0)
    has_detector = bool(np.any(cfg.detector_noise_cov != 0.0))
    n_seq = campaign.sequences_per_cycle
    shots = []
    for cycle in range(campaign.n_cycles):
        seed = np.random.SeedSequence(campaign.master_seed, spawn_key=(cycle,))
        rng = np.random.default_rng(seed)
        n0 = campaign.initial_atoms * (1.0 + campaign.atom_jitter * rng.uniform(-1.0, 1.0))
        for s in range(n_seq + campaign.reference_shots_per_cycle):
            n = n0 * (1.0 - campaign.loss_fraction) ** s if s < n_seq else 0.0
            cov = np.eye(3) * (2.0 / 3.0 * n)
            mean = np.zeros(3)
            if n > 0:
                cov = cov + cfg.prep_noise_cov
                mean = cfg.prep_mean_offset
            spin = mean + factor(cov) @ rng.standard_normal(3)
            detector = np.zeros(3)
            if has_detector:
                detector = factor(cfg.detector_noise_cov) @ rng.standard_normal(3)
            noise = list(sigma * rng.standard_normal(3))
            walk = np.zeros(3)
            if cfg.period_diffusion > 0.0:
                walk = math.sqrt(cfg.period_diffusion) * rng.standard_normal(3)
            noise += list(sigma * rng.standard_normal(3))
            kicks = np.zeros(6)
            if probe.light_backaction:
                kicks = kick_std * rng.standard_normal(6)
            readouts = []
            for k in range(6):
                if k > 0:
                    spin = r_step @ spin
                if k == 3:
                    spin = spin + walk
                readouts.append((r_mid @ spin)[2] + detector[k % 3] + noise[k])
                c, sn = math.cos(kicks[k]), math.sin(kicks[k])
                spin = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]]) @ spin
            shots.append((cycle, s, n, readouts))
    return shots


CAMPAIGN = CampaignConfig(
    n_cycles=3,
    sequences_per_cycle=5,
    reference_shots_per_cycle=2,
    initial_atoms=9e5,
    master_seed=31,
)

ALL_BRANCHES = dict(
    prep_noise_cov=1e5 * (0.5 * np.eye(3) + 0.5 * np.ones((3, 3))),
    prep_mean_offset=np.array([400.0, -250.0, 120.0]),
    detector_noise_cov=np.array([[1e5, 2e4, 0.0], [2e4, 8e4, 1e4], [0.0, 1e4, 6e4]]),
    period_diffusion=1e4,
    intra_pulse_rotation=True,
)


@pytest.mark.parametrize(
    "probe, branches",
    [
        (ProbeConfig(), {}),
        (ProbeConfig(light_backaction=True, n_photons=4e13), ALL_BRANCHES),
        (ProbeConfig(light_backaction=True, readout_noise_override=0.0), ALL_BRANCHES),
    ],
    ids=["published", "all-branches", "zero-readout-noise"],
)
def test_engine_matches_per_shot_loop(probe, branches):
    cfg = SequenceConfig(field=MagneticField(FIELD_111), probe=probe, **branches)
    table = run_campaign(CAMPAIGN, cfg)
    expected = reference_campaign(CAMPAIGN, cfg)
    assert len(table) == len(expected) == 3 * 7
    atol = 1e-9 * readout_noise_sigma(probe)
    for i, (cycle, s, n, readouts) in enumerate(expected):
        assert (table.cycle_id[i], table.seq_index[i]) == (cycle, s)
        assert table.is_reference[i] == (s >= CAMPAIGN.sequences_per_cycle)
        assert table.n_atoms[i] == n  # bit-identical
        np.testing.assert_allclose(table.f[i], readouts, rtol=1e-12, atol=atol)
