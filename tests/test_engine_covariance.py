"""``sequence.engine_covariance``: the engine's exact second moments.

Three independent routes to the same numbers, each on random configs
that switch every linear branch of the engine on or off (prep noise and
offset, detector noise, diffusion, intra-pulse rotation, the readout
override):
- the closed form H P H^T + s^2 I over the augmented state
  [spin at preparation, diffusion step, detector vector];
- three sequential scalar Kalman updates of P, whose prediction of the
  second round is the Schur complement of the exact covariance;
- simulated shots, within Wishart standard errors.
"""

import itertools
import math

import numpy as np
import pytest

from singletsim import (
    ConfigError,
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    conditional_covariance,
    config_from_dict,
    engine_covariance,
    larmor_period,
    larmor_rotation_matrix,
    readout_noise_sigma,
    run_campaign,
    sample_covariance,
    snr,
)
from tests.conftest import FIELD_111, engine_schur, fixed_n_campaign

IDENTITY_RTOL = 1e-12


def augmented_model(cfg, n_atoms):
    """(H, P, s^2): readouts = H [x0, walk, detector] + readout noise.

    Pulse k reads lab z of R_mid R^k x0, plus R_mid R^(k-3) walk in the
    second round, plus component k mod 3 of the detector vector.
    """
    r_step = larmor_rotation_matrix(cfg.field, larmor_period(cfg.field) / 3.0)
    r_mid = np.eye(3)
    if cfg.intra_pulse_rotation:
        r_mid = larmor_rotation_matrix(cfg.field, cfg.probe.pulse_duration / 2.0)
    h = np.zeros((6, 9))
    for k in range(6):
        h[k, :3] = (r_mid @ np.linalg.matrix_power(r_step, k))[2]
        if k >= 3:
            h[k, 3:6] = (r_mid @ np.linalg.matrix_power(r_step, k - 3))[2]
        h[k, 6 + k % 3] = 1.0
    p = np.zeros((9, 9))
    p[:3, :3] = 2.0 / 3.0 * n_atoms * np.eye(3)
    if n_atoms > 0:
        p[:3, :3] += cfg.prep_noise_cov
    p[3:6, 3:6] = cfg.period_diffusion * np.eye(3)
    p[6:, 6:] = cfg.detector_noise_cov
    return h, p, readout_noise_sigma(cfg.probe) ** 2


def kalman_second_round(cfg, n_atoms):
    """Covariance of f2 after scalar Kalman updates on f1's three readouts."""
    h, p, s2 = augmented_model(cfg, n_atoms)
    for row in h[:3]:
        gain = p @ row / (row @ p @ row + s2)
        p = p - np.outer(gain, row @ p)
    return h[3:] @ p @ h[3:].T + s2 * np.eye(3)


def random_psd(rng, scale):
    a = rng.standard_normal((3, 3))
    return a @ a.T * scale / 3.0


def random_config(rng, detector, diffusion, rotation):
    """A valid config with the named branches on; prep noise, a prep
    offset and the readout override are on or off at random."""
    probe = ProbeConfig(
        efficiency=float(rng.uniform(0.3, 1.0)),
        readout_noise_override=float(rng.uniform(300, 1500)) if rng.random() < 0.5 else None,
        pulse_duration=float(rng.uniform(0.5e-6, 10e-6)),
    )
    kwargs = {}
    if rng.random() < 0.7:
        kwargs["prep_noise_cov"] = random_psd(rng, rng.uniform(1e4, 1e6))
    if rng.random() < 0.5:
        kwargs["prep_mean_offset"] = rng.uniform(-3e3, 3e3, size=3)
    if detector:
        kwargs["detector_noise_cov"] = random_psd(rng, rng.uniform(1e4, 1e6))
    if diffusion:
        kwargs["period_diffusion"] = float(rng.uniform(1e3, 5e5))
    return SequenceConfig(
        field=MagneticField(FIELD_111), probe=probe, intra_pulse_rotation=rotation, **kwargs
    )


BRANCHES = list(itertools.product([False, True], repeat=3))


def branch_id(branches):
    names = ("detector", "diffusion", "rotation")
    return "+".join(n for n, on in zip(names, branches) if on) or "none"


def random_cases(seed, per_combination=8):
    rng = np.random.default_rng(seed)
    for branches in BRANCHES:
        for i in range(per_combination):
            n_atoms = 0.0 if i == 0 else float(rng.uniform(1e4, 1.5e6))
            yield random_config(rng, *branches), n_atoms


def assert_close(actual, expected):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= IDENTITY_RTOL * scale


class TestExactIdentities:
    def test_equals_closed_form(self):
        for cfg, n_atoms in random_cases(seed=201):
            h, p, s2 = augmented_model(cfg, n_atoms)
            assert_close(engine_covariance(cfg, n_atoms), h @ p @ h.T + s2 * np.eye(6))

    def test_schur_complement_equals_kalman_recursion(self):
        for cfg, n_atoms in random_cases(seed=202):
            assert_close(engine_schur(cfg, n_atoms).matrix, kalman_second_round(cfg, n_atoms))

    @pytest.mark.parametrize("probe", [{}, {"readout_noise_override": 515.0}])
    def test_thermal_schur_trace_is_the_squeezing_law(self, probe):
        seq = config_from_dict({"probe": probe}).sequence
        s2 = readout_noise_sigma(seq.probe) ** 2
        for n in (1e5, 3e5, 7e5, 1.1e6, 1.5e6):
            exact = engine_schur(seq, n).trace - 3.0 * s2
            law = 2.0 * n / (1.0 + (2.0 * n / 3.0) / s2)
            assert exact == pytest.approx(law, rel=IDENTITY_RTOL)

    def test_zero_atoms_is_pure_readout(self, seq_ideal):
        s2 = readout_noise_sigma(seq_ideal.probe) ** 2
        assert_close(engine_covariance(seq_ideal, 0.0), s2 * np.eye(6))


class TestRefusals:
    def test_light_backaction_raises(self, field):
        cfg = SequenceConfig(field=field, probe=ProbeConfig(light_backaction=True))
        with pytest.raises(ValueError, match="light_backaction"):
            engine_covariance(cfg, 1e6)

    def test_indefinite_preparation_raises_config_error(self, field, probe_ideal):
        cfg = SequenceConfig(field=field, probe=probe_ideal, prep_noise_cov=-1e6 * np.eye(3))
        with pytest.raises(ConfigError, match="prep_noise_cov"):
            engine_covariance(cfg, 1e5)


class TestEngineConditionalCovariance:
    def test_tss_matches_squeezing_law(self, field, probe_paper):
        n = 1.1e6
        cond = engine_schur(SequenceConfig(field=field, probe=probe_paper), n)
        s2 = readout_noise_sigma(probe_paper) ** 2
        zeta_eff = probe_paper.efficiency * snr(probe_paper, n)
        assert cond.trace - 3 * s2 == pytest.approx(2 * n / (1 + zeta_eff), rel=1e-10)

    def test_zero_atoms_pure_readout(self, seq_ideal):
        cond = engine_schur(seq_ideal, 0.0)
        s2 = readout_noise_sigma(seq_ideal.probe) ** 2
        assert np.allclose(cond.matrix, s2 * np.eye(3))

    def test_matches_data_elementwise(self, field):
        # The prediction and the sample Schur complement are both in
        # readout order (z, y, x), so they agree element by element.
        n_atoms, m = 1e6, 40_000
        tech = np.array([[3.0e6, 0.6e6, 0.2e6], [0.6e6, 0.8e6, 0.1e6], [0.2e6, 0.1e6, 0.0]])
        probe = ProbeConfig(readout_noise_override=1000.0)
        cfg = SequenceConfig(field=field, probe=probe, prep_noise_cov=tech)
        c6 = sample_covariance(run_campaign(fixed_n_campaign(n_atoms, m, seed=0), cfg).f)
        observed = conditional_covariance(c6[:3, :3], c6[3:, 3:], c6[:3, 3:]).matrix
        pred = engine_schur(cfg, n_atoms).matrix
        # Wishart element stderrs, sqrt((S_ij^2 + S_ii S_jj) / m).
        se = np.sqrt((pred**2 + np.outer(np.diag(pred), np.diag(pred))) / m)
        assert np.all(np.abs(observed - pred) < 4.0 * se)
        trace_se = math.sqrt(2.0 * np.trace(pred @ pred) / m)
        assert abs(np.trace(observed) - np.trace(pred)) < 3.0 * trace_se


@pytest.mark.parametrize("branches", BRANCHES, ids=branch_id)
def test_simulation_agrees_within_wishart_stderrs(field, branches):
    # Each branch is set large enough to move some element of the
    # covariance by many standard errors, so a branch the exact moments
    # got wrong (or left out) would show.  The prep noise is anisotropic
    # about the field axis [1, 1, 1]; otherwise the intra-pulse rotation,
    # about that axis, would leave every moment as it was.
    detector, diffusion, rotation = branches
    m = 20_000
    kwargs = {"prep_noise_cov": np.array([[8e5, 2e5, 0.0], [2e5, 2e5, 0.0], [0.0, 0.0, 0.0]])}
    if detector:
        kwargs["detector_noise_cov"] = np.array(
            [[6e5, 2e5, 0.0], [2e5, 4e5, 1e5], [0.0, 1e5, 3e5]]
        )
    if diffusion:
        kwargs["period_diffusion"] = 4e5
    probe = ProbeConfig(readout_noise_override=700.0, pulse_duration=20e-6)
    cfg = SequenceConfig(field=field, probe=probe, intra_pulse_rotation=rotation, **kwargs)
    plain = SequenceConfig(field=field, probe=probe, prep_noise_cov=kwargs["prep_noise_cov"])
    n_atoms = 9e5

    observed = sample_covariance(run_campaign(fixed_n_campaign(n_atoms, m, seed=17), cfg).f)
    exact = engine_covariance(cfg, n_atoms)
    se = np.sqrt((exact**2 + np.outer(np.diag(exact), np.diag(exact))) / (m - 1))
    assert np.max(np.abs(observed - exact) / se) < 4.5
    if any(branches):
        baseline = engine_covariance(plain, n_atoms)
        assert np.max(np.abs(observed - baseline) / se) > 10.0
