import math

import numpy as np
import pytest

from singletsim import (
    CalibrationError,
    CollectiveSpinState,
    ProbeConfig,
    calibrate_g1,
    readout_noise_sigma,
    simulate_pulse,
    snr,
)


class TestReadoutNoise:
    def test_shot_noise_value(self, probe_ideal):
        # 1 / (g1 sqrt(N_L)) at the quoted constants.
        expected = 1.0 / (9.0e-8 * math.sqrt(2.8e8))
        assert readout_noise_sigma(probe_ideal) == pytest.approx(expected)
        assert expected == pytest.approx(664.0, rel=1e-3)

    def test_efficiency_scaling(self):
        full = readout_noise_sigma(ProbeConfig(efficiency=1.0))
        quarter = readout_noise_sigma(ProbeConfig(efficiency=0.25))
        assert quarter == pytest.approx(2.0 * full)

    def test_override(self):
        # The measured apparatus sensitivity (515 spins) beats the
        # single-pulse formula; the override plugs it in directly.
        probe = ProbeConfig(readout_noise_override=515.0)
        assert readout_noise_sigma(probe) == 515.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(g1=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(efficiency=1.5)
        with pytest.raises(ValueError):
            ProbeConfig(n_photons=0.0)


class TestSnr:
    def test_zero_atoms(self, probe_ideal):
        assert snr(probe_ideal, 0.0) == 0.0

    def test_paper_plugin(self, probe_ideal):
        value = (2.0 / 3.0) * (9.0e-8) ** 2 * 2.8e8 * 1.1e6
        assert snr(probe_ideal, 1.1e6) == pytest.approx(value)
        assert value == pytest.approx(1.66, rel=3e-3)

    def test_prior_to_noise_identity(self, probe_ideal):
        # zeta equals (2/3) N_A / sigma_ro^2 at b = 1.
        n = 7.3e5
        ratio = (2.0 / 3.0) * n / readout_noise_sigma(probe_ideal) ** 2
        assert snr(probe_ideal, n) == pytest.approx(ratio, rel=1e-12)


class TestSimulatePulse:
    def test_posterior_variance_algebra(self, probe_ideal):
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * 1e6 * np.eye(3))
        s2 = readout_noise_sigma(probe_ideal) ** 2
        prior = state.cov[2, 2]
        _, post = simulate_pulse(state, probe_ideal, np.random.default_rng(0))
        assert post.cov[2, 2] == pytest.approx(prior * s2 / (prior + s2), rel=1e-12)
        assert np.linalg.eigvalsh(post.cov).min() >= -1e-9 * np.trace(post.cov)

    @pytest.mark.parametrize("efficiency", [1.0, 0.75, 0.5])
    def test_squeezing_law(self, efficiency):
        probe = ProbeConfig(efficiency=efficiency)
        n = 1.1e6
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * n * np.eye(3))
        _, post = simulate_pulse(state, probe, np.random.default_rng(1))
        zeta_eff = efficiency * snr(probe, n)
        assert post.cov[2, 2] / state.cov[2, 2] == pytest.approx(
            1.0 / (1.0 + zeta_eff), rel=1e-12
        )

    def test_zero_atom_outcome_distribution(self, probe_ideal):
        rng = np.random.default_rng(2)
        state = CollectiveSpinState(np.zeros(3), np.zeros((3, 3)))
        sigma = readout_noise_sigma(probe_ideal)
        values = []
        for _ in range(4000):
            outcome, post = simulate_pulse(state, probe_ideal, rng)
            values.append(outcome.measured_value)
        values = np.array(values)
        assert np.array_equal(post.cov, state.cov)  # nothing to condition
        assert abs(values.mean()) < 4 * sigma / math.sqrt(len(values))
        assert values.std(ddof=1) == pytest.approx(sigma, rel=0.05)

    def test_huge_noise_keeps_prior(self):
        probe = ProbeConfig(readout_noise_override=1e12)
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * 1e6 * np.eye(3))
        _, post = simulate_pulse(state, probe, np.random.default_rng(3))
        assert np.allclose(post.cov, state.cov, rtol=1e-6)

    def test_degenerate_state(self):
        probe = ProbeConfig(readout_noise_override=0.0)
        state = CollectiveSpinState(np.zeros(3), np.zeros((3, 3)))
        outcome, post = simulate_pulse(state, probe, np.random.default_rng(4))
        assert outcome.measured_value == 0.0
        assert np.array_equal(post.cov, state.cov)

    def test_qnd_no_backaction_monte_carlo(self, probe_ideal):
        # Two successive readouts of the same sample must share their
        # marginal distribution: measuring does not move the spin.
        rng = np.random.default_rng(6)
        m = 100_000
        n = 1e6
        prior_var = 2.0 / 3.0 * n
        sigma = readout_noise_sigma(probe_ideal)
        z = math.sqrt(prior_var) * rng.standard_normal(m)
        m1 = z + sigma * rng.standard_normal(m)
        m2 = z + sigma * rng.standard_normal(m)
        total = prior_var + sigma**2
        se_mean = math.sqrt(total / m)
        se_var = total * math.sqrt(2.0 / m)
        assert abs(m1.mean() - m2.mean()) < 3 * se_mean * math.sqrt(2)
        assert abs(np.var(m1, ddof=1) - np.var(m2, ddof=1)) < 3 * se_var * math.sqrt(2)

    def test_information_additivity(self, probe_ideal):
        # k pulses shrink the z variance to (2/3)N/(1 + k zeta_eff).
        n = 5e5
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * n * np.eye(3))
        rng = np.random.default_rng(7)
        zeta = snr(probe_ideal, n)
        for k in range(1, 6):
            _, state = simulate_pulse(state, probe_ideal, rng)
            expected = (2.0 / 3.0) * n / (1.0 + k * zeta)
            assert state.cov[2, 2] == pytest.approx(expected, rel=1e-10)

    def test_kalman_mean_tracks_truth(self, probe_ideal):
        # Monte Carlo: the posterior mean error matches the posterior
        # variance after several pulses on a frozen spin.
        rng = np.random.default_rng(8)
        n = 5e5
        k = 3
        m = 20_000
        prior = 2.0 / 3.0 * n
        sigma = readout_noise_sigma(probe_ideal)
        z = math.sqrt(prior) * rng.standard_normal(m)
        post_var_pred = prior / (1.0 + k * prior / sigma**2)
        measurements = z[:, None] + sigma * rng.standard_normal((m, k))
        # Conjugate-Gaussian posterior mean with prior N(0, prior).
        weight = (prior / (prior + sigma**2 / k))
        post_mean = weight * measurements.mean(axis=1)
        err_var = np.var(z - post_mean, ddof=1)
        assert err_var == pytest.approx(post_var_pred, rel=0.05)


class TestCalibrateG1:
    def test_noiseless_recovery(self):
        n = np.linspace(1e5, 1.5e6, 8)
        pairs = [(9.0e-8 * x, x) for x in n]
        slope, stderr = calibrate_g1(pairs)
        assert slope == pytest.approx(9.0e-8, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-18)

    def test_all_zero_phi(self):
        pairs = [(0.0, 1e5), (0.0, 2e5), (0.0, 3e5)]
        slope, _ = calibrate_g1(pairs)
        assert slope == 0.0

    def test_noisy_pairs_report_uncertainty(self):
        rng = np.random.default_rng(9)
        n = rng.uniform(2e5, 1.5e6, 50)
        phi = 9.0e-8 * n + rng.standard_normal(50) * 2e-3
        slope, stderr = calibrate_g1(np.column_stack([phi, n]))
        assert slope == pytest.approx(9.0e-8, rel=0.05)
        assert 0 < stderr < 0.2 * slope

    def test_constant_atoms_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_g1([(1.0, 1e5), (1.1, 1e5)])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_g1([(1.0, 1e5)])


def test_backaction_flag_perturbs_transverse():
    probe = ProbeConfig(efficiency=1.0, light_backaction=True)
    state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * 1e6 * np.eye(3))
    rng = np.random.default_rng(10)
    outcome, post = simulate_pulse(state, probe, rng)
    # The rotation about z is tiny (angle std g1 sqrt(N_L)/2 ~ 1e-3 rad)
    # and never touches the measured z component.
    assert outcome.backaction_angle != 0.0
    assert abs(outcome.backaction_angle) < 0.01
    assert post.cov[2, 2] == pytest.approx(
        state.cov[2, 2] / (1 + snr(probe, 1e6)), rel=1e-9
    )
