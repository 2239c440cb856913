import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import (
    GYROMAGNETIC_RATIO,
    CollectiveSpinState,
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    apply_rotation,
    engine_covariance,
    larmor_period,
    larmor_rotation_matrix,
)
from tests.conftest import FIELD_111


def rodrigues_oracle(axis, angle):
    """Independent Rodrigues evaluation for rotation tests."""
    n = np.asarray(axis, float) / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def random_psd(rng, scale=1.0):
    a = rng.standard_normal((3, 3))
    return a @ a.T * scale


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def thermal_cov(field, n_atoms):
    """The engine's prepared covariance: its first-round block with no readout noise."""
    cfg = SequenceConfig(field=field, probe=ProbeConfig(readout_noise_override=0.0))
    return engine_covariance(cfg, n_atoms)[:3, :3]


class TestThermalState:
    """The spin-1 thermal state, (2/3) N per axis, as the engine prepares it."""

    def test_paper_variance(self, field):
        assert np.allclose(thermal_cov(field, 1.5e6), np.eye(3) * 1.0e6, rtol=1e-12, atol=1e-6)

    def test_empty_ensemble(self, field):
        assert np.all(thermal_cov(field, 0.0) == 0.0)

    def test_supplementary_ideal_covariance(self, field):
        # Quoted as diag(0.93, 0.93, 0.93)e6 at N_A = 1.4e6.
        var = np.diag(thermal_cov(field, 1.4e6))
        assert var == pytest.approx(np.full(3, 2.0 / 3.0 * 1.4e6))
        assert var == pytest.approx(np.full(3, 0.933e6), rel=5e-3)

    def test_trace_identity(self, field):
        for n in (1.0, 1e3, 2.7e6):
            assert np.trace(thermal_cov(field, n)) == pytest.approx(2.0 * n)

    def test_negative_atoms_rejected(self, field):
        with pytest.raises(ValueError, match="n_atoms must be non-negative"):
            thermal_cov(field, -1.0)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CollectiveSpinState(np.zeros(3), cov)

    def test_indefinite_cov_rejected(self):
        cov = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="semidefinite"):
            CollectiveSpinState(np.zeros(3), cov)


class TestLarmorRotation:
    def test_third_period_permutation(self, field):
        t_l = larmor_period(field)
        r = larmor_rotation_matrix(field, t_l / 3.0)
        oracle = rodrigues_oracle(np.ones(3), 2.0 * math.pi / 3.0)
        assert np.allclose(r, oracle, atol=1e-12)
        permutation = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.allclose(r, permutation, atol=1e-12)
        # z -> x, x -> y, y -> z
        assert np.allclose(r @ [0, 0, 1], [1, 0, 0], atol=1e-12)
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        assert np.allclose(r @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    def test_zero_time_identity(self, field):
        assert np.array_equal(larmor_rotation_matrix(field, 0.0), np.eye(3))

    def test_full_period_identity(self, field):
        r = larmor_rotation_matrix(field, larmor_period(field))
        assert np.allclose(r, np.eye(3), atol=1e-12)

    def test_zero_field_identity(self):
        f = MagneticField(np.zeros(3))
        assert np.array_equal(larmor_rotation_matrix(f, 1e-3), np.eye(3))

    def test_three_steps_compose_to_identity(self, field):
        step = larmor_rotation_matrix(field, larmor_period(field) / 3.0)
        assert np.allclose(step @ step @ step, np.eye(3), atol=1e-9)

    @given(
        t1=st.floats(0.0, 3e-4),
        t2=st.floats(0.0, 3e-4),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_parameter_group(self, t1, t2):
        f = MagneticField(FIELD_111)
        lhs = larmor_rotation_matrix(f, t1 + t2)
        rhs = larmor_rotation_matrix(f, t2) @ larmor_rotation_matrix(f, t1)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestApplyRotation:
    def test_isotropic_invariance(self):
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * 1e6 * np.eye(3))
        r = random_rotation(np.random.default_rng(3))
        out = apply_rotation(state, r)
        assert np.allclose(out.cov, state.cov, atol=1e-9 * state.cov[0, 0])

    def test_mean_permutation(self):
        state = CollectiveSpinState([0.0, 0.0, 7.0], np.eye(3))
        z_to_x = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        out = apply_rotation(state, z_to_x)
        assert np.allclose(out.mean, [7.0, 0.0, 0.0])

    def test_trace_and_norm_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cov = random_psd(rng, 1e5)
            mean = rng.standard_normal(3) * 100
            state = CollectiveSpinState(mean, cov)
            out = apply_rotation(state, random_rotation(rng))
            assert np.trace(out.cov) == pytest.approx(np.trace(cov), rel=1e-9)
            assert np.linalg.norm(out.mean) == pytest.approx(
                np.linalg.norm(mean), rel=1e-9
            )

    def test_psd_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = CollectiveSpinState(np.zeros(3), random_psd(rng, 42.0))
            out = apply_rotation(state, random_rotation(rng))
            assert np.linalg.eigvalsh(out.cov).min() >= -1e-9 * np.trace(out.cov)

    def test_non_orthogonal_rejected(self):
        state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * 10.0 * np.eye(3))
        with pytest.raises(ValueError, match="orthogonal"):
            apply_rotation(state, np.eye(3) * 1.1)


class TestLarmorPeriod:
    def test_paper_field(self, field):
        assert larmor_period(field) == pytest.approx(85e-6, rel=1e-3)

    def test_gamma_consistency(self):
        # gamma/2pi implied by the 16.9 mG <-> 85 us pair is ~696 kHz/G.
        implied = 1.0 / (85e-6 * 16.9e-3)
        assert GYROMAGNETIC_RATIO / (2 * math.pi) == pytest.approx(implied, rel=2e-4)
        assert implied == pytest.approx(696e3, rel=1e-3)

    def test_cross_check_field(self):
        f = MagneticField(np.ones(3) * 15.9e-3 / math.sqrt(3.0))
        # Quoted as 90 +/- 3 us in the cross-check data set.
        assert larmor_period(f) == pytest.approx(90e-6, rel=3 / 90)

    def test_zero_field_error(self):
        with pytest.raises(ValueError, match="infinite"):
            larmor_period(MagneticField(np.zeros(3)))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_rotated_tss_covariances_stay_psd(seed):
    rng = np.random.default_rng(seed)
    n = float(rng.uniform(0, 2e6))
    state = CollectiveSpinState(np.zeros(3), 2.0 / 3.0 * n * np.eye(3) + random_psd(rng, 1e4))
    out = apply_rotation(state, random_rotation(rng))
    assert np.max(np.abs(out.cov - out.cov.T)) <= 1e-9 * max(np.trace(out.cov), 1.0)
    assert np.linalg.eigvalsh(out.cov).min() >= -1e-9 * max(np.trace(out.cov), 1.0)
