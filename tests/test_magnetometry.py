import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from singletsim import (
    EstimationError,
    SchemaError,
    fid_signal,
    fit_fid,
)
from singletsim.magnetometry import (
    _unit_field_terms,
    fid_jacobian,
    read_fid_csv,
    write_estimate_json,
)
from singletsim.spins import GYROMAGNETIC_RATIO

G1 = 9.0e-8
F0 = 1.0e6
B_PAPER = np.array([9.6e-3, 9.7e-3, 9.9e-3])
T2_PAPER = 745e-6

# Synthetic-trace sampling: resolves a ~10 kHz Larmor line and a
# sub-millisecond envelope.
DEFAULT_SAMPLING_S = 0.5e-6
DEFAULT_DURATION_S = 1.5e-3


def time_grid(duration=DEFAULT_DURATION_S, dt=DEFAULT_SAMPLING_S):
    return np.arange(0.0, duration, dt)


def ode_oracle(t_grid, b, init_axis, f0, t2, gamma=GYROMAGNETIC_RATIO):
    """Integrate the precession dF/dt = gamma (B x F) and apply the
    Gaussian envelope to the oscillatory (transverse) part."""
    b = np.asarray(b, float)
    f_init = np.array([0.0, 0.0, f0]) if init_axis == "z" else np.array([0.0, f0, 0.0])
    # gamma (B x F) as a matrix product: np.cross costs more per call than
    # the whole DOP853 step it sits in.
    omega = gamma * np.array([[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]])
    sol = solve_ivp(
        lambda _, y: omega @ y,
        (0.0, float(t_grid[-1])),
        f_init,
        t_eval=t_grid,
        method="DOP853",
        rtol=1e-12,
        atol=1e-8 * max(abs(f0), 1.0),
    )
    n = b / np.linalg.norm(b)
    steady = (f_init @ n) * n[2]
    envelope = np.exp(-(t_grid**2) / t2**2)
    return G1 * (steady + (sol.y[2] - steady) * envelope)


def synthetic_branch(b, init_axis, t=None, noise=0.0, seed=0):
    t = time_grid() if t is None else t
    theta = fid_signal(t, b, init_axis, F0, G1, T2_PAPER)
    if noise:
        rng = np.random.default_rng(seed)
        theta = theta + noise * G1 * F0 * rng.standard_normal(len(t))
    return list(zip(t, theta))


class TestFidSignal:
    def test_field_aligned_z_branch_is_constant(self):
        t = time_grid()
        theta = fid_signal(t, [0.0, 0.0, 12e-3], "z", F0, G1, T2_PAPER)
        assert np.allclose(theta, G1 * F0)

    def test_y_branch_starts_at_zero(self):
        assert fid_signal(0.0, B_PAPER, "y", F0, G1, T2_PAPER) == pytest.approx(0.0)

    def test_z_branch_starts_at_full_signal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = rng.uniform(-20e-3, 20e-3, 3)
            if np.linalg.norm(b) < 1e-4:
                continue
            assert fid_signal(0.0, b, "z", F0, G1, T2_PAPER) == pytest.approx(
                G1 * F0, rel=1e-12
            )

    def test_zero_field_limits(self):
        t = time_grid()
        assert np.allclose(fid_signal(t, np.zeros(3), "z", F0, G1, T2_PAPER), G1 * F0)
        assert np.allclose(fid_signal(t, np.zeros(3), "y", F0, G1, T2_PAPER), 0.0)

    def test_z_branch_without_its_sin_term_keeps_its_bits(self):
        # On the z branch s = (n x z)_z is exactly 0, so the sin term is
        # skipped; with a != 0 the one form, sin term included, gives the
        # same doubles.
        t = time_grid()
        b_mag, _, a, c, s, _, _ = _unit_field_terms(B_PAPER, "z")
        assert s == 0.0 and a != 0.0
        omega = GYROMAGNETIC_RATIO * b_mag * t
        osc = c * np.cos(omega) + s * np.sin(omega)
        want = G1 * F0 * (a + osc * np.exp(-(t**2) / T2_PAPER**2))
        assert fid_signal(t, B_PAPER, "z", F0, G1, T2_PAPER).tobytes() == want.tobytes()

    def test_z_branch_even_in_time(self):
        t = np.linspace(0.0, 5e-4, 100)
        forward = fid_signal(t, B_PAPER, "z", F0, G1, T2_PAPER)
        backward = fid_signal(-t, B_PAPER, "z", F0, G1, T2_PAPER)
        assert np.allclose(forward, backward)

    def test_envelope_bound(self):
        # |theta| never exceeds g1*f0: the envelope only shrinks the
        # precessing part of a fixed-length spin.
        rng = np.random.default_rng(1)
        t = time_grid()
        for _ in range(50):
            b = rng.uniform(-25e-3, 25e-3, 3)
            if np.linalg.norm(b) < 1e-4:
                continue
            for axis in ("z", "y"):
                theta = fid_signal(t, b, axis, F0, G1, rng.uniform(1e-4, 2e-3))
                assert np.max(np.abs(theta)) <= G1 * F0 * (1 + 1e-12)

    def test_matches_ode_oracle(self):
        rng = np.random.default_rng(2)
        t = time_grid(duration=1.0e-3, dt=5e-6)
        for _ in range(10):
            b = rng.uniform(-20e-3, 20e-3, 3)
            if np.linalg.norm(b) < 2e-3:
                continue
            t2 = rng.uniform(2e-4, 1.5e-3)
            for axis in ("z", "y"):
                model = fid_signal(t, b, axis, F0, G1, t2)
                oracle = ode_oracle(t, b, axis, F0, t2)
                peak = np.max(np.abs(oracle))
                assert np.max(np.abs(model - oracle)) < 1e-6 * peak

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fid_signal(0.0, B_PAPER, "x", F0, G1, T2_PAPER)
        with pytest.raises(ValueError):
            fid_signal(0.0, B_PAPER, "z", F0, G1, 0.0)

    @pytest.mark.parametrize("b", [np.zeros(3), B_PAPER], ids=["zero-field", "paper-field"])
    def test_signal_and_jacobian_refuse_other_axes(self, b):
        # At zero field the model is a constant that needs no field
        # arithmetic: the refusal must still come first there.
        with pytest.raises(ValueError, match="init_axis"):
            fid_signal(np.zeros(3), b, "x", F0, G1, T2_PAPER)
        with pytest.raises(ValueError, match="init_axis"):
            fid_jacobian(np.zeros(3), (*b, T2_PAPER, F0), "x", G1)


class TestFitFid:
    def test_paper_field_recovery(self):
        est = fit_fid(
            synthetic_branch(B_PAPER, "z"), synthetic_branch(B_PAPER, "y"), G1
        )
        assert np.allclose(est.b, B_PAPER, rtol=1e-6)
        assert est.t2 == pytest.approx(T2_PAPER, rel=1e-6)
        assert est.f0 == pytest.approx(F0, rel=1e-6)
        assert est.flags == ()
        assert est.covariance.shape == (5, 5)

    def test_noisy_recovery(self):
        est = fit_fid(
            synthetic_branch(B_PAPER, "z", noise=0.05, seed=3),
            synthetic_branch(B_PAPER, "y", noise=0.05, seed=4),
            G1,
        )
        assert np.allclose(est.b, B_PAPER, rtol=0.05)
        assert est.t2 == pytest.approx(T2_PAPER, rel=0.05)
        assert np.all(np.diag(est.covariance) > 0)

    def test_z_only_recovers_bz_flags_transverse_split(self):
        # With only the z branch the transverse magnitude is known but
        # its x/y split is not; Bz itself is recovered.
        b = np.array([0.5e-3, 0.0, 9.9e-3])
        est = fit_fid(synthetic_branch(b, "z"), [], G1)
        assert est.b[2] == pytest.approx(9.9e-3, rel=1e-6)
        assert math.hypot(est.b[0], est.b[1]) == pytest.approx(0.5e-3, rel=1e-4)
        assert "degenerate_geometry" in est.flags

    def test_fully_degenerate_geometry_flagged(self):
        # Field parallel to the polarization: nothing precesses, so the
        # trace is constant and the field is unconstrained.
        b = np.array([0.0, 0.0, 9.9e-3])
        est = fit_fid(synthetic_branch(b, "z"), [], G1)
        assert any(f.startswith("unconstrained:") for f in est.flags)
        assert "degenerate_geometry" in est.flags

    def test_sign_degenerate_twin_reported(self):
        b = np.array([9.6e-3, -9.7e-3, -9.9e-3])
        est = fit_fid(synthetic_branch(b, "z"), synthetic_branch(b, "y"), G1)
        # Canonical representative has Bz >= 0; the data-equivalent twin
        # is the simultaneous (By, Bz) sign flip, i.e. the generator.
        assert est.b[2] > 0
        twin = np.asarray(est.equivalent_solutions[0])
        assert np.allclose(twin, b, rtol=1e-6)
        t = time_grid()
        for axis in ("z", "y"):
            assert np.allclose(
                fid_signal(t, est.b, axis, est.f0, G1, est.t2),
                fid_signal(t, twin, axis, est.f0, G1, est.t2),
                atol=1e-12 * G1 * F0,
            )

    def test_too_few_samples(self):
        with pytest.raises(EstimationError):
            fit_fid([(0.0, 1.0)], [(0.0, 0.0)], G1)

    def test_grid_refinement_invariance(self):
        coarse = fit_fid(
            synthetic_branch(B_PAPER, "z", t=time_grid(dt=1.0e-6)),
            synthetic_branch(B_PAPER, "y", t=time_grid(dt=1.0e-6)),
            G1,
        )
        fine = fit_fid(
            synthetic_branch(B_PAPER, "z", t=time_grid(dt=0.25e-6)),
            synthetic_branch(B_PAPER, "y", t=time_grid(dt=0.25e-6)),
            G1,
        )
        assert np.allclose(coarse.b, fine.b, rtol=1e-6)
        assert coarse.t2 == pytest.approx(fine.t2, rel=1e-6)


class TestFidIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "fid.csv"
        rows = ["t_us,theta_rad,branch"]
        t = time_grid(duration=2e-4)
        for ti, theta in synthetic_branch(B_PAPER, "z", t=t):
            rows.append(f"{float(ti) * 1e6!r},{float(theta)!r},z")
        for ti, theta in synthetic_branch(B_PAPER, "y", t=t):
            rows.append(f"{float(ti) * 1e6!r},{float(theta)!r},y")
        path.write_text("\n".join(rows) + "\n")
        z_samples, y_samples = read_fid_csv(path)
        assert len(z_samples) == len(t)
        assert len(y_samples) == len(t)
        assert z_samples.shape == y_samples.shape == (len(t), 2)
        assert z_samples[0, 1] == pytest.approx(G1 * F0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,angle\n0,0\n")
        with pytest.raises(SchemaError, match="t_us"):
            read_fid_csv(path)

    def test_bad_branch(self, tmp_path):
        path = tmp_path / "bad_branch.csv"
        path.write_text("t_us,theta_rad,branch\n0.0,0.0,w\n")
        with pytest.raises(SchemaError, match="branch"):
            read_fid_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_fid_csv(path)

    def test_negative_time_names_line(self, tmp_path):
        path = tmp_path / "negative_t.csv"
        path.write_text("t_us,theta_rad,branch\n0.0,0.0,z\n-1.0,0.0,z\n")
        with pytest.raises(SchemaError, match=":3: t must be non-negative"):
            read_fid_csv(path)

    def test_estimate_json(self, tmp_path):
        est = fit_fid(
            synthetic_branch(B_PAPER, "z"), synthetic_branch(B_PAPER, "y"), G1
        )
        path = tmp_path / "estimate.json"
        write_estimate_json(path, est)
        payload = json.loads(path.read_text())
        assert payload["bx_mG"] == pytest.approx(9.6, rel=1e-6)
        assert payload["by_mG"] == pytest.approx(9.7, rel=1e-6)
        assert payload["bz_mG"] == pytest.approx(9.9, rel=1e-6)
        assert payload["t2_us"] == pytest.approx(745.0, rel=1e-6)
        assert len(payload["covariance"]) == 5
        assert payload["flags"] == []
