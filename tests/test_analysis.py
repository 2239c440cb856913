import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import (
    AnalysisOptions,
    EstimationError,
    FitError,
    SequenceConfig,
    analyze_dataset,
    conditional_covariance,
    cutoff_scan,
    fit_noise_scaling,
    fit_snr_model,
    readout_noise_sigma,
    run_campaign,
    sample_covariance,
    select_shots,
    simulate_shots,
    snr,
    squeezing_parameter,
)
from singletsim.analysis import report_dict, write_noise_scaling_csv, write_report
from singletsim.sequence import CampaignConfig
from singletsim.spins import PSD_RTOL
from tests.conftest import schur_trace, shot_table


class TestSampleCovariance:
    def test_identical_vectors(self):
        vecs = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert np.array_equal(sample_covariance(vecs), np.zeros((3, 3)))

    def test_hand_arithmetic(self):
        # Unbiased estimator of {(0,0,0), (2,0,0)}: deviations +/-1 along
        # the first axis, divided by n-1 = 1.
        vecs = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert np.array_equal(sample_covariance(vecs), np.diag([2.0, 0.0, 0.0]))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(0)
        true = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.6], [0.5, -0.6, 2.0]])
        m = 100_000
        x = rng.multivariate_normal(np.zeros(3), true, size=m)
        est = sample_covariance(x)
        for i in range(3):
            for j in range(3):
                se = math.sqrt((true[i, i] * true[j, j] + true[i, j] ** 2) / m)
                assert abs(est[i, j] - true[i, j]) < 3 * se

    def test_too_few(self):
        with pytest.raises(EstimationError):
            sample_covariance(np.ones((1, 3)))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        est = sample_covariance(rng.standard_normal((50, 3)))
        assert np.array_equal(est, est.T)


class TestConditionalCovariance:
    def test_uncorrelated(self):
        g1 = np.diag([2.0, 3.0, 4.0])
        g2 = np.diag([5.0, 6.0, 7.0])
        out = conditional_covariance(g1, g2, np.zeros((3, 3)))
        assert np.array_equal(out.matrix, g2)
        assert not out.pinv_used

    def test_perfect_correlation(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + np.eye(3)
        out = conditional_covariance(sigma, sigma, sigma)
        assert np.allclose(out.matrix, 0.0, atol=1e-9)

    def test_regression_residual_equivalence(self):
        # Empirical covariance of f2 - A f1 with A the regression matrix
        # equals the Schur complement.
        rng = np.random.default_rng(3)
        m = 100_000
        shared = rng.standard_normal((m, 3)) @ np.diag([2.0, 1.0, 0.5])
        f1 = shared + rng.standard_normal((m, 3))
        f2 = shared + rng.standard_normal((m, 3))
        c6 = sample_covariance(np.hstack([f1, f2]))
        g1, g2, g12 = c6[:3, :3], c6[3:, 3:], c6[:3, 3:]
        cond = conditional_covariance(g1, g2, g12).matrix
        a = np.linalg.solve(g1, g12).T
        resid_cov = sample_covariance(f2 - f1 @ a.T)
        scale = np.trace(cond) / 3
        assert np.allclose(resid_cov, cond, atol=3 * scale * math.sqrt(2.0 / m) * 3)

    def test_singular_first_block_flagged(self):
        g1 = np.diag([1.0, 1.0, 0.0])
        g2 = np.eye(3)
        g12 = np.diag([0.5, 0.5, 0.0])
        out = conditional_covariance(g1, g2, g12)
        assert out.pinv_used
        assert np.all(np.isfinite(out.matrix))
        assert out.matrix[2, 2] == pytest.approx(1.0)

    def test_trace_never_exceeds_unconditional(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal((200, 6))
            c6 = sample_covariance(x)
            out = conditional_covariance(c6[:3, :3], c6[3:, 3:], c6[:3, 3:])
            assert out.trace <= np.trace(c6[3:, 3:]) + 1e-9


def random_joint_covariance(rng, scale, g1_rank):
    """A PSD 6x6 covariance of (f1, f2) whose first-round block has rank ``g1_rank``."""
    a = rng.standard_normal((6, 12))
    if g1_rank < 3:
        a[:3] = rng.standard_normal((3, g1_rank)) @ a[:g1_rank]
    return scale * (a @ a.T)


def blocks(joint):
    return joint[..., :3, :3], joint[..., 3:, 3:], joint[..., :3, 3:]


def assert_schur_bounds(joint, cond):
    """PSD, and trace at most trace(g2), both up to PSD_RTOL * trace(g2)."""
    g2_trace = np.trace(joint[..., 3:, 3:], axis1=-2, axis2=-1)
    slack = PSD_RTOL * g2_trace
    assert np.all(cond.trace <= g2_trace + slack)
    assert np.all(np.linalg.eigvalsh(cond.matrix)[..., 0] >= -slack)


@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 12.0),
    g1_rank=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_schur_complement_psd_and_bounded(seed, log_scale, g1_rank):
    joint = random_joint_covariance(np.random.default_rng(seed), 10.0**log_scale, g1_rank)
    cond = conditional_covariance(*blocks(joint))
    # A rank-deficient first block takes the pseudo-inverse path.
    assert cond.pinv_used == (g1_rank < 3)
    assert_schur_bounds(joint, cond)


@given(
    seed=st.integers(0, 2**32 - 1),
    ranks=st.lists(st.integers(1, 3), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_schur_complement_stack(seed, ranks):
    rng = np.random.default_rng(seed)
    joint = np.stack([random_joint_covariance(rng, 1e6, r) for r in ranks])
    cond = conditional_covariance(*blocks(joint))
    assert cond.pinv_used.tolist() == [r < 3 for r in ranks]
    assert_schur_bounds(joint, cond)
    # Each block of the stack is conditioned on its own.
    for block, matrix in zip(joint, cond.matrix):
        single = conditional_covariance(*blocks(block)).matrix
        assert np.allclose(matrix, single, rtol=0.0, atol=1e-12 * np.trace(block))


class TestSelectShots:
    def _make(self, rng, m=2000, n_atoms=1e6, spread=1.2e3, n_refs=0):
        f1 = rng.standard_normal((m, 3)) * spread
        f2 = f1 + rng.standard_normal((m, 3)) * 100.0
        if n_refs:
            f1 = np.vstack([f1, rng.standard_normal((n_refs, 3))])
            f2 = np.vstack([f2, rng.standard_normal((n_refs, 3))])
        is_ref = np.arange(m + n_refs) >= m
        return shot_table(f1, f2, np.where(is_ref, 0.0, n_atoms), is_ref)

    def test_infinite_cutoff_selects_all(self):
        table = self._make(np.random.default_rng(8))
        assert len(select_shots(table, math.inf)) == len(table)

    def test_monotone_in_cutoff(self):
        table = self._make(np.random.default_rng(9))
        counts = [len(select_shots(table, c)) for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts)

    def test_ball_semantics_global(self):
        table = self._make(np.random.default_rng(10))
        cutoff = 0.75
        selected = select_shots(table, cutoff, mean_mode="global").seq_index.tolist()
        f1 = table.f1
        center = f1.mean(axis=0)
        inside = [
            int(table.seq_index[i])
            for i in range(len(table))
            if np.sum((f1[i] - center) ** 2) < cutoff * table.n_atoms[i]
        ]
        assert selected == inside

    def test_empty_selection_ok(self):
        table = self._make(np.random.default_rng(11), spread=1e5)
        assert len(select_shots(table, 1e-6)) == 0

    def test_reference_shots_excluded(self):
        table = self._make(np.random.default_rng(12), n_refs=5)
        selected = select_shots(table, math.inf)
        assert not selected.is_reference.any()

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            select_shots(shot_table(np.empty((0, 3)), np.empty((0, 3)), []), 0.0)


class TestSqueezingParameter:
    def test_thermal_state_is_twice_sql(self):
        w = squeezing_parameter(2.0e6, 1.0e6)
        assert w.xi2 == pytest.approx(2.0)
        assert w.entangled_atoms_lower_bound == 0.0

    def test_sql_boundary(self):
        w = squeezing_parameter(1.0e6, 1.0e6)
        assert w.xi2 == pytest.approx(1.0)
        assert w.entangled_atoms_lower_bound == 0.0

    def test_paper_entanglement_bound(self):
        # xi2 = 0.50 at 1.1e6 atoms bounds 5.5e5 entangled atoms.
        w = squeezing_parameter(0.50 * 1.1e6, 1.1e6)
        assert w.xi2 == pytest.approx(0.50)
        assert w.entangled_atoms_lower_bound == pytest.approx(5.5e5)

    def test_negative_variance_flagged_not_clamped(self):
        w = squeezing_parameter(-1e4, 1e6)
        assert w.negative_variance
        assert w.xi2 == pytest.approx(-0.01)

    def test_bootstrap_stderr_scale(self):
        rng = np.random.default_rng(13)
        m = 20_000
        vectors = rng.standard_normal((m, 3)) * 800.0
        v = float(np.trace(sample_covariance(vectors)))
        n_atoms = 1e6
        w = squeezing_parameter(
            v, n_atoms, vectors=vectors, n_resamples=400, rng=np.random.default_rng(0)
        )
        # Three iid channels: se(v)/fN ~ v*sqrt(2/3m)/fN.
        expected = v * math.sqrt(2.0 / (3 * m)) / n_atoms
        assert w.xi2_stderr == pytest.approx(expected, rel=0.3)
        # xi2 ~ 1.9 here: no squeezing, so no detection significance.
        assert w.significance_sigmas == 0.0
        squeezed = squeezing_parameter(
            v, 4e6, vectors=vectors, n_resamples=400, rng=np.random.default_rng(0)
        )
        assert squeezed.xi2 < 1.0
        assert squeezed.significance_sigmas > 0.0


class TestNoiseScalingFit:
    def test_exact_recovery_fixed_linear(self):
        n = np.linspace(2e5, 1.5e6, 7)
        v = 1.0e6 + 2.0 * n + 1e-7 * n**2
        fit = fit_noise_scaling(np.column_stack([n, v]), fix_linear=True)
        assert fit.params["v0"] == pytest.approx(1.0e6, rel=1e-9)
        assert fit.params["c"] == pytest.approx(1e-7, rel=1e-9)
        assert fit.params["a"] == 2.0
        assert fit.residual_norm < 1e-3

    def test_exact_recovery_free_linear(self):
        n = np.linspace(2e5, 1.5e6, 7)
        v = 9.2e5 + 0.9 * n - 4e-7 * n**2
        fit = fit_noise_scaling(np.column_stack([n, v]), fix_linear=False)
        assert fit.params["v0"] == pytest.approx(9.2e5, rel=1e-9)
        assert fit.params["a"] == pytest.approx(0.9, rel=1e-9)
        # Negative curvature is reported as-is.
        assert fit.params["c"] == pytest.approx(-4e-7, rel=1e-9)
        assert fit.model_tag == "noise_scaling_free_linear"

    def test_stderrs_from_noise(self):
        rng = np.random.default_rng(14)
        n = np.linspace(2e5, 1.5e6, 10)
        v = 1.0e6 + 2.0 * n + 1e-7 * n**2 + rng.standard_normal(10) * 5e4
        fit = fit_noise_scaling(np.column_stack([n, v]), fix_linear=True)
        assert fit.stderrs["v0"] > 0
        assert fit.params["v0"] == pytest.approx(1.0e6, abs=5 * fit.stderrs["v0"])

    def test_too_few_distinct_points(self):
        with pytest.raises(FitError, match="distinct"):
            fit_noise_scaling([(1e5, 1.0), (1e5, 2.0), (2e5, 3.0)], fix_linear=True)
        with pytest.raises(FitError, match="distinct"):
            fit_noise_scaling(
                [(1e5, 1.0), (2e5, 2.0), (3e5, 3.0)], fix_linear=False
            )


class TestSnrModelFit:
    def _points(self, probe, b, n_values):
        return [(n, 2.0 * n / (1.0 + b * snr(probe, n))) for n in n_values]

    def test_noiseless_recovery(self, probe_ideal):
        pts = self._points(probe_ideal, 0.75, np.linspace(2e5, 1.5e6, 8))
        fit = fit_snr_model(pts, probe_ideal)
        assert fit.params["b"] == pytest.approx(0.75, rel=1e-6)

    def test_unit_efficiency(self, probe_ideal):
        pts = self._points(probe_ideal, 1.0, np.linspace(2e5, 1.5e6, 8))
        fit = fit_snr_model(pts, probe_ideal)
        assert fit.params["b"] == pytest.approx(1.0, rel=1e-6)

    def test_noisy_recovery_with_weights(self, probe_ideal):
        rng = np.random.default_rng(15)
        n_values = np.linspace(2e5, 1.5e6, 10)
        sigma = 0.05 * 2.0 * n_values
        pts = [
            (n, v + rng.standard_normal() * s)
            for (n, v), s in zip(self._points(probe_ideal, 0.75, n_values), sigma)
        ]
        fit = fit_snr_model(pts, probe_ideal, sigma=sigma)
        assert fit.params["b"] == pytest.approx(0.75, abs=3 * fit.stderrs["b"])
        assert 0 < fit.stderrs["b"] < 0.2

    def test_weight_perturbation_stable(self, probe_ideal):
        # Weights perturbed at the rounding level move b by rounding only;
        # a finite-difference Jacobian moved it by ~1e-9 relative.
        rng = np.random.default_rng(16)
        n_values = np.linspace(2e5, 1.5e6, 10)
        sigma = 0.05 * 2.0 * n_values
        pts = [
            (n, v + rng.standard_normal() * s)
            for (n, v), s in zip(self._points(probe_ideal, 0.75, n_values), sigma)
        ]
        b = fit_snr_model(pts, probe_ideal, sigma=sigma).params["b"]
        for _ in range(20):
            perturbed = sigma * (1.0 + 1e-15 * rng.standard_normal(len(sigma)))
            b_p = fit_snr_model(pts, probe_ideal, sigma=perturbed).params["b"]
            assert b_p == pytest.approx(b, rel=1e-13, abs=0)

    # (n_atoms_mean, v_cond_tilde, xi2_stderr) of the ten report bins of
    # the published operating point (config {}, seed 1).
    PUBLISHED_BINS = (
        (256343.08235620422, 328242.4306467618, 0.23279448058748803),
        (311069.264200457, 436423.5100766383, 0.22234909009336282),
        (377228.170970044, 552536.1306520086, 0.18169845255873432),
        (457521.805729483, 605474.7777495533, 0.14929049662004817),
        (554657.7579247423, 642458.844947638, 0.13064914668042515),
        (679574.3947217048, 885319.7443007943, 0.12228835982921135),
        (824700.6258267052, 826815.1249991171, 0.08864138120708866),
        (1000208.5521571296, 857983.3015691708, 0.0783770653741149),
        (1212966.3872724809, 909757.9004661487, 0.06693955488338221),
        (1470439.2605919004, 1234615.5747936321, 0.060268927415904575),
    )

    def test_reaches_weighted_optimum(self, probe_paper):
        # Newton iteration on the gradient sum(J * r) of the weighted cost
        # finds its stationary point; the fit must reach it rather than stop
        # on a loose cost-reduction tolerance (1e-8 left b 9.5e-8 short).
        n, v, xi2_stderr = np.array(self.PUBLISHED_BINS).T
        sigma = xi2_stderr * n
        b = fit_snr_model(zip(n, v), probe_paper, sigma=sigma).params["b"]

        zeta = np.array([snr(probe_paper, x) for x in n])
        w = 1.0 / sigma
        b_star = b
        for _ in range(50):
            d = 1.0 + b_star * zeta
            r = (2.0 * n / d - v) * w
            jac = -2.0 * n * zeta * w / d**2
            djac = 4.0 * n * zeta**2 * w / d**3
            b_star -= float(jac @ r) / float(jac @ jac + r @ djac)
        assert b == pytest.approx(b_star, rel=1e-8, abs=0)

    def test_bad_input(self, probe_ideal):
        with pytest.raises(FitError):
            fit_snr_model([(1e5, 1.0)], probe_ideal)


def synthetic_campaign(probe, seed=0, n_cycles=60, initial_atoms=1.5e6):
    from tests.conftest import FIELD_111
    from singletsim import MagneticField

    cfg = SequenceConfig(field=MagneticField(FIELD_111), probe=probe)
    campaign = CampaignConfig(
        n_cycles=n_cycles, initial_atoms=initial_atoms, master_seed=seed
    )
    return run_campaign(campaign, cfg), cfg


class TestAnalyzeDataset:
    def test_conditional_path_matches_kalman(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=21)
        options = AnalysisOptions(n_bins=6, n_resamples=120)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        assert result.bins
        for b in result.bins:
            n = b.report.n_atoms_mean
            predicted = 2.0 / (1.0 + snr(probe_ideal, n))
            # Bins hold ~120 shots; gate on the bootstrapped stderr.
            tol = 4 * b.witness.xi2_stderr + 0.05 * predicted
            assert b.witness.xi2 == pytest.approx(predicted, abs=tol)
            assert b.report.v_cond_tilde <= b.report.v2_tilde

    def test_reference_only_dataset(self, seq_ideal):
        f1, f2 = simulate_shots(seq_ideal, 0.0, 400, np.random.default_rng(22))
        table = shot_table(f1, f2, 0.0, is_reference=True)
        result = analyze_dataset(table, options=AnalysisOptions(n_resamples=50))
        assert result.bins == []
        assert abs(result.reference_v1_tilde) < 0.2 * result.v0

    def test_skipped_bins_reported(self, probe_ideal):
        rng = np.random.default_rng(23)
        f1 = rng.standard_normal((60, 3)) * 800
        f2 = f1 + rng.standard_normal((60, 3)) * 300
        # Spread atom numbers so the 4 quantile bins hold ~15 shots each,
        # below the 20-shot floor.
        n_atoms = rng.uniform(2e5, 1.5e6, 60)
        ref_f1 = rng.standard_normal((10, 3)) * 300
        ref_f2 = rng.standard_normal((10, 3)) * 300
        table = shot_table(
            np.vstack([f1, ref_f1]),
            np.vstack([f2, ref_f2]),
            np.append(n_atoms, np.zeros(10)),
            np.arange(70) >= 60,
        )
        options = AnalysisOptions(n_bins=4, min_bin_shots=20, n_resamples=50)
        result = analyze_dataset(table, options=options)
        assert result.bins == []
        assert len(result.skipped_bins) == 4
        assert all("reason" in s for s in result.skipped_bins)

    def test_report_schema(self, probe_ideal, tmp_path):
        table, _ = synthetic_campaign(probe_ideal, seed=24, n_cycles=40)
        options = AnalysisOptions(n_bins=5, n_resamples=80)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        payload = report_dict(result)
        assert set(payload) >= {"v0", "bins", "fits", "skipped_bins"}
        for entry in payload["bins"]:
            assert {
                "n_atoms_mean",
                "v1_tilde",
                "v2_tilde",
                "v_cond_tilde",
                "xi2",
                "xi2_stderr",
                "ent_bound",
            } <= set(entry)
        assert set(payload["fits"]) == {
            "unconditional_1",
            "unconditional_2",
            "conditional",
            "snr_model",
        }
        report_path = tmp_path / "report.json"
        write_report(report_path, result)
        loaded = json.loads(report_path.read_text())
        assert loaded["v0"] == pytest.approx(result.v0)
        csv_path = tmp_path / "scaling.csv"
        write_noise_scaling_csv(csv_path, result)
        header = csv_path.read_text().splitlines()[0]
        assert header == "n_atoms,v1_tilde,v2_tilde,v_cond_tilde"

    def test_fits_present_and_sane(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=25, n_cycles=150)
        options = AnalysisOptions(n_bins=8, n_resamples=100)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        fit1 = result.fits["unconditional_1"]
        assert fit1 is not None
        # Raw first-round variance: intercept ~ v0, linear term pinned to 2.
        assert fit1.params["a"] == 2.0
        assert fit1.params["v0"] == pytest.approx(result.v0, rel=0.25)
        snr_fit = result.fits["snr_model"]
        assert snr_fit is not None
        assert 0 < snr_fit.stderrs["b"] < 0.4
        assert snr_fit.params["b"] == pytest.approx(1.0, abs=4 * snr_fit.stderrs["b"])

    def test_analytic_v0(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=26, n_cycles=30)
        options = AnalysisOptions(n_bins=4, n_resamples=50, use_analytic_v0=True)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        assert result.v0 == pytest.approx(3 * readout_noise_sigma(probe_ideal) ** 2)

    def test_deterministic(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=27, n_cycles=30)
        options = AnalysisOptions(n_bins=4, n_resamples=60)
        r1 = analyze_dataset(table, probe=probe_ideal, options=options)
        r2 = analyze_dataset(table, probe=probe_ideal, options=options)
        assert report_dict(r1) == report_dict(r2)
        # The seed drives the bootstrap only: the witnesses stay, the stderrs move.
        r3 = analyze_dataset(table, probe=probe_ideal, options=replace(options, seed=1))
        assert [b.witness.xi2 for b in r3.bins] == [b.witness.xi2 for b in r1.bins]
        assert all(
            b3.witness.xi2_stderr != b1.witness.xi2_stderr for b1, b3 in zip(r1.bins, r3.bins)
        )

    @pytest.mark.parametrize("s, rtol", [(2.0, 0.0), (3.0, 1e-12)])
    def test_witness_scale_invariant(self, probe_ideal, s, rtol):
        # Readouts times s, atom numbers times s^2: every variance, v0
        # (from the scaled reference rows) and f * N scale by s^2 together,
        # so the witnesses and the selections do not move.  A power of two
        # scales every double exactly.
        table, _ = synthetic_campaign(probe_ideal, seed=30, n_cycles=60)
        scaled = shot_table(table.f1 * s, table.f2 * s, table.n_atoms * s**2, table.is_reference)
        # C = 3 leaves every bin enough selected shots for its own witness.
        options = AnalysisOptions(n_bins=4, n_resamples=200, cutoff=3.0)
        want = report_dict(analyze_dataset(table, options=options))["bins"]
        got = report_dict(analyze_dataset(scaled, options=options))["bins"]
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert w["xi2_selected"] is not None
            assert g["n_selected"] == w["n_selected"]
            for key in ("xi2", "xi2_stderr", "xi2_selected"):
                assert g[key] == pytest.approx(w[key], rel=rtol, abs=0), key


class TestCutoffScan:
    def test_row_grid(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=28, n_cycles=30)
        cutoffs = [0.25 * k for k in range(1, 13)]
        rows = cutoff_scan(
            table, cutoffs, probe_ideal, AnalysisOptions(n_resamples=50)
        )
        assert len(rows) == 12
        assert [r["C"] for r in rows] == pytest.approx(cutoffs)
        assert all(r["n_selected"] >= 0 for r in rows)

    def test_selected_counts_monotone(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=29, n_cycles=30)
        rows = cutoff_scan(
            table, [0.5, 1.0, 2.0, 4.0], probe_ideal, AnalysisOptions(n_resamples=50)
        )
        counts = [r["n_selected"] for r in rows]
        assert counts == sorted(counts)


def test_schur_kalman_consistency_on_batch(seq_ideal):
    # The empirical conditional trace matches the covariance-level
    # prediction from the probe model on a fresh batch.
    from singletsim import predicted_conditional_covariance

    n = 6e5
    f1, f2 = simulate_shots(seq_ideal, n, 50_000, np.random.default_rng(34))
    predicted = float(
        np.trace(
            predicted_conditional_covariance(np.eye(3) * (2 / 3) * n, seq_ideal.probe)
        )
    )
    assert schur_trace(f1, f2) == pytest.approx(predicted, rel=0.03)
