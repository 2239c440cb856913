import gc
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import (
    AnalysisOptions,
    EstimationError,
    FitError,
    ProbeConfig,
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
    snr,
    squeezing_parameter,
)
from singletsim import analysis
from singletsim.analysis import (
    _centred_dist2,
    _quantile_bins,
    _selection_witness,
    report_dict,
    resolve_v0,
    write_noise_scaling_csv,
    write_report,
)
from singletsim.cli import main
from singletsim.config import config_from_dict
from singletsim.sequence import CampaignConfig
from singletsim.spins import PSD_RTOL
from tests.conftest import engine_schur, fixed_n_campaign, schur_trace, shot_table

README = Path(__file__).resolve().parents[1] / "README.md"


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
        out = conditional_covariance(g1, g2, g12)
        cond = out.matrix
        assert np.array_equal(out.gain, np.linalg.solve(g1, g12))
        resid_cov = sample_covariance(f2 - f1 @ out.gain)
        scale = np.trace(cond) / 3
        assert np.allclose(resid_cov, cond, atol=3 * scale * math.sqrt(2.0 / m) * 3)

    def test_singular_first_block_flagged(self):
        g1 = np.diag([1.0, 1.0, 0.0])
        g2 = np.eye(3)
        g12 = np.diag([0.5, 0.5, 0.0])
        out = conditional_covariance(g1, g2, g12)
        assert out.pinv_used
        assert np.array_equal(out.gain, np.linalg.pinv(g1, rcond=1e-10) @ g12)
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
    return joint[:3, :3], joint[3:, 3:], joint[:3, 3:]


def assert_schur_bounds(joint, cond):
    """PSD, and trace at most trace(g2), both up to PSD_RTOL * trace(g2)."""
    slack = PSD_RTOL * np.trace(joint[3:, 3:])
    assert cond.trace <= np.trace(joint[3:, 3:]) + slack
    assert np.linalg.eigvalsh(cond.matrix)[0] >= -slack


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


class TestSelectShots:
    def _make(self, rng, m=2000, n_atoms=1e6, spread=1.2e3, n_refs=0):
        f1 = rng.standard_normal((m, 3)) * spread
        f2 = f1 + rng.standard_normal((m, 3)) * 100.0
        if n_refs:
            f1 = np.vstack([f1, rng.standard_normal((n_refs, 3))])
            f2 = np.vstack([f2, rng.standard_normal((n_refs, 3))])
        is_ref = np.arange(m + n_refs) >= m
        return shot_table(f1, f2, np.where(is_ref, 0.0, n_atoms), is_ref)

    def test_cutoff_above_every_distance_selects_all(self):
        table = self._make(np.random.default_rng(8))
        f1 = table.f1
        ratio = np.sum((f1 - f1.mean(axis=0)) ** 2, axis=1) / table.n_atoms
        assert len(select_shots(table, 2.0 * ratio.max())) == len(table)

    def test_monotone_in_cutoff(self):
        table = self._make(np.random.default_rng(9))
        counts = [len(select_shots(table, c)) for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts)

    def test_ball_semantics_global(self):
        table = self._make(np.random.default_rng(10))
        cutoff = 0.75
        selected = select_shots(table, cutoff, n_bins=1).seq_index.tolist()
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
        selected = select_shots(table, 1e12)
        assert len(selected) == 2000
        assert not selected.is_reference.any()

    def test_cutoff_validation(self):
        empty = shot_table(np.empty((0, 3)), np.empty((0, 3)), [])
        for cutoff in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="cutoff must be finite and positive"):
                select_shots(empty, cutoff)


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

    def test_delta_stderr_scale(self):
        rng = np.random.default_rng(13)
        m = 20_000
        vectors = rng.standard_normal((m, 3)) * 800.0
        v = float(np.trace(sample_covariance(vectors)))
        n_atoms = 1e6
        w = squeezing_parameter(v, n_atoms, vectors=vectors)
        # Three iid channels: se(v)/fN ~ v*sqrt(2/3m)/fN.  The estimate's
        # own relative spread is sqrt(6/(4m)) ~ 1% (|x|^2 is chi^2_3,
        # kurtosis 7), so 5% is 5 of its standard deviations.
        expected = v * math.sqrt(2.0 / (3 * m)) / n_atoms
        assert w.xi2_stderr == pytest.approx(expected, rel=0.05)
        # xi2 ~ 1.9 here: no squeezing, so no detection significance.
        assert w.significance_sigmas == 0.0
        squeezed = squeezing_parameter(v, 4e6, vectors=vectors)
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

    @pytest.mark.parametrize("case", ["huge-n", "inf-v"])
    def test_non_finite_basis_or_data_refused(self, case):
        # 1e200 atoms overflow the N^2 column: refused before LAPACK sees it.
        n = np.linspace(2e5, 1e200 if case == "huge-n" else 1.5e6, 6)
        v = 2.0 * n
        if case == "inf-v":
            v[-1] = math.inf
        for fix_linear in (True, False):
            with pytest.raises(FitError, match="not finite"):
                fit_noise_scaling(np.column_stack([n, v]), fix_linear=fix_linear)

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
    # the published operating point (config {}, seed 1), with the stderrs
    # of the 1000-resample bootstrap that preceded the delta method.
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

    def test_unconstrained_b_at_zero_zeta(self, probe_ideal):
        # At N ~ 1e-300, zeta ~ 1e-306 and the Jacobian underflows to 0:
        # the data say nothing about b, so the fit fails rather than
        # report its start value with an infinite stderr.
        pts = self._points(probe_ideal, 0.75, np.linspace(1e-300, 8e-300, 8))
        with pytest.raises(FitError, match="b is unconstrained"):
            fit_snr_model(pts, probe_ideal)

    @pytest.mark.parametrize("bad", ["point", "sigma", "zero-sigma", "zeta"])
    def test_non_finite_input_refused(self, probe_ideal, bad):
        n_values = np.linspace(2e5, 1.5e6, 8)
        pts = self._points(probe_ideal, 0.75, n_values)
        sigma = 0.05 * 2.0 * n_values
        probe = probe_ideal
        if bad == "point":
            pts[3] = (pts[3][0], math.inf)
        elif bad == "sigma":
            sigma[2] = math.inf
        elif bad == "zero-sigma":
            sigma[2] = 0.0
        else:
            probe = ProbeConfig(g1=1e150, efficiency=1.0)
        with pytest.raises(FitError, match="not finite"):
            fit_snr_model(pts, probe, sigma=sigma)


def synthetic_campaign(probe, seed=0, n_cycles=60, initial_atoms=1.5e6):
    from tests.conftest import FIELD_111
    from singletsim import MagneticField

    cfg = SequenceConfig(field=MagneticField(FIELD_111), probe=probe)
    campaign = CampaignConfig(
        n_cycles=n_cycles, initial_atoms=initial_atoms, master_seed=seed
    )
    return run_campaign(campaign, cfg), cfg


class TestResolveV0:
    def test_converges_to_readout_noise(self, field):
        probe = ProbeConfig(readout_noise_override=500.0, efficiency=1.0)
        cfg = SequenceConfig(field=field, probe=probe)
        table = run_campaign(fixed_n_campaign(0.0, 1, seed=8, references=3000), cfg).references
        v0, n_reference = resolve_v0(table, None, AnalysisOptions())
        expected = 3 * 500.0**2
        se = expected * math.sqrt(2.0 / (3 * 3000))
        assert abs(v0 - expected) < 4 * se
        # The first round's read-out variance, as the analysis reports it.
        result = analyze_dataset(table, options=AnalysisOptions())
        assert result.v0 == v0
        assert abs(result.reference_v1_tilde + result.v0 - expected) < 4 * se
        assert n_reference == result.n_reference == 3000

    def test_zero_noise(self, field):
        probe = ProbeConfig(readout_noise_override=0.0)
        cfg = SequenceConfig(field=field, probe=probe)
        table = run_campaign(fixed_n_campaign(0.0, 1, seed=9, references=10), cfg).references
        result = analyze_dataset(table, options=AnalysisOptions())
        assert result.v0 == pytest.approx(0.0, abs=1e-12)

    def test_too_few_references(self, seq_ideal):
        campaign = fixed_n_campaign(0.0, 1, seed=10, references=1)
        table = run_campaign(campaign, seq_ideal).references
        with pytest.raises(EstimationError, match="need at least 2 reference shots"):
            resolve_v0(table, None, AnalysisOptions())


class TestAnalyzeDataset:
    def test_conditional_path_matches_kalman(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=21)
        options = AnalysisOptions(n_bins=6)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        assert result.bins
        for b in result.bins:
            n = b.report.n_atoms_mean
            predicted = 2.0 / (1.0 + snr(probe_ideal, n))
            # Bins hold ~120 shots; gate on the witness stderr.
            tol = 4 * b.witness.xi2_stderr + 0.05 * predicted
            assert b.witness.xi2 == pytest.approx(predicted, abs=tol)
            assert b.report.v_cond_tilde <= b.report.v2_tilde

    def test_reference_only_dataset(self, seq_ideal):
        campaign = fixed_n_campaign(0.0, 1, seed=22, references=400)
        table = run_campaign(campaign, seq_ideal).references
        result = analyze_dataset(table, options=AnalysisOptions())
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
        options = AnalysisOptions(n_bins=4, min_bin_shots=20)
        result = analyze_dataset(table, options=options)
        assert result.bins == []
        assert len(result.skipped_bins) == 4
        assert all("reason" in s for s in result.skipped_bins)

    def test_report_schema(self, probe_ideal, tmp_path):
        table, _ = synthetic_campaign(probe_ideal, seed=24, n_cycles=40)
        options = AnalysisOptions(n_bins=5)
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

    def test_readme_report_block_matches_report(self, probe_ideal):
        text = README.read_text()
        section = text[text.index("`analyze` emits `report.json`") :]
        documented = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        table, _ = synthetic_campaign(probe_ideal, seed=24, n_cycles=40)
        payload = report_dict(analyze_dataset(table, probe_ideal, AnalysisOptions(n_bins=5)))
        assert set(documented) == set(payload)
        assert set(documented["bins"][0]) == set(payload["bins"][0])
        assert set(documented["fits"]) == set(payload["fits"])
        for name, fit in payload["fits"].items():
            assert set(documented["fits"][name]) == set(fit), name
        skipping = AnalysisOptions(n_bins=5, min_bin_shots=10**6)
        skipped = report_dict(analyze_dataset(table, probe_ideal, skipping))["skipped_bins"]
        assert set(documented["skipped_bins"][0]) == set(skipped[0])

    def test_prep_mean_offset_moves_only_the_mean(self):
        # Every bin's variances, witnesses and selections are centred on
        # sample means, so a constant offset of the prepared spin cancels.
        def run(offset):
            cfg = config_from_dict(
                {"campaign": {"n_cycles": 120}, "sequence": {"prep_mean_offset": offset}, "seed": 4}
            )
            table = run_campaign(cfg.campaign, cfg.sequence)
            bins = report_dict(analyze_dataset(table, cfg.probe, cfg.analysis))["bins"]
            return bins, cutoff_scan(table, [0.5, 1.0, 2.0], cfg.probe, cfg.analysis)

        want_bins, want_rows = run([0.0, 0.0, 0.0])
        got_bins, got_rows = run([3e4, -2e4, 5e4])
        assert len(got_bins) == len(want_bins) == 10
        keys = ("v1_tilde", "v2_tilde", "v_cond_tilde", "xi2", "xi2_stderr", "xi2_selected")
        for g, w in zip(got_bins, want_bins):
            assert g["n_selected"] == w["n_selected"]
            for key in keys:
                if w[key] is None:
                    assert g[key] is None, key
                else:
                    assert g[key] == pytest.approx(w[key], rel=1e-9, abs=0), key
        for g, w in zip(got_rows, want_rows):
            assert g["n_selected"] == w["n_selected"] >= 2
            assert g["xi2"] == pytest.approx(w["xi2"], rel=1e-9, abs=0)
            assert g["xi2_stderr"] == pytest.approx(w["xi2_stderr"], rel=1e-9, abs=0)

    def test_selected_stderr_reported(self, probe_ideal):
        # C = 2 leaves the two lowest of five bins under min_bin_shots.
        table, _ = synthetic_campaign(probe_ideal, seed=24, n_cycles=40)
        result = analyze_dataset(table, options=AnalysisOptions(n_bins=5, cutoff=2.0))
        entries = report_dict(result)["bins"]
        has_selection = [e["xi2_selected"] is not None for e in entries]
        assert any(has_selection) and not all(has_selection)
        for entry in entries:
            stderr = entry["xi2_selected_stderr"]
            if entry["xi2_selected"] is None:
                assert stderr is None
            else:
                assert math.isfinite(stderr) and stderr > 0

    def test_fits_present_and_sane(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=25, n_cycles=150)
        options = AnalysisOptions(n_bins=8)
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
        options = AnalysisOptions(n_bins=4, use_analytic_v0=True)
        result = analyze_dataset(table, probe=probe_ideal, options=options)
        assert result.v0 == pytest.approx(3 * readout_noise_sigma(probe_ideal) ** 2)

    def test_deterministic(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=27, n_cycles=30)
        options = AnalysisOptions(n_bins=4)
        r1 = analyze_dataset(table, probe=probe_ideal, options=options)
        r2 = analyze_dataset(table, probe=probe_ideal, options=options)
        assert report_dict(r1) == report_dict(r2)

    @pytest.mark.parametrize("s, rtol", [(2.0, 0.0), (3.0, 1e-12)])
    def test_witness_scale_invariant(self, probe_ideal, s, rtol):
        # Readouts times s, atom numbers times s^2: every variance, v0
        # (from the scaled reference rows) and f * N scale by s^2 together,
        # so the witnesses and the selections do not move.  A power of two
        # scales every double exactly.
        table, _ = synthetic_campaign(probe_ideal, seed=30, n_cycles=60)
        scaled = shot_table(table.f1 * s, table.f2 * s, table.n_atoms * s**2, table.is_reference)
        # C = 3 leaves every bin enough selected shots for its own witness.
        options = AnalysisOptions(n_bins=4, cutoff=3.0)
        want = report_dict(analyze_dataset(table, options=options))["bins"]
        got = report_dict(analyze_dataset(scaled, options=options))["bins"]
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert w["xi2_selected"] is not None
            assert g["n_selected"] == w["n_selected"]
            for key in ("xi2", "xi2_stderr", "xi2_selected", "xi2_selected_stderr"):
                assert g[key] == pytest.approx(w[key], rel=rtol, abs=0), key


class TestCutoffScan:
    def test_row_grid(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=28, n_cycles=30)
        cutoffs = [0.25 * k for k in range(1, 13)]
        rows = cutoff_scan(table, cutoffs, probe_ideal, AnalysisOptions())
        assert len(rows) == 12
        assert [r["C"] for r in rows] == pytest.approx(cutoffs)
        assert all(r["n_selected"] >= 0 for r in rows)

    def test_selected_counts_monotone(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=29, n_cycles=30)
        rows = cutoff_scan(table, [0.5, 1.0, 2.0, 4.0], probe_ideal, AnalysisOptions())
        counts = [r["n_selected"] for r in rows]
        assert counts == sorted(counts)

    def test_nonpositive_cutoff_rejected(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=28, n_cycles=5)
        for cutoffs in ([1.0, 0.0], [-0.5]):
            with pytest.raises(ValueError, match="cutoff must be finite and positive"):
                cutoff_scan(table, cutoffs, probe_ideal, AnalysisOptions(n_bins=2))

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected(self, probe_ideal, cutoff):
        table, _ = synthetic_campaign(probe_ideal, seed=28, n_cycles=5)
        with pytest.raises(ValueError, match="cutoff must be finite and positive"):
            cutoff_scan(table, [1.0, cutoff], probe_ideal, AnalysisOptions(n_bins=2))

    def test_scan_memory_does_not_grow_with_cutoffs_times_shots(self):
        # 3000 cutoffs over 600 atom shots: a (cutoffs x shots) float
        # product alone would take 14.4 MB; one cutoff at a time keeps the
        # peak at the rows returned and a few shot-length arrays.
        cfg = config_from_dict({"campaign": {"n_cycles": 50}, "seed": 3})
        table = run_campaign(cfg.campaign, cfg.sequence)
        assert len(table.atoms) == 600
        cutoffs = np.linspace(0.01, 3.0, 3000)
        tracemalloc.start()
        try:
            rows = cutoff_scan(table, cutoffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 3000
        assert peak < 4e6

    def test_counts_match_selection(self, probe_paper):
        # The published config at 20 cycles: the smallest cutoffs select
        # 0 or 1 shot, too few for a witness but still counted.  The last
        # cutoff lies between the two smallest dist2 / n_atoms, so it
        # selects exactly one shot whatever the draw.
        table, _ = synthetic_campaign(probe_paper, n_cycles=20)
        options = AnalysisOptions()
        atoms = table.atoms
        bins = _quantile_bins(atoms.n_atoms, options.n_bins)
        ratio = np.sort(_centred_dist2(atoms.f1, bins) / atoms.n_atoms)
        cutoffs = [0.05, 0.1, 0.15, 0.2, 0.25, float(ratio[0] + ratio[1]) / 2.0]
        rows = cutoff_scan(table, cutoffs, probe_paper, options)
        counts = [len(select_shots(table, c, n_bins=options.n_bins)) for c in cutoffs]
        assert [r["n_selected"] for r in rows] == counts
        assert 1 in counts
        for r in rows:
            assert math.isnan(r["xi2"]) == math.isnan(r["xi2_stderr"]) == (r["n_selected"] < 2)


class TestSharedSelectionState:
    """The report and the cutoff scan share one selection state per table."""

    def test_analyze_command_computes_it_once(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"seed": 5, "campaign": {"n_cycles": 30}}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
        calls = dict.fromkeys(("resolve_v0", "_quantile_bins", "_centred_dist2"), 0)
        for name in calls:

            def counted(*args, _name=name, _original=getattr(analysis, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        out = tmp_path / "analysis"
        argv = ["analyze", str(tmp_path / "sim" / "shots.csv"), "--config", str(cfg_path)]
        assert main(argv + ["--cutoff-scan", "0.25:3.0:0.25", "--out", str(out)]) == 0
        assert len((out / "cutoff_scan.csv").read_text().splitlines()) == 13
        assert calls == {"resolve_v0": 1, "_quantile_bins": 1, "_centred_dist2": 1}

    @staticmethod
    def fresh(table):
        """A new table object with the same rows, so nothing is shared with ``table``."""
        return table[np.arange(len(table))]

    def test_each_table_gets_its_own_report_and_scan_rows(self, probe_ideal):
        tables = {seed: synthetic_campaign(probe_ideal, seed=seed, n_cycles=30)[0] for seed in (40, 41)}
        options = AnalysisOptions(n_bins=4)
        cutoffs = [0.5, 1.0, 2.0]
        want = {}
        for seed, table in tables.items():
            copy = self.fresh(table)
            report = report_dict(analyze_dataset(copy, probe_ideal, options))
            want[seed] = (report, cutoff_scan(copy, cutoffs, probe_ideal, options))
        # Both reports first, then both scans: each scan must read its own table's state.
        reports = {s: report_dict(analyze_dataset(t, probe_ideal, options)) for s, t in tables.items()}
        scans = {s: cutoff_scan(t, cutoffs, probe_ideal, options) for s, t in tables.items()}
        for seed in tables:
            assert (reports[seed], scans[seed]) == want[seed]
        assert reports[40] != reports[41] and scans[40] != scans[41]

    @pytest.mark.parametrize(
        "later",
        [{"n_bins": 2}, {"use_analytic_v0": True}, {"cutoff": 2.0}],
    )
    def test_other_settings_on_the_same_table(self, probe_ideal, later):
        table, _ = synthetic_campaign(probe_ideal, seed=42, n_cycles=30)
        analyze_dataset(table, probe_ideal, AnalysisOptions(n_bins=4))
        options = AnalysisOptions(**{"n_bins": 4, **later})
        copy = self.fresh(table)
        want = report_dict(analyze_dataset(copy, probe_ideal, options))
        assert report_dict(analyze_dataset(table, probe_ideal, options)) == want
        want_rows = cutoff_scan(copy, [0.5, 1.5], probe_ideal, options)
        assert cutoff_scan(table, [0.5, 1.5], probe_ideal, options) == want_rows

    def test_state_goes_with_its_table(self, probe_ideal):
        table, _ = synthetic_campaign(probe_ideal, seed=43, n_cycles=30)
        before = len(analysis._SELECTIONS)
        analyze_dataset(table, probe_ideal, AnalysisOptions(n_bins=4))
        cutoff_scan(table, [1.0], probe_ideal, AnalysisOptions(n_bins=2))
        # One entry per table, whatever settings it was analysed with.
        assert len(analysis._SELECTIONS) == before + 1
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None
        assert len(analysis._SELECTIONS) == before

    @pytest.mark.parametrize("m", [2, 3, 500])
    def test_selection_witness_is_the_two_step_witness_bit_for_bit(self, m):
        # One centred array gives the trace and the stderr the separate
        # sample_covariance and squeezing_parameter calls gave.
        rng = np.random.default_rng(m)
        f2 = rng.normal(3.0, 800.0, (m, 3))
        n = rng.uniform(1e5, 1e6, m)
        v2 = float(np.trace(sample_covariance(f2)))
        want = squeezing_parameter(v2 - 1234.5, float(np.mean(n)), vectors=f2)
        assert _selection_witness(f2, n, 1234.5) == want


def test_schur_kalman_consistency_on_batch(seq_ideal):
    # The empirical conditional trace matches the engine's exact one
    # on a fresh batch.
    n = 6e5
    table = run_campaign(fixed_n_campaign(n, 50_000, seed=34), seq_ideal)
    predicted = engine_schur(seq_ideal, n).trace
    assert schur_trace(table.f1, table.f2) == pytest.approx(predicted, rel=0.03)
