"""Seed-ensemble calibration of the conditional-path witness stderr.

S independent campaigns of the published physics (config ``{}``, shrunk
to 100 cycles and 4 bins) are analyzed.  Per bin, the spread of the
witness across seeds is what the per-seed stderr claims to estimate, so

    std over seeds of d  /  median over seeds of xi2_stderr

must be 1 up to the sampling error of a standard deviation of S values.

The statistic is v0-free: d = v_cond / (f N) minus its expectation, the
squeezing law plus the read-out term, (2N / (1 + b zeta) + 3 sigma^2) /
(f N) at that seed's bin mean N, times the Wishart factor (m - 4)/(m - 1)
of a ddof=1 Schur complement of m shots.  On ``{}`` (thermal state,
shot-noise read-out) the law is exact, so detrending removes the spread
that the bin mean N's seed-to-seed variation would add, and the
reference-shot ``v0`` (whose own error the stderr leaves out) plays no
part.

Band.  For S normal values, (S - 1) s^2 / sigma^2 is chi-squared with
S - 1 degrees of freedom, so s / sigma is chi(S - 1) / sqrt(S - 1).  The
band is its two-sided 1e-3 quantile range per bin ([0.79, 1.22] at
S = 120).  The median stderr's own scatter (~7% per seed at 300 shots,
so under 1% for the median of 120) is small against it.
"""

import math

import numpy as np
import pytest
import scipy.stats

from singletsim import (
    analyze_dataset,
    config_from_dict,
    fit_fid,
    readout_noise_sigma,
    run_campaign,
    snr,
)
from tests.test_lsq import GAMMA, G1, published_fid_trace

S = 120
N_CYCLES = 100
N_BINS = 4
ALPHA = 1e-3
# Seeded FID traces for the field-estimate calibration.
S_FID = 60


@pytest.fixture(scope="module")
def ensemble():
    """(S, bins) arrays of bin mean N, v_cond, xi2_stderr and shot count."""
    rows = []
    for seed in range(S):
        cfg = config_from_dict(
            {"seed": seed, "campaign": {"n_cycles": N_CYCLES}, "analysis": {"n_bins": N_BINS}}
        )
        result = analyze_dataset(run_campaign(cfg.campaign, cfg.sequence), options=cfg.analysis)
        rows.append(
            [
                (b.report.n_atoms_mean, b.report.v_cond, b.witness.xi2_stderr, b.report.n_shots)
                for b in result.bins
            ]
        )
    n, v_cond, stderr, m = np.moveaxis(np.array(rows), -1, 0)
    return cfg, n, v_cond, stderr, m


def test_conditional_stderr_matches_seed_spread(ensemble):
    cfg, n, v_cond, stderr, m = ensemble
    assert n.shape == (S, N_BINS)
    probe = cfg.probe
    zeta = np.vectorize(lambda x: snr(probe, x))(n)
    expected = 2.0 * n / (1.0 + probe.efficiency * zeta) + 3.0 * readout_noise_sigma(probe) ** 2
    d = (v_cond - expected * (m - 4) / (m - 1)) / n

    spread = d.std(axis=0, ddof=1)
    ratio = spread / np.median(stderr, axis=0)
    low, high = scipy.stats.chi.ppf([ALPHA / 2, 1 - ALPHA / 2], S - 1) / math.sqrt(S - 1)
    assert np.all((low < ratio) & (ratio < high)), (ratio, low, high)
    # The detrend is the expectation: the mean of d is 0 within its own
    # standard error (a t statistic of S - 1 degrees of freedom).
    t_limit = scipy.stats.t.ppf(1 - ALPHA / 2, S - 1)
    assert np.all(np.abs(d.mean(axis=0)) < t_limit * spread / math.sqrt(S)), d.mean(axis=0)


def test_fid_stderrs_match_seed_spread():
    # The same band for the FID fit: over S_FID traces of the benchmark's
    # published FID model with 1 mrad noise, the spread of each fitted
    # parameter (bx, by, bz, T2, f0) is what its stderr from the fit's
    # covariance claims to estimate.  The spread of f0 is ~400 spins.
    fitted, stderrs = [], []
    for seed in range(S_FID):
        est = fit_fid(*published_fid_trace(seed), G1, GAMMA)
        fitted.append([*est.b, est.t2, est.f0])
        stderrs.append(np.sqrt(np.diag(est.covariance)))
    spread = np.std(fitted, axis=0, ddof=1)
    ratio = spread / np.median(stderrs, axis=0)
    lo, hi = np.sqrt(scipy.stats.chi2.ppf([ALPHA / 2, 1 - ALPHA / 2], S_FID - 1) / (S_FID - 1))
    assert np.all((lo < ratio) & (ratio < hi)), (ratio, (lo, hi))
