"""Delta-method witness stderrs against a per-resample bootstrap oracle.

The oracle below draws ``B`` resamples of the shots with replacement
(one ``rng.integers(0, m, size=m)`` each) and recomputes every
resample's witness from its own sample covariance, or its Schur
complement: the bootstrap the package used before the delta method.

Tolerance.  A bootstrap stderr is the std of B replicates, so it carries
its own Monte Carlo error: sqrt((k - 1) / (4B)) relative for replicates
of kurtosis k, which is 1/sqrt(2B) (1.6% at B = 2000) for normal ones.
``bootstrap_stderr`` measures k on its own replicates, and each delta
stderr must lie within ``Z`` of those standard deviations of the
bootstrap's.  The B -> infinity bootstrap differs from the delta method
only at second order: for a total variance it is V/m + 2 tr(S^2) /
(m (m - 1)) against the delta V/(m - 1), with V the 1/m variance of
|x - x_bar|^2 and S the 1/m covariance of x, and for Gaussian shots
(V ~ 2 tr(S^2)) the two agree to O(1/m^2).  Every other field, and the
selected-shot counts, must be exactly equal to a plain recomputation.
"""

import math

import numpy as np
import pytest

from singletsim import (
    AnalysisOptions,
    CampaignConfig,
    MagneticField,
    ProbeConfig,
    SequenceConfig,
    analyze_dataset,
    cutoff_scan,
    run_campaign,
    select_shots,
    squeezing_parameter,
)
from singletsim.analysis import PINV_RCOND, _quantile_bins
from tests.conftest import FIELD_111, shot_table

B = 2000
Z = 4.0
OPTIONS = AnalysisOptions(n_bins=4, min_bin_shots=25, cutoff=4.0)


def ref_covariance(x):
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    return 0.5 * (cov + cov.T)


def ref_conditional(c6):
    """(trace of the Schur complement, pseudo-inverse used) of a 6x6 covariance."""
    g1, g2, g12 = c6[:3, :3], c6[3:, 3:], c6[:3, 3:]
    sv = np.linalg.svd(g1, compute_uv=False)
    pinv = bool(sv[-1] <= PINV_RCOND * sv[0])
    if pinv:
        solved = np.linalg.pinv(g1, rcond=PINV_RCOND) @ g12
    else:
        solved = np.linalg.solve(g1, g12)
    cond = g2 - g12.T @ solved
    return float(np.trace(0.5 * (cond + cond.T))), pinv


def bootstrap_stderr(x, statistic, scale, seed):
    """Bootstrap stderr of ``statistic`` / ``scale`` over the rows of ``x``.

    Returns (stderr, its relative Monte Carlo std).  The std (ddof=1) of
    B replicates of kurtosis k has relative std sqrt((k - 1) / (4B)),
    which is 1/sqrt(2B) for normal replicates.
    """
    rng = np.random.default_rng(seed)
    m = len(x)
    vals = np.array([statistic(x[rng.integers(0, m, size=m)]) for _ in range(B)])
    dev = vals - vals.mean()
    kurtosis = float(np.mean(dev**4) / np.mean(dev**2) ** 2)
    return float(np.std(vals, ddof=1)) / scale, math.sqrt((kurtosis - 1.0) / (4 * B))


def trace_statistic(x):
    return float(np.trace(ref_covariance(x)))


def conditional_statistic(x):
    return ref_conditional(ref_covariance(x))[0]


def assert_agrees(delta, boot):
    stderr, mc_rel = boot
    assert abs(stderr / delta - 1.0) <= Z * mc_rel, (delta, stderr, mc_rel)


def arrays(table):
    atoms = table.atoms
    v0 = float(np.trace(ref_covariance(table.references.f2)))
    return atoms.f1, atoms.f2, atoms.n_atoms, v0


@pytest.fixture(scope="module")
def table():
    """Small campaign whose highest-atom bin has a rank-2 first measurement."""
    seq = SequenceConfig(field=MagneticField(FIELD_111), probe=ProbeConfig(efficiency=1.0))
    campaign = CampaignConfig(n_cycles=30, initial_atoms=1.2e6, master_seed=5)
    full = run_campaign(campaign, seq)
    singular = np.flatnonzero(~full.is_reference)[
        _quantile_bins(full.atoms.n_atoms, OPTIONS.n_bins)[-1]
    ]
    f1 = np.array(full.f1)
    f1[singular, 2] = f1[singular, 0] + f1[singular, 1]
    return shot_table(f1, full.f2, full.n_atoms, full.is_reference)


def test_analyze_dataset_matches_loop(table):
    result = analyze_dataset(table, options=OPTIONS)
    f1, f2, n, v0 = arrays(table)
    groups = _quantile_bins(n, OPTIONS.n_bins)
    assert len(result.bins) == len(groups)
    assert result.v0 == v0
    pinv_bins = 0
    for b_idx, (idx, b) in enumerate(zip(groups, result.bins)):
        bf1, bf2, bn = f1[idx], f2[idx], n[idx]
        n_mean = float(bn.mean())
        x = np.hstack([bf1, bf2])
        c6 = ref_covariance(x)
        v_cond, pinv = ref_conditional(c6)
        assert b.report.gamma1_singular == pinv
        assert b.report.v1 == float(np.trace(c6[:3, :3]))
        assert b.report.v2 == float(np.trace(c6[3:, 3:]))
        assert b.report.v_cond == v_cond
        assert np.array_equal(b.report.gamma12, c6[:3, 3:])
        assert b.witness.xi2 == (v_cond - v0) / n_mean

        boot = bootstrap_stderr(x, conditional_statistic, n_mean, seed=b_idx)
        assert_agrees(b.witness.xi2_stderr, boot)
        pinv_bins += pinv

        sel = np.sum((bf1 - bf1.mean(axis=0)) ** 2, axis=1) < OPTIONS.cutoff * bn
        assert b.n_selected == int(sel.sum())
        assert b.selection is not None
        sel_n = float(bn[sel].mean())
        assert b.selection.xi2 == (float(np.trace(ref_covariance(bf2[sel]))) - v0) / sel_n
        boot = bootstrap_stderr(bf2[sel], trace_statistic, sel_n, seed=10 + b_idx)
        assert_agrees(b.selection.xi2_stderr, boot)
    # The rank-2 bin goes through the pseudo-inverse, in the package and
    # in every resample of the oracle.
    assert pinv_bins == 1


def test_squeezing_parameter_matches_loop():
    rng = np.random.default_rng(41)
    vectors = rng.standard_normal((333, 3)) * 900.0 + 50.0
    v_tilde = float(np.trace(ref_covariance(vectors))) - 1e4
    w = squeezing_parameter(v_tilde, 8e5, vectors=vectors)
    assert w.xi2 == v_tilde / 8e5
    assert_agrees(w.xi2_stderr, bootstrap_stderr(vectors, trace_statistic, 8e5, seed=7))


def test_two_vectors_have_zero_stderr():
    # Both |x - x_bar|^2 of two vectors are equal, so the delta stderr is
    # exactly 0, never a rounding residue that would read as a huge
    # significance.
    for seed in range(1, 9):
        vectors = np.random.default_rng(seed).standard_normal((2, 3))
        w = squeezing_parameter(1e5, 1e6, vectors=vectors)
        assert w.xi2_stderr == 0.0, seed
        assert w.significance_sigmas == 0.0, seed


def test_cutoff_scan_matches_loop(table):
    cutoffs = [0.25, 0.5, 1.0, 2.0, 3.0]
    rows = cutoff_scan(table, cutoffs, options=OPTIONS)
    f1, f2, n, v0 = arrays(table)
    groups = _quantile_bins(n, OPTIONS.n_bins)
    for k, (c, row) in enumerate(zip(cutoffs, rows)):
        keep = np.zeros(len(n), dtype=bool)
        for idx in groups:
            keep[idx] = np.sum((f1[idx] - f1[idx].mean(axis=0)) ** 2, axis=1) < c * n[idx]
        assert row["C"] == c
        assert row["n_selected"] == int(keep.sum())
        n_mean = float(np.mean(n[keep]))
        assert row["xi2"] == (float(np.trace(ref_covariance(f2[keep]))) - v0) / n_mean
        boot = bootstrap_stderr(f2[keep], trace_statistic, n_mean, seed=20 + k)
        assert_agrees(row["xi2_stderr"], boot)


def test_per_bin_selection_reaches_bins():
    # Two atom-number bins whose f1 means sit at -/+ 0.8 sqrt(N) along z:
    # centring on each bin's mean and on the global mean select differently,
    # and each bin's selection count is its share of the per-bin selection.
    rng = np.random.default_rng(17)
    n = rng.uniform(5e5, 1.5e6, 400)
    f1 = rng.standard_normal((400, 3)) * np.sqrt(2.0 * n / 3.0)[:, None]
    f1[:, 0] += np.where(n > np.median(n), 0.8, -0.8) * np.sqrt(n)
    f2 = f1 + rng.standard_normal((400, 3)) * 300.0
    ref_f = rng.standard_normal((2, 20, 3)) * 300.0
    table = shot_table(
        np.vstack([f1, ref_f[0]]),
        np.vstack([f2, ref_f[1]]),
        np.append(n, np.zeros(20)),
        np.arange(420) >= 400,
    )
    options = AnalysisOptions(n_bins=2, cutoff=1.0)
    result = analyze_dataset(table, options=options)
    groups = _quantile_bins(n, options.n_bins)

    def shares(selection):
        selected = set(selection.seq_index.tolist())
        return [sum(i in selected for i in idx) for idx in groups]

    per_bin = shares(select_shots(table, 1.0, n_bins=options.n_bins))
    assert [b.n_selected for b in result.bins] == per_bin
    assert shares(select_shots(table, 1.0, n_bins=1)) != per_bin
