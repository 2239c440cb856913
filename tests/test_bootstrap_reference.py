"""The vectorized bootstrap against a per-resample reference loop.

The oracle below draws one ``rng.integers(0, m, size=m)`` per resample
and recomputes the sample covariance (and its Schur complement) of the
resampled rows, on the same random streams the package documents.
Bootstrap stderrs must agree to rtol 1e-12; every other field, and the
selected-shot counts, must be exactly equal.
"""

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
from singletsim.analysis import BOOTSTRAP_BLOCK, PINV_RCOND, _quantile_bins
from tests.conftest import FIELD_111, shot_table

RTOL = 1e-12
# 150 resamples is not a multiple of BOOTSTRAP_BLOCK: the last block is partial.
OPTIONS = AnalysisOptions(n_bins=4, min_bin_shots=25, n_resamples=150, seed=3, cutoff=4.0)


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


def ref_trace_stderr(x, v0, scale, n_resamples, rng):
    m = len(x)
    vals = np.empty(n_resamples)
    for i in range(n_resamples):
        idx = rng.integers(0, m, size=m)
        vals[i] = (np.trace(ref_covariance(x[idx])) - v0) / scale
    return float(np.std(vals, ddof=1))


def ref_conditional_stderr(x, v0, scale, n_resamples, rng):
    m = len(x)
    vals = np.empty(n_resamples)
    pinv_count = 0
    for i in range(n_resamples):
        idx = rng.integers(0, m, size=m)
        trace, pinv = ref_conditional(ref_covariance(x[idx]))
        vals[i] = (trace - v0) / scale
        pinv_count += pinv
    return float(np.std(vals, ddof=1)), pinv_count


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
    assert OPTIONS.n_resamples % BOOTSTRAP_BLOCK != 0
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

        rng = np.random.default_rng(np.random.SeedSequence(OPTIONS.seed, spawn_key=(b_idx,)))
        stderr, pinv_count = ref_conditional_stderr(x, v0, n_mean, OPTIONS.n_resamples, rng)
        assert b.witness.xi2_stderr == pytest.approx(stderr, rel=RTOL, abs=0)
        if pinv:
            # A rank-2 f1 is singular in every resample.
            assert pinv_count == OPTIONS.n_resamples
            pinv_bins += 1

        sel = np.sum((bf1 - bf1.mean(axis=0)) ** 2, axis=1) < OPTIONS.cutoff * bn
        assert b.n_selected == int(sel.sum())
        assert b.selection is not None
        sel_n = float(bn[sel].mean())
        assert b.selection.xi2 == (float(np.trace(ref_covariance(bf2[sel]))) - v0) / sel_n
        sel_stderr = ref_trace_stderr(bf2[sel], v0, sel_n, OPTIONS.n_resamples, rng)
        assert b.selection.xi2_stderr == pytest.approx(sel_stderr, rel=RTOL, abs=0)
    assert pinv_bins == 1


def test_squeezing_parameter_matches_loop():
    rng = np.random.default_rng(41)
    vectors = rng.standard_normal((333, 3)) * 900.0 + 50.0
    v_tilde = float(np.trace(ref_covariance(vectors))) - 1e4
    w = squeezing_parameter(
        v_tilde, 8e5, 1.0, vectors=vectors, v0=1e4, n_resamples=130,
        rng=np.random.default_rng(7),
    )
    expected = ref_trace_stderr(vectors, 1e4, 8e5, 130, np.random.default_rng(7))
    assert w.xi2 == v_tilde / 8e5
    assert w.xi2_stderr == pytest.approx(expected, rel=RTOL, abs=0)


def test_cutoff_scan_matches_loop(table):
    cutoffs = [0.25, 0.5, 1.0, 2.0, 3.0]
    rows = cutoff_scan(table, cutoffs, options=OPTIONS)
    f1, f2, n, v0 = arrays(table)
    groups = _quantile_bins(n, OPTIONS.n_bins)
    rng = np.random.default_rng(np.random.SeedSequence(OPTIONS.seed, spawn_key=(0xC,)))
    for c, row in zip(cutoffs, rows):
        keep = np.zeros(len(n), dtype=bool)
        for idx in groups:
            keep[idx] = np.sum((f1[idx] - f1[idx].mean(axis=0)) ** 2, axis=1) < c * n[idx]
        assert row["C"] == c
        assert row["n_selected"] == int(keep.sum())
        n_mean = float(np.mean(n[keep]))
        assert row["xi2"] == (float(np.trace(ref_covariance(f2[keep]))) - v0) / n_mean
        expected = ref_trace_stderr(f2[keep], v0, n_mean, OPTIONS.n_resamples, rng)
        assert row["xi2_stderr"] == pytest.approx(expected, rel=RTOL, abs=0)


def test_global_mean_mode_reaches_bins():
    # Two atom-number bins whose f1 means sit at -/+ 0.8 sqrt(N) along z:
    # centring on each bin's mean and on the global mean select differently.
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
    options = AnalysisOptions(n_bins=2, n_resamples=20, mean_mode="global", cutoff=1.0)
    result = analyze_dataset(table, options=options)
    selected = set(select_shots(table, 1.0, mean_mode="global", n_bins=2).seq_index.tolist())
    groups = _quantile_bins(n, options.n_bins)
    shares = [sum(i in selected for i in idx) for idx in groups]
    assert [b.n_selected for b in result.bins] == shares
    per_bin = analyze_dataset(table, options=AnalysisOptions(n_bins=2, n_resamples=20))
    assert [b.n_selected for b in per_bin.bins] != shares
