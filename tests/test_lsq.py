"""The numpy Levenberg-Marquardt solver against MINPACK's, via scipy.

scipy is a test-only dependency: ``scipy.optimize.least_squares`` with
``method="lm"`` runs MINPACK's ``lmder`` and serves as the oracle for
both fits, on the published FID trace and the published ``{}`` dataset.
"""

import math

import numpy as np
import pytest
import scipy.optimize

import singletsim.analysis as analysis_mod
import singletsim.lsq as lsq_mod
import singletsim.magnetometry as magnetometry_mod
from singletsim import (
    FitError,
    analyze_dataset,
    config_from_dict,
    fid_signal,
    fit_fid,
    fit_snr_model,
    run_campaign,
    snr,
)
from singletsim.lsq import levenberg_marquardt, parameter_covariance
from singletsim.magnetometry import _initial_guess, fid_jacobian

# Traces shaped like the benchmark's published FID input: 2 x 3000
# samples at 0.5 us of its field, T2 and polarization, with 1 mrad white
# noise drawn from the given seed.
G1 = 9.0e-8
GAMMA = 4.374e6
FID_B = (9.6e-3, 9.7e-3, 9.9e-3)
FID_T2 = 745e-6
FID_F0 = 1.0e6


def published_fid_trace(seed):
    rng = np.random.default_rng(seed)
    t = np.arange(3000) * 0.5e-6
    noise = 1e-3 * rng.standard_normal((2, t.size))
    return tuple(
        np.column_stack((t, fid_signal(t, FID_B, axis, FID_F0, G1, FID_T2, GAMMA) + e))
        for axis, e in zip("zy", noise)
    )


def minpack_fid_fit(z, y):
    """fit_fid's problem handed to MINPACK: (x, residuals, covariance)."""
    (tz, thz), (ty, thy) = (s.T.copy() for s in (z, y))
    duration = max(tz.max(), ty.max())
    x0 = _initial_guess(tz, thz, ty, thy, G1, GAMMA, duration)

    def residuals(p):
        b, t2 = p[:3], abs(p[3]) or 1e-30
        return np.concatenate(
            [
                fid_signal(tz, b, "z", p[4], G1, t2, GAMMA) - thz,
                fid_signal(ty, b, "y", p[4], G1, t2, GAMMA) - thy,
            ]
        )

    scale = np.array([1e-3, 1e-3, 1e-3, max(duration / 2, 1e-9), max(abs(x0[4]), 1.0)])
    result = scipy.optimize.least_squares(
        residuals, x0, method="lm", x_scale=scale, xtol=1e-15, ftol=1e-15, max_nfev=20000
    )
    assert result.success
    sigma2 = float(result.fun @ result.fun) / (len(result.fun) - 5)
    cov = sigma2 * np.linalg.pinv(result.jac.T @ result.jac, rcond=1e-12)
    return result.x, result.fun, cov


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fid_fit_matches_minpack(seed):
    z, y = published_fid_trace(seed)
    est = fit_fid(z, y, G1, GAMMA)
    x, fun, cov = minpack_fid_fit(z, y)
    assert est.status in ("ftol", "xtol", "ftol+xtol", "gtol")
    assert 0 < est.nfev < 50
    assert x[2] > 0 and x[3] > 0  # already the canonical sign representative
    assert np.allclose(np.r_[est.b, est.t2, est.f0], x, rtol=1e-7, atol=0)
    assert est.residual_norm == pytest.approx(np.linalg.norm(fun), rel=1e-12)
    # MINPACK's covariance comes from a finite-difference Jacobian.
    assert np.allclose(est.covariance, cov, rtol=1e-4, atol=0)


def test_fid_fit_evaluates_one_jacobian_per_factorization(monkeypatch):
    # The solver factors each Jacobian once, by one QR of [J f].  It stops
    # on gtol, where x has not moved since the last QR, so the returned
    # Jacobian is that QR's: no extra evaluation.
    calls = {"jac": 0, "qr": 0}
    results = []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def solver(fun, jac, x0, **kwargs):
        def counting_jac(x):
            calls["jac"] += 1
            return jac(x)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "qr", counting_qr)
            results.append((levenberg_marquardt(fun, counting_jac, x0, **kwargs), jac))
        return results[-1][0]

    monkeypatch.setattr(magnetometry_mod, "levenberg_marquardt", solver)
    fit_fid(*published_fid_trace(1), G1, GAMMA)
    (result, jac), = results
    assert result.status == "gtol"
    assert calls["jac"] == calls["qr"] > 0
    assert np.array_equal(result.jac, jac(result.x))


def reference_lmpar(b, qtf, delta, par):
    """More's recurrence for ``lsq._lmpar`` on dense normal equations.

    y(par) solves (B^T B + par I) y = B^T Q^T f over the non-zero columns
    of B (a zero column gets y = 0), and phi(par) = ||y|| - delta has
    phi' = -y^T (B^T B + par I)^-1 y / ||y||.  Returns (par, y, the
    number of Newton corrections taken).
    """
    keep = b.any(axis=0)
    bk = b[:, keep]

    def phi(par):
        m = bk.T @ bk + par * np.eye(bk.shape[1])
        y = np.zeros(len(qtf))
        y[keep] = np.linalg.solve(m, bk.T @ qtf)
        norm = float(np.linalg.norm(y))
        return y, norm, norm - delta, -float(y[keep] @ np.linalg.solve(m, y[keep])) / norm

    y, norm, fp, dphi = phi(0.0)
    if fp <= 0.1 * delta:
        return 0.0, y, 0
    # More's Newton correction on phi, sized for ||y|| = delta: -(phi / phi') ||y|| / delta.
    parl = -fp / dphi * norm / delta if keep.all() else 0.0
    gnorm = float(np.linalg.norm(b.T @ qtf))
    paru = gnorm / delta
    if paru == 0.0:
        paru = np.finfo(float).tiny / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / norm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(np.finfo(float).tiny, 0.001 * paru)
        y, norm, fp_new, dphi = phi(par)
        if abs(fp_new) <= 0.1 * delta or (parl == 0.0 and fp_new <= fp < 0) or iteration == 10:
            return par, y, iteration - 1
        fp = fp_new
        parc = -fp / dphi * norm / delta
        if fp > 0:
            parl = max(parl, par)
        elif fp < 0:
            paru = min(paru, par)
        par = max(parl, par + parc)


@pytest.mark.parametrize("zero_column", [False, True])
def test_lmpar_matches_dense_more_recurrence(zero_column):
    # Trust radii far inside the Gauss-Newton step, so the Newton loop
    # runs, on triangles whose columns span 10^-3 to 10^3.
    rng = np.random.default_rng(25)
    corrections = []
    for case in range(200):
        n = int(rng.integers(2, 6))
        a = np.linalg.qr(rng.standard_normal((n + 3, n + 1)), mode="r")
        b, qtf = a[:n, :n] * 10.0 ** rng.uniform(-3, 3, n), a[:n, n]
        k = int(rng.integers(n))
        if zero_column:
            b[:, k] = 0.0
        gauss_newton = np.linalg.norm(reference_lmpar(b, qtf, np.inf, 0.0)[1])
        delta = gauss_newton * 10.0 ** rng.uniform(-4, -0.5)
        start = (0.0, 1e-3, 1e3)[case % 3]
        par, y = lsq_mod._lmpar(b, qtf, delta, start)
        ref_par, ref_y, steps = reference_lmpar(b, qtf, delta, start)
        corrections.append(steps)
        assert par == pytest.approx(ref_par, rel=1e-9, abs=0)
        assert np.allclose(y, ref_y, rtol=1e-9, atol=0)
        if zero_column:
            assert y[k] == 0.0
    # Most cases take two or more Newton corrections.
    assert np.sum(np.array(corrections) >= 2) >= 80


def test_solver_leaves_a_parameter_with_a_zero_jacobian_column_at_its_start():
    # The residuals do not depend on x[1]: its step is exactly zero, where
    # the SVD alone would leave rounding.
    t = np.linspace(0.0, 1.0, 20)
    data = 3.0 * np.exp(-0.7 * t) + 0.5 * t

    def fun(x):
        return x[0] * np.exp(-x[2] * t) + x[3] * t - data

    def jac(x):
        e = np.exp(-x[2] * t)
        return np.column_stack((e, np.zeros_like(t), -x[0] * t * e, t))

    x0 = [1.0, 0.123456789, 0.1, 0.0]
    result = levenberg_marquardt(fun, jac, x0, xtol=1e-12, ftol=1e-12)
    assert result.success
    assert result.x[1] == x0[1]
    assert np.allclose(result.x[[0, 2, 3]], [3.0, 0.7, 0.5], rtol=1e-8)


def test_solver_stops_on_a_non_finite_jacobian():
    with pytest.raises(FitError, match="the Jacobian is not finite"):
        levenberg_marquardt(
            lambda x: x - 1.0, lambda x: np.full((1, 1), np.nan), [0.0], xtol=1e-12, ftol=1e-12
        )


def test_snr_fit_refuses_residuals_that_overflow_at_the_start():
    # Finite points and zeta, but 2N overflows: a FitError, not a ValueError.
    with pytest.raises(FitError, match="SNR-model fit: residuals are not finite at the initial"):
        fit_snr_model([(1.7e308, 1.0), (1.7e308, 2.0)], config_from_dict({}).probe)


@pytest.fixture(scope="module")
def published_snr_points():
    """The (n_atoms, v_cond_tilde) points and sigmas that ``analyze`` fits on ``{}``."""
    cfg = config_from_dict({})
    result = analyze_dataset(run_campaign(cfg.campaign, cfg.sequence), cfg.probe, cfg.analysis)
    n = np.array([b.report.n_atoms_mean for b in result.bins])
    v = np.array([b.report.v_cond_tilde for b in result.bins])
    sigma = np.array([b.witness.xi2_stderr for b in result.bins]) * n
    return n, v, sigma, cfg.probe, result.fits["snr_model"]


def test_snr_fit_matches_minpack(published_snr_points):
    n, v, sigma, probe, reported = published_snr_points
    fit = fit_snr_model(zip(n, v), probe, sigma=sigma)
    assert fit == reported

    zeta = np.array([snr(probe, x) for x in n])
    result = scipy.optimize.least_squares(
        lambda b: (2.0 * n / (1.0 + b[0] * zeta) - v) / sigma,
        [1.0],
        jac=lambda b: (-2.0 * n * zeta / sigma / (1.0 + b[0] * zeta) ** 2)[:, None],
        method="lm",
        xtol=1e-14,
        ftol=1e-15,
    )
    jtj = float(result.jac[:, 0] @ result.jac[:, 0])
    stderr = math.sqrt(float(result.fun @ result.fun) / (len(n) - 1) / jtj)
    assert fit.params["b"] == pytest.approx(result.x[0], rel=1e-9, abs=0)
    assert fit.stderrs["b"] == pytest.approx(stderr, rel=1e-9, abs=0)
    assert fit.status in ("ftol", "xtol", "ftol+xtol", "gtol")
    assert fit.nfev > 0


# Both branches at the published field, with a zero component, with a
# transverse-only and an axial-only field, and at negative t2.
JACOBIAN_POINTS = [
    (9.6e-3, 9.7e-3, 9.9e-3, 745e-6, 1e6),
    (0.0, 9.7e-3, 9.9e-3, 745e-6, 1e6),
    (9.6e-3, 0.0, -9.9e-3, 745e-6, 1e6),
    (9.6e-3, 9.7e-3, 0.0, 300e-6, 2e6),
    (0.0, 0.0, 9.9e-3, 745e-6, 1e6),
    (9.6e-3, -9.7e-3, 9.9e-3, -745e-6, 1e6),
    (-2e-3, 5e-3, 1e-3, -1e-4, -3e5),
]


@pytest.mark.parametrize("axis", ["z", "y"])
@pytest.mark.parametrize("params", JACOBIAN_POINTS)
def test_fid_jacobian_matches_central_differences(axis, params):
    t = np.linspace(0.0, 1.5e-3, 301)
    p = np.array(params)

    def model(q):
        return fid_signal(t, q[:3], axis, q[4], G1, abs(q[3]) or 1e-30, GAMMA)

    jac = fid_jacobian(t, p, axis, G1, GAMMA)
    steps = np.array([1e-9, 1e-9, 1e-9, 1e-9, 1.0])
    numeric = np.column_stack(
        [(model(p + h * e) - model(p - h * e)) / (2 * h) for h, e in zip(steps, np.eye(5))]
    )
    # Truncation error sits far below 1e-6 of each column's largest entry;
    # rounding adds ~eps |model| / h, which 1e-14 |g1 f0| / h covers.
    tol = 1e-6 * np.max(np.abs(numeric), axis=0) + 1e-14 * G1 * abs(p[4]) / steps
    assert np.all(np.isfinite(jac))
    assert np.all(np.abs(jac - numeric) <= tol)


def test_fid_jacobian_at_zero_field_and_zero_t2():
    t = np.linspace(0.0, 1e-3, 11)
    for axis, d_f0 in (("z", G1), ("y", 0.0)):
        jac = fid_jacobian(t, (0.0, 0.0, 0.0, 745e-6, 1e6), axis, G1, GAMMA)
        assert np.array_equal(jac, np.column_stack([np.zeros((11, 4)), np.full(11, d_f0)]))
        # t2 = 0 evaluates at T2 = 1e-30, where the model is constant in t2.
        jac = fid_jacobian(t, (9.6e-3, 9.7e-3, 9.9e-3, 0.0, 1e6), axis, G1, GAMMA)
        assert np.all(np.isfinite(jac)) and np.all(jac[:, 3] == 0.0)


def test_solver_reports_exhausted_budget():
    z, y = published_fid_trace(1)
    t = z[:, 0]
    result = levenberg_marquardt(
        lambda p: fid_signal(t, p[:3], "z", p[4], G1, abs(p[3]) or 1e-30, GAMMA) - z[:, 1],
        lambda p: fid_jacobian(t, p, "z", G1, GAMMA),
        [1e-3, 1e-3, 1e-2, 5e-4, 1.2e6],
        xtol=1e-15,
        ftol=1e-15,
        max_nfev=2,
    )
    assert result.status == "max_nfev"
    assert not result.success
    assert result.nfev == 2


def test_fits_raise_fit_error_on_exhausted_budget(monkeypatch, published_snr_points):
    def capped(*args, **kwargs):
        return levenberg_marquardt(*args, **{**kwargs, "max_nfev": 2})

    monkeypatch.setattr(analysis_mod, "levenberg_marquardt", capped)
    monkeypatch.setattr(magnetometry_mod, "levenberg_marquardt", capped)
    with pytest.raises(FitError, match="FID fit did not converge in 2 residual evaluations"):
        fit_fid(*published_fid_trace(1), G1, GAMMA)
    n, v, sigma, probe, _ = published_snr_points
    with pytest.raises(FitError, match="SNR-model fit did not converge in 2 residual"):
        fit_snr_model(zip(n, v), probe, sigma=sigma)


def test_solver_rejects_tolerances_below_machine_epsilon():
    with pytest.raises(ValueError, match="machine epsilon"):
        levenberg_marquardt(lambda x: x, lambda x: np.eye(1), [1.0], xtol=1e-17, ftol=1e-15)


def test_parameter_covariance_is_sigma2_pinv_jtj():
    rng = np.random.default_rng(23)
    for m, n in ((12, 3), (40, 5), (4, 4)):
        jac = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, n)
        r = rng.standard_normal(m)
        sigma2 = float(r @ r) / (m - n) if m > n else 0.0
        expected = sigma2 * np.linalg.pinv(jac.T @ jac, rcond=1e-12)
        assert np.array_equal(parameter_covariance(jac, r), expected)


@pytest.mark.parametrize("where", ["jac", "residuals", "jtj"])
def test_parameter_covariance_refuses_non_finite_input(where):
    jac, r = np.eye(4, 2), np.ones(4)
    if where == "jac":
        jac[1, 1] = np.inf
    elif where == "residuals":
        r[2] = np.inf
    else:
        jac[0, 0] = 1e200  # finite, but J^T J overflows
    with pytest.raises(FitError, match="the residual norm or the Jacobian is not finite"):
        parameter_covariance(jac, r)


def test_parameter_covariance_refuses_a_covariance_that_overflows():
    # J^T J = 2e-320 is finite and non-zero, but its inverse overflows.
    with pytest.raises(FitError, match="the parameter covariance is not finite"):
        parameter_covariance(np.full((2, 1), 1e-160), [1.0, -1.0])
