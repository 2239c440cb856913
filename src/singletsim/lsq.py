"""Least-squares solver and the one parameter-covariance rule of every fit.

``levenberg_marquardt`` is a port of MINPACK's ``lmder`` (J. J. More,
"The Levenberg-Marquardt algorithm: implementation and theory", Lecture
Notes in Mathematics 630, 1978), used by the package's two nonlinear
fits, and keeps MINPACK's iterates to rounding.  One model call gives
the residuals f and Jacobian J of a point, so each point is evaluated
once; each J is factored once, by one unpivoted QR of [J f] for the
triangle R and Q^T f.  More's safeguarded Newton iteration picks the
damping so that the step fills a trust region in x / x_scale, and one
SVD of the n x n triangle R D^-1 gives that step for any damping in
closed form; a direction with a zero singular value (a parameter the
data do not constrain) gets no step.  The radius grows or shrinks with
the ratio of actual to predicted cost reduction.

``parameter_covariance`` is the only place a fit's uncertainty is
formed: the linear noise-scaling fits and the g1 calibration call it on
their design matrix, the SNR-model and FID fits on the Jacobian at the
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

# MINPACK's cosine test: stop when the residual vector is orthogonal to
# every Jacobian column to this tolerance.
GTOL = 1e-8

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# The first trust radius is FACTOR * ||x0 / x_scale|| (FACTOR if x0 = 0).
_FACTOR = 100.0


@dataclass(frozen=True)
class LsqResult:
    """The solver's last accepted point.

    ``fun`` and ``jac`` are the residuals and Jacobian at ``x``, as the
    model returned them; ``nfev`` counts model evaluations.
    ``status`` names the test that stopped the solver: ``"ftol"``,
    ``"xtol"``, ``"ftol+xtol"`` or ``"gtol"`` on convergence, and
    ``"max_nfev"`` when the evaluation budget ran out.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    status: str

    @property
    def success(self) -> bool:
        return self.status != "max_nfev"


def _lmpar(b, qtf, delta: float, par: float):
    """MINPACK ``lmpar`` from one SVD: damping ``par`` and scaled step y.

    y = D p minimizes ||B y - Q^T f||^2 + par ||y||^2 (B = R D^-1), and
    either par = 0 with ||y|| <= 1.1 delta, or par > 0 with ||y|| within
    10% of delta.  With B = U S V^T, V^T y = (S + par / S)^-1 U^T Q^T f for
    any par; a singular value below rounding of the largest gets no step.
    Returns (par, y); the caller steps by -y / D.
    """
    u, s, vt = np.linalg.svd(b)
    c = qtf @ u
    dead = s <= len(s) * _EPS * s[0]
    s[dead] = np.inf  # so that V^T y is 0 along a dead direction

    def newton(fp, vty, dxnorm, par):
        # More's correction fp / delta / (y^T (B^T B + par I)^-1 y / ||y||^2).
        return fp / delta / float(np.sum((vty / dxnorm) ** 2 / s / (s + par / s)))

    vty = c / s
    dxnorm = float(np.linalg.norm(vty))
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        par = 0.0
    else:
        # Bounds parl <= par <= paru from the Newton step on phi(par) = ||y|| - delta.
        parl = 0.0 if dead.any() else newton(fp, vty, dxnorm, 0.0)
        gnorm = float(np.linalg.norm(b.T @ qtf))
        paru = gnorm / delta
        if paru == 0.0:
            paru = _TINY / min(delta, 0.1)
        par = min(max(par, parl), paru)
        if par == 0.0:
            par = gnorm / dxnorm
        for iteration in range(1, 11):
            if par == 0.0:
                par = max(_TINY, 0.001 * paru)
            vty = c / (s + par / s)
            dxnorm = float(np.linalg.norm(vty))
            fp_old, fp = fp, dxnorm - delta
            if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= fp_old < 0) or iteration == 10:
                break
            parc = newton(fp, vty, dxnorm, par)
            if fp > 0:
                parl = max(parl, par)
            elif fp < 0:
                paru = min(paru, par)
            par = max(parl, par + parc)
    y = vt.T @ vty
    # A zero column of B gets exactly no step: the SVD leaves rounding there.
    y[~b.any(axis=0)] = 0.0
    return par, y


def levenberg_marquardt(model, x0, *, xtol: float, ftol: float, x_scale=1.0, max_nfev=None):
    """Minimize ||f(x)||^2 over x, starting from ``x0``.

    ``model(x)`` returns the m residuals f(x) and their (m, n) Jacobian,
    m >= n.  ``x_scale`` is each variable's characteristic size (a
    scalar or n values): the trust region is a ball in x / x_scale.  The
    solver stops when an accepted step changed the cost by a relative
    ``ftol`` or less, as predicted and as observed (``"ftol"``); when
    the trust radius falls to ``xtol`` times ||x / x_scale|| (``"xtol"``);
    when every Jacobian column is orthogonal to the residuals to within
    ``GTOL`` in cosine (``"gtol"``); or after ``max_nfev`` model
    evaluations (default 100 n) with ``"max_nfev"``.  A residual norm at
    ``x0`` that is not finite (checked without numpy warnings) or a
    Jacobian that is not finite where it is factored raises ``FitError``.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    if min(xtol, ftol) < _EPS:
        raise ValueError(f"xtol and ftol must be at least machine epsilon ({_EPS:.3g})")
    diag = 1.0 / np.broadcast_to(np.asarray(x_scale, dtype=float), x.shape)
    max_nfev = 100 * n if max_nfev is None else max_nfev

    # A start that overflows is reported by the check below, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        f, j = model(x)
        fnorm = float(np.linalg.norm(f))
    nfev = 1
    if f.size < n:
        raise ValueError(f"{f.size} residuals cannot determine {n} parameters")
    if not math.isfinite(fnorm):
        raise FitError("the residual norm is not finite at the initial guess")
    xnorm = float(np.linalg.norm(diag * x))
    delta = _FACTOR * xnorm or _FACTOR
    par = 0.0
    first_step = True
    status = None
    while status is None:
        if not np.isfinite(j).all():
            raise FitError(f"the Jacobian is not finite at x = {x}")
        a = np.linalg.qr(np.column_stack((j, f)), mode="r")
        r, qtf = a[:n, :n], a[:n, n]
        norms = np.linalg.norm(j, axis=0)
        live = (norms != 0.0) & (fnorm != 0.0)
        gnorm = float(np.max(np.abs(r.T @ qtf)[live] / fnorm / norms[live], initial=0.0))
        if gnorm <= GTOL:
            status = "gtol"
            break
        while True:
            par, y = _lmpar(r / diag, qtf, delta, par)
            step = -y / diag
            pnorm = float(np.linalg.norm(y))
            if first_step:
                delta = min(delta, pnorm)
            x_new = x + step
            f_new, j_new = model(x_new)
            nfev += 1
            fnorm_new = float(np.linalg.norm(f_new))
            # A residual norm that grew tenfold or more (or is not finite)
            # counts as a failed step.
            actred = 1.0 - (fnorm_new / fnorm) ** 2 if 0.1 * fnorm_new < fnorm else -1.0
            temp1 = float(np.linalg.norm(r @ step)) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1**2 + temp2**2 / 0.5
            dirder = -(temp1**2 + temp2**2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                shrink = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm_new >= fnorm or shrink < 0.1:
                    shrink = 0.1
                delta = shrink * min(delta, pnorm / 0.1)
                par /= shrink
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, f, j, fnorm = x_new, f_new, j_new, fnorm_new
                xnorm = float(np.linalg.norm(diag * x))
                first_step = False
            ftol_met = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            xtol_met = delta <= xtol * xnorm
            if ftol_met or xtol_met:
                status = "ftol+xtol" if ftol_met and xtol_met else "ftol" if ftol_met else "xtol"
            elif nfev >= max_nfev:
                status = "max_nfev"
            if status is not None or accepted:
                break
    return LsqResult(x, f, j, nfev, status)


def parameter_covariance(jac, residuals) -> np.ndarray:
    """The (n, n) parameter covariance sigma^2 pinv(J^T J) of a least-squares fit.

    ``jac`` is the (m, n) Jacobian (for a linear fit, the design matrix)
    and ``residuals`` the m residuals at the solution; sigma^2 =
    |r|^2 / (m - n), or 0 when m = n.  Singular values of J^T J below
    1e-12 of the largest are dropped, so a direction the data do not
    constrain gets variance 0.  The result is exactly symmetric: it is the
    mean of pinv's result and its transpose, which keeps each diagonal
    entry's bits.  The cut is relative, so J's columns must be on
    comparable scales: ``fit_noise_scaling`` and ``fit_fid`` pass
    column-scaled J and scale the result back.  Raises ``FitError`` when
    |r|^2, J or J^T J is not finite, before LAPACK sees them, or when the
    covariance itself is not (an entry past half the float range counts).
    """
    jac = np.asarray(jac, dtype=float)
    r = np.asarray(residuals, dtype=float)
    m, n = jac.shape
    with np.errstate(all="ignore"):
        jtj = jac.T @ jac
        rss = float(r @ r)
    if not (math.isfinite(rss) and np.isfinite(jac).all() and np.isfinite(jtj).all()):
        raise FitError("the residual norm or the Jacobian is not finite")
    sigma2 = rss / (m - n) if m > n else 0.0
    with np.errstate(all="ignore"):
        cov = sigma2 * np.linalg.pinv(jtj, rcond=1e-12)
        cov = 0.5 * (cov + cov.T)  # pinv's triangles differ in their last bits
    if not np.isfinite(cov).all():
        raise FitError("the parameter covariance is not finite")
    return cov
