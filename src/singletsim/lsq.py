"""Least-squares solver and the one parameter-covariance rule of every fit.

``levenberg_marquardt`` is a port of MINPACK's ``lmder`` (J. J. More,
"The Levenberg-Marquardt algorithm: implementation and theory", Lecture
Notes in Mathematics 630, 1978), used by the package's two nonlinear
fits.  Each iteration takes
the Householder QR factorization of the Jacobian with column pivoting,
so a parameter the data do not constrain (a zero column) is pivoted last
and left alone, and finds the damping parameter by More's safeguarded
Newton iteration so that the step fills a trust region in the variables
scaled by ``1 / x_scale``.  The radius grows or shrinks with the ratio
of actual to predicted cost reduction.

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

    ``fun`` and ``jac`` are the residuals and Jacobian at ``x``; ``nfev``
    counts residual evaluations (Jacobian evaluations not included).
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


def _pivoted_qr(jac: np.ndarray, f: np.ndarray):
    """MINPACK ``qrfac``: Householder QR of ``jac`` with column pivoting.

    Returns (R, perm, Q^T f, column norms of ``jac``) with
    ``jac[:, perm] = Q R``: at step j the remaining column of largest
    norm is moved to position j.  LAPACK's unpivoted QR first reduces
    [jac, f] to a triangle with the same column norms, whose pivoted
    factorization is then jac's; ``f`` rides along as the last column,
    reflected but never pivoted.
    """
    n = jac.shape[1]
    a = np.linalg.qr(np.column_stack((jac, f)), mode="r")
    col_norms = np.linalg.norm(a[:, :n], axis=0)
    perm = np.arange(n)
    for j in range(n):
        k = j + int(np.argmax(np.linalg.norm(a[j:, j:n], axis=0)))
        a[:, [j, k]] = a[:, [k, j]]
        perm[[j, k]] = perm[[k, j]]
        alpha = float(np.linalg.norm(a[j:, j]))
        if alpha == 0.0:
            continue
        if a[j, j] < 0:
            alpha = -alpha
        v = a[j:, j] / alpha
        v[0] += 1.0
        a[j:, j + 1 :] -= np.outer(v, (v @ a[j:, j + 1 :]) / v[0])
        a[j:, j] = 0.0
        a[j, j] = -alpha
    return np.triu(a[:n, :n]), perm, a[:n, n].copy(), col_norms


def _lmpar(r, perm, diag, qtf, delta: float, par: float):
    """MINPACK ``lmpar``: damping ``par`` and step p for radius ``delta``.

    p minimizes ||J p - f||^2 + par ||D p||^2 (D = ``diag``, J = Q R P^T)
    and either par = 0 with ||D p|| <= 1.1 delta, or par > 0 with
    ||D p|| within 10% of delta.  Returns (par, p); the caller steps by -p.
    """
    n = len(qtf)
    d = diag[perm]
    zero_pivots = np.flatnonzero(np.diag(r) == 0.0)
    nsing = int(zero_pivots[0]) if len(zero_pivots) else n

    # Gauss-Newton step, with the components past a zero pivot set to 0.
    z = np.zeros(n)
    z[:nsing] = np.linalg.solve(r[:nsing, :nsing], qtf[:nsing])
    dxnorm = float(np.linalg.norm(d * z))
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, z[np.argsort(perm)]

    # Bounds parl <= par <= paru from the Newton step on phi(par) = ||D p|| - delta.
    parl = 0.0
    if nsing == n:
        y = np.linalg.solve(r.T, d * (d * z) / dxnorm)
        parl = fp / delta / float(y @ y)
    gnorm = float(np.linalg.norm((r.T @ qtf) / d))
    paru = gnorm / delta
    if paru == 0.0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm

    rhs = np.concatenate((qtf, np.zeros(n)))
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_TINY, 0.001 * paru)
        q, s = np.linalg.qr(np.vstack((r, np.diag(math.sqrt(par) * d))))
        z = np.linalg.solve(s, q.T @ rhs)
        dxnorm = float(np.linalg.norm(d * z))
        fp_old, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= fp_old < 0) or iteration == 10:
            break
        y = np.linalg.solve(s.T, d * (d * z) / dxnorm)
        parc = fp / delta / float(y @ y)
        if fp > 0:
            parl = max(parl, par)
        elif fp < 0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, z[np.argsort(perm)]


def levenberg_marquardt(fun, jac, x0, *, xtol: float, ftol: float, x_scale=1.0, max_nfev=None):
    """Minimize ||fun(x)||^2 over x, starting from ``x0``.

    ``fun(x)`` returns the m residuals and ``jac(x)`` their (m, n)
    Jacobian, m >= n.  ``x_scale`` is each variable's characteristic
    size (a scalar or n values): the trust region is a ball in
    x / x_scale.  The solver stops when an accepted step changed the
    cost by a relative ``ftol`` or less, as predicted and as observed
    (``"ftol"``); when the trust radius falls to ``xtol`` times
    ||x / x_scale|| (``"xtol"``); when every Jacobian column is
    orthogonal to the residuals to within ``GTOL`` in cosine
    (``"gtol"``); or after ``max_nfev`` residual evaluations (default
    100 n) with ``"max_nfev"``.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    if min(xtol, ftol) < _EPS:
        raise ValueError(f"xtol and ftol must be at least machine epsilon ({_EPS:.3g})")
    diag = 1.0 / np.broadcast_to(np.asarray(x_scale, dtype=float), x.shape)
    max_nfev = 100 * n if max_nfev is None else max_nfev

    f = fun(x)
    nfev = 1
    if f.size < n:
        raise ValueError(f"{f.size} residuals cannot determine {n} parameters")
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    fnorm = float(np.linalg.norm(f))
    xnorm = float(np.linalg.norm(diag * x))
    delta = _FACTOR * xnorm or _FACTOR
    par = 0.0
    first_step = True
    status = None
    while status is None:
        j, j_at = jac(x), x
        r, perm, qtf, col_norms = _pivoted_qr(j, f)
        gnorm = 0.0
        if fnorm != 0.0:
            norms = col_norms[perm]
            live = norms != 0.0
            cosines = (r.T @ qtf)[live] / fnorm / norms[live]
            gnorm = float(np.max(np.abs(cosines), initial=0.0))
        if gnorm <= GTOL:
            status = "gtol"
            break
        while True:
            par, p = _lmpar(r, perm, diag, qtf, delta, par)
            step = -p
            pnorm = float(np.linalg.norm(diag * step))
            if first_step:
                delta = min(delta, pnorm)
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            fnorm_new = float(np.linalg.norm(f_new))
            # A residual norm that grew tenfold or more (or is not finite)
            # counts as a failed step.
            actred = 1.0 - (fnorm_new / fnorm) ** 2 if 0.1 * fnorm_new < fnorm else -1.0
            temp1 = float(np.linalg.norm(r @ step[perm])) / fnorm
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
                x, f, fnorm = x_new, f_new, fnorm_new
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
    # x has not moved since the last QR unless the final step was accepted.
    return LsqResult(x, f, j if x is j_at else jac(x), nfev, status)


def parameter_covariance(jac, residuals) -> np.ndarray:
    """The (n, n) parameter covariance sigma^2 pinv(J^T J) of a least-squares fit.

    ``jac`` is the (m, n) Jacobian (for a linear fit, the design matrix)
    and ``residuals`` the m residuals at the solution; sigma^2 =
    |r|^2 / (m - n), or 0 when m = n.  Singular values of J^T J below
    1e-12 of the largest are dropped, so a direction the data do not
    constrain gets variance 0.  Raises ``FitError`` when |r|^2, J or
    J^T J is not finite, before LAPACK sees them, or when the covariance
    itself is not.
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
    if not np.isfinite(cov).all():
        raise FitError("the parameter covariance is not finite")
    return cov
