"""Free-induction-decay magnetometry: forward model and field extraction.

A sample polarized along the unit axis e (z or y) precesses about the
applied field and is read out by Faraday rotation; the probe angle is

    theta(t) = g1 * f0 * (a + (c cos(w) + s sin(w)) E(t))

with n = B/|B|, a = n_z (n.e), c = e_z - a and s = (n x e)_z, the phase
w = gamma*|B|*t and a Gaussian dephasing envelope E(t) = exp(-t^2/T2^2)
that damps only the precessing part.  Both branches, the signal and its
Jacobian, come from this one form.  Jointly fitting both traces
recovers the field vector, T2, and the initial polarization f0 (assumed
equal for the two preparations).

The model is invariant under the simultaneous sign flip of (By, Bz), so
the fit returns the Bz >= 0 representative and lists the equivalent
mirror solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, FitError
from .fileio import read_table, write_json
from .lsq import levenberg_marquardt, parameter_covariance
from .spins import GYROMAGNETIC_RATIO

PARAM_NAMES = ("bx", "by", "bz", "t2", "f0")

FID_CSV_COLUMNS = ("t_us", "theta_rad", "branch")

# The unit preparation axis e of each FID branch.
_AXES = {"z": (0.0, 0.0, 1.0), "y": (0.0, 1.0, 0.0)}


@dataclass(frozen=True)
class FieldEstimate:
    """Fitted field vector with dephasing time and polarization.

    ``flags`` names parameters (or issues) the data could not
    constrain; ``equivalent_solutions`` lists field vectors that fit the
    data exactly as well (sign degeneracy of the model).  ``nfev`` and
    ``status`` are the solver's residual-evaluation count and stop
    reason (``lsq.LsqResult``).
    """

    b: np.ndarray
    t2: float
    f0: float
    residual_norm: float
    covariance: np.ndarray
    nfev: int
    status: str
    flags: tuple = ()
    equivalent_solutions: tuple = ()

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


def _unit_field_terms(b, init_axis: str):
    """The field's part of the FID model for one preparation axis.

    Returns (|B|, n, a, c, s, grad_a, grad_s): n = B/|B|, the model's
    coefficients a = n_z (n.e), c = e_z - a and s = (n x e)_z for the
    unit preparation axis e, and the gradients of a and s with respect
    to B (that of c is -grad_a), each a 3-tuple.  At zero field the spin
    stays along e: a = e_z and everything else is 0.
    """
    if init_axis not in _AXES:
        raise ValueError("init_axis must be 'z' or 'y'")
    e = _AXES[init_axis]
    b = tuple(float(v) for v in np.asarray(b, dtype=float))
    b2 = b[0] ** 2 + b[1] ** 2 + b[2] ** 2
    if b2 == 0.0:
        return 0.0, (0.0, 0.0, 0.0), e[2], 0.0, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    b_mag = math.sqrt(b2)
    b_e = b[0] * e[0] + b[1] * e[1] + b[2] * e[2]
    a = b[2] * b_e / b2
    s = (b[0] * e[1] - b[1] * e[0]) / b_mag
    # grad a = (z^ (B.e) + B_z e - 2 a B) / |B|^2;  grad s = (e_y, -e_x, 0)/|B| - s B/|B|^2.
    grad_a = tuple((z + b[2] * ek - 2.0 * a * bk) / b2 for z, ek, bk in zip((0.0, 0.0, b_e), e, b))
    grad_s = tuple(r / b_mag - s * bk / b2 for r, bk in zip((e[1], -e[0], 0.0), b))
    return b_mag, tuple(bk / b_mag for bk in b), a, e[2] - a, s, grad_a, grad_s


def fid_signal(
    t,
    b,
    init_axis: str,
    f0: float,
    g1: float,
    t2: float,
    gamma: float = GYROMAGNETIC_RATIO,
):
    """Faraday-rotation FID signal, radians.  Vectorized over ``t``.

    ``init_axis`` selects the preparation: "z" or "y".  The zero-field
    limit is the constant g1*f0 for the z branch and 0 for the y branch.
    """
    b_mag, _, a, c, s, _, _ = _unit_field_terms(b, init_axis)
    if t2 <= 0:
        raise ValueError("t2 must be positive")
    t = np.asarray(t, dtype=float)
    omega = gamma * b_mag * t
    osc = c * np.cos(omega)
    if s:  # s = 0 on the z branch: no sin term
        osc = osc + s * np.sin(omega)
    value = g1 * f0 * (a + osc * np.exp(-(t**2) / t2**2))
    return value if value.ndim else float(value)


def fid_jacobian(t, params, init_axis: str, g1: float, gamma: float = GYROMAGNETIC_RATIO):
    """Derivatives of the fit's FID model with respect to (bx, by, bz, t2, f0).

    The model is ``fid_signal(t, (bx, by, bz), init_axis, f0, g1, T2)``
    with T2 = abs(t2), or 1e-30 where t2 = 0, as ``fit_fid`` evaluates
    it; so the t2 column carries sign(t2) and is 0 at t2 = 0.  Returns an
    (len(t), 5) array.  At zero field the model is the constant
    zero-field limit, whose only nonzero derivative is g1 along f0 on the
    z branch.
    """
    bx, by, bz, t2, f0 = (float(v) for v in params)
    b_mag, n, a, c, s, grad_a, grad_s = _unit_field_terms((bx, by, bz), init_axis)
    t = np.asarray(t, dtype=float)
    big_t2 = abs(t2) or 1e-30
    u = t**2 / big_t2**2
    envelope = np.exp(-u)
    omega = gamma * b_mag * t
    cos_e = np.cos(omega) * envelope
    sin_e = np.sin(omega) * envelope
    osc = c * cos_e + s * sin_e
    decay = 1.0 - cos_e  # grad c = -grad a
    # d(omega)/dB = gamma t n: the chain term of the precession phase.
    chain = (s * cos_e - c * sin_e) * gamma * t
    amp = g1 * f0
    jac = np.empty((t.size, 5))
    for k in range(3):
        jac[:, k] = amp * (grad_a[k] * decay + grad_s[k] * sin_e + n[k] * chain)
    jac[:, 3] = amp * osc * (2.0 * u / big_t2) * np.sign(t2)
    jac[:, 4] = g1 * (a + osc)
    return jac


def _fft_larmor_frequency(t: np.ndarray, theta: np.ndarray) -> float:
    """Angular frequency of the dominant spectral line (rad/s), 0 if flat."""
    if len(t) < 8:
        return 0.0
    order = np.argsort(t)
    t, theta = t[order], theta[order]
    dt = float(np.median(np.diff(t)))
    if dt <= 0:
        return 0.0
    detrended = theta - theta.mean()
    spectrum = np.abs(np.fft.rfft(detrended))
    freqs = np.fft.rfftfreq(len(t), dt)
    if len(spectrum) < 3:
        return 0.0
    k = 1 + int(np.argmax(spectrum[1:]))
    if spectrum[k] < 1e-9 * max(np.max(np.abs(theta)), 1e-300):
        return 0.0
    # Parabolic refinement of the peak bin.
    if 1 <= k < len(spectrum) - 1:
        a, b_, c = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = a - 2 * b_ + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
        return 2 * math.pi * (freqs[k] + shift * (freqs[1] - freqs[0]))
    return 2 * math.pi * freqs[k]


def _envelope_t2(t: np.ndarray, osc: np.ndarray, duration: float) -> float:
    """Log-fit of the oscillation envelope: |osc| ~ exp(-t^2/T2^2)."""
    amp = np.abs(osc)
    big = amp > 0.2 * amp.max() if amp.max() > 0 else np.zeros(len(t), bool)
    if big.sum() < 4:
        return duration / 2.0
    slope = np.polyfit(t[big] ** 2, np.log(amp[big]), 1)[0]
    if slope >= 0:
        return duration / 2.0
    return float(1.0 / math.sqrt(-slope))


def _initial_guess(tz, thz, ty, thy, g1, gamma, duration):
    f0 = 0.0
    if len(tz):
        f0 = thz[np.argmin(tz)] / g1
    if f0 == 0.0 and len(ty):
        f0 = float(np.max(np.abs(thy))) / g1
    if f0 == 0.0:
        f0 = 1.0

    omega = _fft_larmor_frequency(ty, thy) if len(ty) else 0.0
    if omega == 0.0 and len(tz):
        omega = _fft_larmor_frequency(tz, thz)
    b_mag = omega / gamma if omega > 0 else 1e-3

    # Direction cosines from the non-decaying levels of each branch.
    nz2 = 0.5
    if len(tz):
        tail = tz > 0.75 * tz.max()
        if tail.sum() >= 4:
            nz2 = float(np.mean(thz[tail])) / (g1 * f0)
    nz2 = min(max(nz2, 1e-6), 1.0)
    nz = math.sqrt(nz2)

    ny = 0.0
    if len(ty):
        tail = ty > 0.75 * ty.max()
        if tail.sum() >= 4:
            ny = float(np.mean(thy[tail])) / (g1 * f0) / nz
    ny = min(max(ny, -math.sqrt(1.0 - nz2)), math.sqrt(1.0 - nz2))
    nx = math.sqrt(max(1.0 - nz2 - ny**2, 0.0))

    t2 = duration / 2.0
    if len(tz):
        osc = thz - g1 * f0 * nz2
        t2 = _envelope_t2(tz, osc, duration)

    if nx > 0 and len(ty) and omega > 0:
        env = np.exp(-(ty**2) / t2**2)
        quad = float(np.sum((thy - thy.mean()) * np.sin(omega * ty) * env))
        if quad < 0:
            nx = -nx

    return np.array([nx * b_mag, ny * b_mag, nz * b_mag, t2, f0])


def fit_fid(
    z_samples,
    y_samples,
    g1: float,
    gamma: float = GYROMAGNETIC_RATIO,
) -> FieldEstimate:
    """Joint damped least-squares fit of both FID branches.

    Each branch is an (n, 2) array-like of (t, theta) rows, time in
    seconds and Faraday angle in radians; a branch may be empty.  Free
    parameters: (Bx, By, Bz, T2, f0), with the two preparations
    sharing the polarization magnitude f0.  Initial guesses come from
    the FFT line position, the non-decaying signal levels, and an
    envelope log-fit.  The fit is ``lsq.levenberg_marquardt`` with the
    analytic Jacobian ``fid_jacobian``, which also gives, at the
    solution, the covariance (``lsq.parameter_covariance``) and the
    identifiability checks.  Parameters the data leave unconstrained
    (zero Jacobian column, e.g. the transverse split for a z-branch-only
    data set) are reported in ``flags``; a fit that runs out of its 20000
    residual evaluations raises ``FitError``, as does a residual norm
    that is not finite at the initial guess, or a residual norm or
    Jacobian (J and J^T J) that is not finite at the solution.
    """
    # Transposed copies: each of t and theta is one contiguous array.
    (tz, thz), (ty, thy) = (
        np.asarray(s, dtype=float).reshape(-1, 2).T.copy() for s in (z_samples, y_samples)
    )
    n_total = len(tz) + len(ty)
    if n_total < 8:
        raise EstimationError("need at least 8 FID samples to constrain 5 parameters")
    duration = max(tz.max() if len(tz) else 0.0, ty.max() if len(ty) else 0.0)
    if duration <= 0:
        raise EstimationError("FID samples must span a positive time range")

    branches = [(t, th, axis) for t, th, axis in ((tz, thz, "z"), (ty, thy, "y")) if len(t)]

    def residuals(p):
        bx, by, bz, t2, f0 = p
        return np.concatenate(
            [
                fid_signal(t, (bx, by, bz), axis, f0, g1, abs(t2) or 1e-30, gamma) - th
                for t, th, axis in branches
            ]
        )

    def jacobian(p):
        return np.concatenate([fid_jacobian(t, p, axis, g1, gamma) for t, _, axis in branches])

    # Huge angles overflow the initial guess and its residuals; the check
    # below reports that, so numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = _initial_guess(tz, thz, ty, thy, g1, gamma, duration)
        start_norm = np.linalg.norm(residuals(x0))
    if not math.isfinite(start_norm):
        raise FitError("FID fit: the residual norm is not finite at the initial guess")
    scale = np.array([1e-3, 1e-3, 1e-3, max(duration / 2, 1e-9), max(abs(x0[4]), 1.0)])
    result = levenberg_marquardt(
        residuals, jacobian, x0, x_scale=scale, xtol=1e-15, ftol=1e-15, max_nfev=20000
    )
    if not result.success:
        raise FitError(
            f"FID fit did not converge in {result.nfev} residual evaluations "
            f"(final residual norm {np.linalg.norm(result.fun):.3g})"
        )

    params = result.x.copy()
    params[3] = abs(params[3])  # model depends on T2^2 only

    # Checked before the SVD below, which may never return on non-finite input.
    try:
        cov = parameter_covariance(result.jac, result.fun)
    except FitError as exc:
        raise FitError(f"FID fit: {exc} at the solution") from None
    residual_norm = float(np.linalg.norm(result.fun))
    jac_scaled = result.jac * scale[None, :]

    flags = []
    # Identifiability checks use the Jacobian per natural parameter
    # scale, so mG-sized fields and spin-sized amplitudes compare fairly.
    col_norms = np.linalg.norm(jac_scaled, axis=0)
    ref = max(col_norms.max(), 1e-300)
    for name, cn in zip(PARAM_NAMES, col_norms):
        if cn < 1e-9 * ref:
            flags.append(f"unconstrained:{name}")
    sv = np.linalg.svd(jac_scaled, compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        flags.append("degenerate_geometry")

    # Canonical sign representative: Bz >= 0 (the model is invariant
    # under flipping both By and Bz).
    bx, by, bz = params[0], params[1], params[2]
    if bz < 0 or (bz == 0 and by < 0):
        by, bz = -by, -bz
    b = np.array([bx, by, bz])
    mirror = np.array([bx, -by, -bz])

    return FieldEstimate(
        b=b,
        t2=float(params[3]),
        f0=float(params[4]),
        residual_norm=residual_norm,
        covariance=cov,
        flags=tuple(flags),
        equivalent_solutions=(tuple(float(v) for v in mirror),),
        nfev=result.nfev,
        status=result.status,
    )


# ---------------------------------------------------------------------------
# file formats


# The FID CSV's columns as read; the branch is read as text.
_FID_DTYPE = np.dtype(list(zip(FID_CSV_COLUMNS, (float, float, object))))


# Each accepted branch (without surrounding whitespace) and its index in "zy".
_BRANCH_CODES = {"z": 0, "y": 1}


def _branches(text) -> np.ndarray:
    """Each branch field's index in "zy", or -1 where it is neither z nor y."""
    code = np.where(text == "z", 0, np.where(text == "y", 1, -1))
    odd = np.flatnonzero(code < 0)  # only these are stripped and looked up
    code[odd] = [_BRANCH_CODES.get(b.strip(), -1) for b in text[odd].tolist()]
    return code


def _fid_rules(rows, branch):
    """The FID CSV's row rules, in the order each row is checked.

    ``branch`` is ``_branches`` of the rows' branch column.
    """
    t, theta = rows["t_us"] * 1e-6, rows["theta_rad"]
    yield ~np.isfinite(t) | ~np.isfinite(theta), "non-finite t_us or theta_rad"
    yield t < 0, "t must be non-negative"
    text = rows["branch"]
    yield branch < 0, lambda i, _: f"branch must be 'z' or 'y', got {text[i].strip()!r}"


def read_fid_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an FID trace (columns t_us, theta_rad, branch) into (z, y) arrays.

    Each branch comes back as an (n, 2) float array of (t, theta) rows,
    t in seconds.  A bad row raises ``SchemaError`` naming ``path:line``:
    an unparsable or non-finite number, a negative time or a branch other
    than z or y (``_fid_rules``).  Each branch field is classified once,
    for the rules and the split alike.
    """
    branch = None

    def rules(rows):
        nonlocal branch
        branch = _branches(rows["branch"])
        return _fid_rules(rows, branch)

    # ``read_table`` returns the rows its last ``rules`` call saw.
    rows = read_table(path, _FID_DTYPE, rules)
    t = rows["t_us"] * 1e-6
    return tuple(
        np.column_stack((t[mask], rows["theta_rad"][mask]))
        for mask in (branch == code for code in (0, 1))
    )


def write_estimate_json(path, estimate: FieldEstimate) -> None:
    """Write a field estimate as JSON (fields in mG, times in us)."""
    payload = {
        "bx_mG": estimate.b[0] * 1e3,
        "by_mG": estimate.b[1] * 1e3,
        "bz_mG": estimate.b[2] * 1e3,
        "t2_us": estimate.t2 * 1e6,
        "f0_spins": estimate.f0,
        "residual_norm": estimate.residual_norm,
        "param_names": list(PARAM_NAMES),
        "covariance": [[float(v) for v in row] for row in estimate.covariance],
        "flags": list(estimate.flags),
        "equivalent_solutions_mG": [
            [v * 1e3 for v in sol] for sol in estimate.equivalent_solutions
        ],
        "nfev": estimate.nfev,
        "status": estimate.status,
    }
    write_json(path, payload)
