"""Statistical pipeline: covariances, conditioning, selection, witness, fits.

Works on one ``ShotTable`` (``sequence.py``): the atom rows' ``f1``,
``f2`` and ``n_atoms`` columns and the reference rows' readouts are
taken from it as arrays.  Total variances are traces of 3x3
sample covariances; the read-out contribution ``v0`` measured on
no-atom reference shots is subtracted before witness evaluation.  The
witness is the spin-1 squeezing inequality (Toth and Mitchell, New J.
Phys. 12, 053007 (2010)):

    xi2 = v_tilde / n_atoms

with xi2 < 1 detecting entanglement and (1 - xi2) * n_atoms lower-
bounding the number of entangled atoms.

Standard errors are delta-method (influence-function) estimates and
use no random draws.  A total variance is the mean of |x - x_bar|^2
over the m shots behind it, so its stderr is std(|x - x_bar|^2,
ddof=1) / sqrt(m), and the witness stderr is that over n_atoms
(Efron and Tibshirani, *An Introduction to the Bootstrap*, 1993).  The
selection path takes x = f2 of the selected shots.  The conditional
path takes the regression residuals r = f2c - f1c @ K, with
K = g1^{-1} g12 the gain ``conditional_covariance`` returns: the Schur
trace is their total variance, and K's own estimation error drops out
to first order because K minimizes it.  ``v0`` is a constant here, so
its own error is not included.

Every fit's parameter stderrs come from ``lsq.parameter_covariance``,
the one place fit uncertainties are formed.

The report and the cutoff scan share one selection state per table:
``v0``, the quantile bins and the centred distances |f1 - <f1>_bin|^2
are computed once, by whichever of ``analyze_dataset`` and
``cutoff_scan`` runs first on the table, and are dropped with it.
Each witness takes its variance and its stderr from one centred array.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, FitError, InvariantError
from .fileio import write_csv, write_json
from .lsq import levenberg_marquardt, parameter_covariance
from .probe import ProbeConfig, readout_noise_sigma, snr
from .sequence import ShotTable

PINV_RCOND = 1e-10


# ---------------------------------------------------------------------------
# covariance estimation


def sample_covariance(vectors) -> np.ndarray:
    """Unbiased sample covariance of row vectors, explicitly symmetrized.

    A covariance that overflows raises ``InvariantError`` before any
    SVD or solve sees it.
    """
    return _centred_covariance(vectors)[1]


def _centred_covariance(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The row vectors centred on their mean, and ``sample_covariance`` of them.

    The covariance is xc^T xc / (m - 1) of the centred array xc, so a
    caller that also needs xc centres the vectors once.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EstimationError("need at least 2 vectors for a sample covariance")
    with np.errstate(all="ignore"):
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / (x.shape[0] - 1)
    if not np.isfinite(cov).all():
        raise InvariantError("sample covariance is not finite")
    return xc, 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class ConditionalCovariance:
    """Schur complement g2 - g12^T K, the gain K = g1^{-1} g12 and the singularity flag."""

    matrix: np.ndarray
    gain: np.ndarray
    pinv_used: bool

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def conditional_covariance(g1, g2, g12) -> ConditionalCovariance:
    """Covariance of the second measurement conditioned on the first.

    ``g12`` is cov(F1_i, F2_j).  A singular first-measurement covariance
    falls back to the pseudo-inverse (cutoff ``PINV_RCOND`` relative to
    the largest singular value) and is flagged rather than silently
    regularized.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g12 = np.asarray(g12, dtype=float)
    sv = np.linalg.svd(g1, compute_uv=False)
    pinv_used = bool(sv[-1] <= PINV_RCOND * sv[0])
    if pinv_used:
        gain = np.linalg.pinv(g1, rcond=PINV_RCOND) @ g12
    else:
        gain = np.linalg.solve(g1, g12)
    cond = g2 - g12.T @ gain
    return ConditionalCovariance(0.5 * (cond + cond.T), gain, pinv_used)


# ---------------------------------------------------------------------------
# selection and witness


def _quantile_bins(n_atoms: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Index masks for equal-population bins over the atom-number range.

    No shots, or one atom number only, give one bin of every shot.
    """
    levels = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.unique(np.quantile(n_atoms, levels) if len(n_atoms) else [])
    if len(edges) < 2:
        return [np.arange(len(n_atoms))]
    idx = np.searchsorted(edges[1:-1], n_atoms, side="right")
    return [np.flatnonzero(idx == k) for k in range(len(edges) - 1)]


def _check_cutoffs(cutoffs) -> None:
    """The selection rule's one cutoff test: each must satisfy 0 < c < inf."""
    if not all(0 < c < math.inf for c in cutoffs):
        raise ValueError("cutoff must be finite and positive")


def _centred_dist2(f1, bins) -> np.ndarray:
    """|f1 - <f1>|^2 per atom shot, <f1> the f1 mean of its bin in ``bins``.

    The selection at cutoff C keeps the shots with dist2 < C * n_atoms.
    """
    dist2 = np.empty(len(f1))
    with np.errstate(all="ignore"):
        for idx in bins:
            if len(idx):
                dist2[idx] = np.sum((f1[idx] - f1[idx].mean(axis=0)) ** 2, axis=1)
    return dist2


def select_shots(table: ShotTable, cutoff: float, *, n_bins: int = 10) -> ShotTable:
    """Shots whose first measurement lies near the ensemble mean.

    Keeps non-reference shots with |f1 - <f1>|^2 < cutoff * n_atoms and
    returns them as a table in input order.  <f1> is the mean of the
    shot's own atom-number bin, one of ``n_bins``; ``n_bins=1`` centres
    every shot on the global mean.
    """
    _check_cutoffs([cutoff])
    atoms = table.atoms
    dist2 = _centred_dist2(atoms.f1, _quantile_bins(atoms.n_atoms, n_bins))
    return atoms[dist2 < cutoff * atoms.n_atoms]


@dataclass(frozen=True)
class WitnessResult:
    """Squeezing witness with its entanglement bound.

    ``negative_variance`` warns that the read-out subtraction exceeded
    the measured variance; xi2 is reported as-is, never clamped.
    """

    xi2: float
    xi2_stderr: float
    entangled_atoms_lower_bound: float
    significance_sigmas: float
    negative_variance: bool = False


def squeezing_parameter(v_tilde: float, n_atoms: float, *, vectors=None) -> WitnessResult:
    """Spin-1 witness xi2 = v_tilde / n_atoms from a total variance.

    When the m measurement ``vectors`` behind v_tilde are supplied, the
    standard error is the delta-method std(|x - x_bar|^2, ddof=1) /
    sqrt(m) / n_atoms.  For m = 2 both |x - x_bar|^2 are equal,
    so it is 0, as it is without vectors.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    xc = None
    if vectors is not None:
        x = np.asarray(vectors, dtype=float)
        if x.ndim != 2 or x.shape[0] < 2:
            raise EstimationError("need at least 2 vectors for a standard error")
        with np.errstate(over="ignore", invalid="ignore"):
            xc = x - x.mean(axis=0)
    return _witness(v_tilde, n_atoms, xc)


def _witness(v_tilde: float, n_atoms: float, xc) -> WitnessResult:
    """``squeezing_parameter`` from the centred vectors ``xc`` (or None), n_atoms > 0."""
    xi2 = v_tilde / n_atoms
    stderr = 0.0
    if xc is not None:
        # Readouts of ~1e100 overflow the squares: the stderr is then
        # inf, which ``analyze`` reports as a numerical failure.
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sum(xc**2, axis=1)
            if len(sq) > 2:
                stderr = float(np.std(sq, ddof=1)) / math.sqrt(len(sq)) / n_atoms
    bound = max(0.0, (1.0 - xi2) * n_atoms)
    sig = (1.0 - xi2) / stderr if (xi2 < 1.0 and stderr > 0.0) else 0.0
    return WitnessResult(xi2, stderr, bound, sig, v_tilde < 0.0)


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class FitResult:
    """A fit's parameters with their standard errors.

    ``nfev`` and ``status`` are the iterative solver's residual-evaluation
    count and stop reason (``lsq.LsqResult``); None for a linear fit.
    """

    params: dict
    stderrs: dict
    residual_norm: float
    model_tag: str
    nfev: int | None = None
    status: str | None = None


def fit_noise_scaling(points, fix_linear: bool) -> FitResult:
    """Fit v(N) = v0 + a*N + c*N^2 by unweighted linear least squares.

    With ``fix_linear`` the linear coefficient is pinned to the thermal-
    state value a = 2 and only (v0, c) are estimated.  Parameter standard
    errors come from ``lsq.parameter_covariance`` on the column-scaled
    design; a design or data that are not finite raise ``FitError``.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FitError("points must be (n_atoms, v) pairs")
    n, v = pts[:, 0], pts[:, 1]
    n_distinct = len(np.unique(n))
    needed = 3 if fix_linear else 4
    if n_distinct < needed:
        raise FitError(
            f"need >= {needed} distinct n_atoms values for the "
            f"{{1, N, N^2}} basis, got {n_distinct}"
        )
    # Huge atom numbers overflow the design; the check below reports that.
    with np.errstate(all="ignore"):
        if fix_linear:
            names = ["v0", "c"]
            design = np.column_stack([np.ones_like(n), n**2])
            y = v - 2.0 * n
            tag = "noise_scaling_fixed_linear"
        else:
            names = ["v0", "a", "c"]
            design = np.column_stack([np.ones_like(n), n, n**2])
            y = v
            tag = "noise_scaling_free_linear"
        # Column scaling keeps the normal equations conditioned at N ~ 1e6.
        scale = np.linalg.norm(design, axis=0)
        ds = design / scale
    if np.any(scale == 0.0):
        raise FitError(f"degenerate column in basis {names}")
    if not (np.isfinite(ds).all() and np.isfinite(y).all()):
        raise FitError(f"the scaled basis {names} or the variances are not finite")
    beta_s, _, rank, _ = np.linalg.lstsq(ds, y, rcond=None)
    if rank < ds.shape[1]:
        raise FitError(f"rank-deficient basis {names} (rank {rank})")
    beta = beta_s / scale
    resid = y - ds @ beta_s
    cov_s = parameter_covariance(ds, resid)
    stderr = np.sqrt(np.diag(cov_s)) / scale
    params = dict(zip(names, (float(b) for b in beta)))
    errs = dict(zip(names, (float(s) for s in stderr)))
    if fix_linear:
        params = {"v0": params["v0"], "a": 2.0, "c": params["c"]}
        errs = {"v0": errs["v0"], "a": 0.0, "c": errs["c"]}
    return FitResult(params, errs, float(np.linalg.norm(resid)), tag)


def fit_snr_model(points, probe: ProbeConfig, sigma=None) -> FitResult:
    """Fit the efficiency b in v_cond_tilde(N) = 2N / (1 + b * zeta(N)).

    One-parameter ``lsq.levenberg_marquardt`` fit from b = 1 with the
    analytic Jacobian -2 N zeta / sigma / (1 + b zeta)^2, which also gives
    the stderr; zeta is the ideal SNR computed from the probe constants
    at each point.  ``ftol=1e-15`` lets the fit run on to the stationary
    point of the weighted cost instead of stopping at a 1e-8 relative
    cost reduction.  Non-finite input, a non-finite Jacobian, a zero
    J^T J (b unconstrained, as at zeta ~ 0) and a stop on ftol or xtol
    with b still at its start value raise ``FitError``.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise FitError("need at least 2 (n_atoms, v_cond_tilde) points")
    n, v = pts[:, 0], pts[:, 1]
    zeta = np.array([snr(probe, x) for x in n])
    sigma = np.ones_like(v) if sigma is None else np.asarray(sigma, dtype=float)
    with np.errstate(all="ignore"):
        weights = 1.0 / sigma
    if not all(np.isfinite(a).all() for a in (pts, zeta, sigma, weights)):
        raise FitError("SNR-model fit: the points, zeta, sigma or 1 / sigma are not finite")

    def model(theta):
        denom = 1.0 + theta[0] * zeta
        return (2.0 * n / denom - v) * weights, (-2.0 * n * zeta * weights / denom**2)[:, None]

    # Extreme but finite inputs overflow inside the fit; its checks below
    # and ``parameter_covariance`` judge the result, not the warnings.
    with np.errstate(all="ignore"):
        try:
            result = levenberg_marquardt(model, [1.0], xtol=1e-14, ftol=1e-15)
        except FitError as exc:
            raise FitError(f"SNR-model fit: {exc}") from None
    if not result.success:
        raise FitError(f"SNR-model fit did not converge in {result.nfev} residual evaluations")
    if not np.any(result.jac.T @ result.jac):
        raise FitError("SNR-model fit: b is unconstrained (the Jacobian is zero)")
    # A stop on ftol or xtol with no step accepted: the data do not move b.
    if result.status != "gtol" and result.x[0] == 1.0:
        raise FitError(f"SNR-model fit: b never left its start value 1 ({result.status})")
    cov = parameter_covariance(result.jac, result.fun)
    return FitResult(
        {"b": float(result.x[0])},
        {"b": math.sqrt(cov[0, 0])},
        float(np.linalg.norm(result.fun)),
        "snr_damping",
        result.nfev,
        result.status,
    )


# ---------------------------------------------------------------------------
# full-dataset analysis


@dataclass(frozen=True)
class CovarianceReport:
    """Per-bin covariance summary of the two vector measurements."""

    gamma12: np.ndarray
    gamma_cond: np.ndarray
    v1: float
    v2: float
    v_cond: float
    v1_tilde: float
    v2_tilde: float
    v_cond_tilde: float
    n_shots: int
    n_atoms_mean: float
    gamma1_singular: bool = False


@dataclass(frozen=True)
class BinAnalysis:
    report: CovarianceReport
    witness: WitnessResult
    selection: WitnessResult | None
    n_selected: int


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of ``analyze_dataset``; defaults mirror the experiment."""

    n_bins: int = 10
    min_bin_shots: int = 25
    cutoff: float = 0.75
    n_resamples: int = 1000  # ignored (stderrs are delta-method); configs that set it still load
    use_analytic_v0: bool = False

    def __post_init__(self):
        for name, low in (("n_bins", 1), ("min_bin_shots", 2), ("n_resamples", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        _check_cutoffs([self.cutoff])


@dataclass(frozen=True)
class AnalysisResult:
    v0: float
    n_reference: int
    bins: list
    fits: dict
    skipped_bins: list
    reference_v1_tilde: float | None


def resolve_v0(
    table: ShotTable, probe: ProbeConfig | None, options: AnalysisOptions
) -> tuple[float, int]:
    """Read-out total variance and the reference-shot count it rests on.

    The trace of the reference rows' second-round sample covariance, or
    the analytic 3*sigma^2 (with count 0) under ``use_analytic_v0``.
    """
    if options.use_analytic_v0:
        if probe is None:
            raise EstimationError("analytic v0 requires probe constants")
        return 3.0 * readout_noise_sigma(probe) ** 2, 0
    refs = table.references
    if len(refs) < 2:
        raise EstimationError("need at least 2 reference shots")
    return float(np.trace(sample_covariance(refs.f2))), len(refs)


def _selection_witness(f2, n_atoms, v0: float) -> WitnessResult:
    """Witness on the second measurement of selected shots.

    The trace and the stderr come from one centred copy of ``f2``.  The
    selection rule dist2 < C * n_atoms keeps no shot with n_atoms = 0, so
    the mean atom number is positive.
    """
    xc, cov = _centred_covariance(f2)
    return _witness(float(np.trace(cov)) - v0, float(np.mean(n_atoms)), xc)


@dataclass(frozen=True)
class _Selection:
    """What ``analyze_dataset`` and ``cutoff_scan`` share for one table.

    ``v0`` and its reference-shot count (``resolve_v0``), the atom rows'
    quantile bins and each atom row's centred distance |f1 - <f1>_bin|^2.
    """

    v0: float
    n_reference: int
    bins: list
    dist2: np.ndarray


# The selection state of each live table, for the last (probe, n_bins,
# use_analytic_v0) it was asked for: one entry per table, gone with it.
_SELECTIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _selection(table: ShotTable, probe: ProbeConfig | None, options: AnalysisOptions) -> _Selection:
    """The table's selection state, computed on its first use with these settings."""
    key = (probe, options.n_bins, options.use_analytic_v0)
    cached = _SELECTIONS.get(table)
    if cached is not None and cached[0] == key:
        return cached[1]
    v0, n_ref = resolve_v0(table, probe, options)
    atoms = table.atoms
    bins = _quantile_bins(atoms.n_atoms, options.n_bins)
    state = _Selection(v0, n_ref, bins, _centred_dist2(atoms.f1, bins))
    _SELECTIONS[table] = (key, state)
    return state


def _analyze_bin(v0: float, options: AnalysisOptions, b_idx: int, x, bn, n_mean, sel_mask):
    """One bin of the pipeline: covariance blocks and both witnesses.

    ``x`` holds the bin's (f1, f2) rows, shape (m, 6), ``n_mean`` its
    mean atom number; ``sel_mask`` marks its shots inside the selection
    cutoff.
    """
    xc, c6 = _centred_covariance(x)
    g1, g2, g12 = c6[:3, :3], c6[3:, 3:], c6[:3, 3:]
    cond = conditional_covariance(g1, g2, g12)
    v1 = float(np.trace(g1))
    v2 = float(np.trace(g2))
    vc = cond.trace
    if vc > v2 * (1.0 + 1e-9) + 1e-9:
        raise InvariantError(
            f"bin {b_idx}: conditional variance {vc!r} exceeds unconditional variance {v2!r}"
        )
    report = CovarianceReport(
        gamma12=g12,
        gamma_cond=cond.matrix,
        v1=v1,
        v2=v2,
        v_cond=vc,
        v1_tilde=v1 - v0,
        v2_tilde=v2 - v0,
        v_cond_tilde=vc - v0,
        n_shots=int(len(bn)),
        n_atoms_mean=n_mean,
        gamma1_singular=cond.pinv_used,
    )

    residuals = xc[:, 3:] - xc[:, :3] @ cond.gain
    witness = squeezing_parameter(report.v_cond_tilde, n_mean, vectors=residuals)

    n_selected = int(sel_mask.sum())
    selection = None
    if n_selected >= options.min_bin_shots:
        selection = _selection_witness(x[sel_mask, 3:], bn[sel_mask], v0)
    return BinAnalysis(report, witness, selection, n_selected)


def _try_fit(fit, *args, **kwargs) -> FitResult | FitError:
    """``fit(*args, **kwargs)``, or the ``FitError`` it raised."""
    try:
        return fit(*args, **kwargs)
    except FitError as exc:
        return exc


def analyze_dataset(
    table: ShotTable,
    probe: ProbeConfig | None = None,
    options: AnalysisOptions | None = None,
) -> AnalysisResult:
    """Bin shots by atom number and run both witness paths per bin.

    Each bin gets the covariance blocks of (f1, f2), the conditional
    (Schur-complement) covariance, read-out-subtracted total variances,
    the conditional-path witness, and the selection-path witness at the
    configured cutoff, centred on the bin's own f1 mean.  The three
    noise-scaling fits and the SNR-model fit run across bins when enough
    of them survive; each is tried on its own, and one that raises
    ``FitError`` is kept in ``fits`` as that error.
    """
    options = AnalysisOptions() if options is None else options
    selection = _selection(table, probe, options)
    v0 = selection.v0

    refs = table.references
    reference_v1_tilde = None
    if len(refs) >= 2:
        reference_v1_tilde = float(np.trace(sample_covariance(refs.f1))) - v0

    atoms = table.atoms
    bins: list[BinAnalysis] = []
    skipped: list[dict] = []
    if len(atoms):
        n_at = atoms.n_atoms
        selected = selection.dist2 < options.cutoff * n_at
        for b_idx, idx in enumerate(selection.bins):
            # A mean that overflows is inf, and the bin fails later with exit 4.
            with np.errstate(all="ignore"):
                n_mean = float(n_at[idx].mean()) if len(idx) else 0.0
            reason = None
            if len(idx) < options.min_bin_shots:
                reason = "too few shots"
            elif n_mean <= 0.0:
                reason = "zero atom number"
            if reason:
                skipped.append({"bin": b_idx, "n_shots": int(len(idx)), "reason": reason})
            else:
                x, bn = atoms.f[idx], n_at[idx]
                bins.append(_analyze_bin(v0, options, b_idx, x, bn, n_mean, selected[idx]))

    fits: dict[str, FitResult | FitError | None] = {
        "unconditional_1": None,
        "unconditional_2": None,
        "conditional": None,
        "snr_model": None,
    }
    if len(bins) >= 4:
        pts_n = [b.report.n_atoms_mean for b in bins]
        for key, attr, fix_linear in (
            ("unconditional_1", "v1", True),
            ("unconditional_2", "v2", True),
            ("conditional", "v_cond", False),
        ):
            v = [getattr(b.report, attr) for b in bins]
            fits[key] = _try_fit(fit_noise_scaling, zip(pts_n, v), fix_linear=fix_linear)
        if probe is not None:
            sig = [b.witness.xi2_stderr * b.report.n_atoms_mean for b in bins]
            if all(s > 0 for s in sig):
                v = [b.report.v_cond_tilde for b in bins]
                fits["snr_model"] = _try_fit(fit_snr_model, zip(pts_n, v), probe, sigma=sig)

    return AnalysisResult(v0, selection.n_reference, bins, fits, skipped, reference_v1_tilde)


def cutoff_scan(
    table: ShotTable,
    cutoffs,
    probe: ProbeConfig | None = None,
    options: AnalysisOptions | None = None,
) -> list[dict]:
    """Selection-path witness as a function of the cutoff parameter.

    Returns one row per cutoff with keys C, xi2, xi2_stderr, n_selected;
    the witness is evaluated on the second measurement of the selected
    shots, each centred on its atom-number bin's f1 mean and then pooled
    across bins.  Where fewer than 2 shots are selected, xi2 and
    xi2_stderr are nan; where exactly 2 are, the stderr is 0 (see
    ``squeezing_parameter``).
    """
    options = AnalysisOptions() if options is None else options
    selection = _selection(table, probe, options)
    cutoffs = [float(c) for c in cutoffs]
    _check_cutoffs(cutoffs)
    atoms = table.atoms
    f2, n = atoms.f2, atoms.n_atoms
    rows = []
    for c in cutoffs:
        mask = selection.dist2 < c * n
        n_selected = int(mask.sum())
        if n_selected < 2:
            rows.append({"C": c, "xi2": math.nan, "xi2_stderr": math.nan, "n_selected": n_selected})
            continue
        w = _selection_witness(f2[mask], n[mask], selection.v0)
        rows.append({"C": c, "xi2": w.xi2, "xi2_stderr": w.xi2_stderr, "n_selected": n_selected})
    return rows


# ---------------------------------------------------------------------------
# report emission


def _fit_to_dict(fit: FitResult | FitError | None):
    if fit is None:
        return None
    if isinstance(fit, FitError):
        return {"error": str(fit)}
    entry = {
        "params": fit.params,
        "stderrs": fit.stderrs,
        "residual_norm": fit.residual_norm,
        "model_tag": fit.model_tag,
    }
    if fit.nfev is not None:
        entry.update(nfev=fit.nfev, status=fit.status)
    return entry


def report_dict(result: AnalysisResult) -> dict:
    """JSON-ready analysis summary."""
    bins = []
    for b in result.bins:
        entry = {
            "n_atoms_mean": b.report.n_atoms_mean,
            "n_shots": b.report.n_shots,
            "v1_tilde": b.report.v1_tilde,
            "v2_tilde": b.report.v2_tilde,
            "v_cond_tilde": b.report.v_cond_tilde,
            "xi2": b.witness.xi2,
            "xi2_stderr": b.witness.xi2_stderr,
            "ent_bound": b.witness.entangled_atoms_lower_bound,
            "n_selected": b.n_selected,
            "xi2_selected": b.selection.xi2 if b.selection else None,
            "xi2_selected_stderr": b.selection.xi2_stderr if b.selection else None,
            "gamma1_singular": b.report.gamma1_singular,
        }
        bins.append(entry)
    return {
        "v0": result.v0,
        "n_reference": result.n_reference,
        "reference_v1_tilde": result.reference_v1_tilde,
        "bins": bins,
        "fits": {k: _fit_to_dict(v) for k, v in result.fits.items()},
        "skipped_bins": result.skipped_bins,
    }


def write_report(path, result: AnalysisResult) -> None:
    write_json(path, report_dict(result))


def write_cutoff_scan_csv(path, rows) -> None:
    """Cutoff-scan table: columns C, xi2, xi2_stderr, n_selected."""
    columns = ("C", "xi2", "xi2_stderr", "n_selected")
    write_csv(path, columns, ([r[c] for c in columns] for r in rows))


def write_noise_scaling_csv(path, result: AnalysisResult) -> None:
    """Noise-scaling table: columns n_atoms, v1_tilde, v2_tilde, v_cond_tilde."""
    reports = [b.report for b in result.bins]
    rows = [(r.n_atoms_mean, r.v1_tilde, r.v2_tilde, r.v_cond_tilde) for r in reports]
    write_csv(path, ("n_atoms", "v1_tilde", "v2_tilde", "v_cond_tilde"), rows)
