"""Statistical pipeline: covariances, conditioning, selection, witness, fits.

Works on one ``ShotTable`` (``sequence.py``): the atom rows' ``f1``,
``f2`` and ``n_atoms`` columns and the reference rows' readouts are
taken from it as arrays.  Total variances are traces of 3x3
sample covariances; the read-out contribution ``v0`` measured on
no-atom reference shots is subtracted before witness evaluation.  The
squeezing witness is

    xi2 = v_tilde / (f * n_atoms)

with xi2 < 1 detecting entanglement and (1 - xi2) * n_atoms lower-
bounding the number of entangled atoms.

Standard errors (ddof=1) come from one seeded bootstrap over shots,
``_bootstrap_covariances``, shared by both witness paths: per block of
resamples it draws ``rng.integers(0, m, size=(k, m))`` (the stream of
one ``size=m`` draw per resample), counts the draws with one
``bincount`` and forms each resample's unbiased covariance from
count-weighted moments of the rows centred on the sample mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EstimationError, FitError, InvariantError
from .probe import ProbeConfig, readout_noise_sigma, snr
from .sequence import ShotTable, reference_variance

PINV_RCOND = 1e-10
BOOTSTRAP_BLOCK = 16  # resamples per block: each (block, shots) array stays near 1 MB


# ---------------------------------------------------------------------------
# covariance estimation


def sample_covariance(vectors) -> np.ndarray:
    """Unbiased sample covariance of row vectors, explicitly symmetrized."""
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EstimationError("need at least 2 vectors for a sample covariance")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    return 0.5 * (cov + cov.T)


def _bootstrap_covariances(x: np.ndarray, n_resamples: int, rng) -> np.ndarray:
    """(n_resamples, d, d) bootstrap covariances of the rows of ``x``."""
    m, d = x.shape
    xc = x - x.mean(axis=0)
    outer = (xc[:, :, None] * xc[:, None, :]).reshape(m, d * d)
    covs = np.empty((n_resamples, d, d))
    for start in range(0, n_resamples, BOOTSTRAP_BLOCK):
        k = min(BOOTSTRAP_BLOCK, n_resamples - start)
        idx = rng.integers(0, m, size=(k, m)) + m * np.arange(k)[:, None]
        counts = np.bincount(idx.ravel(), minlength=k * m).reshape(k, m).astype(float)
        mean = counts @ xc / m
        second = (counts @ outer).reshape(k, d, d)
        covs[start : start + k] = (second - m * mean[:, :, None] * mean[:, None, :]) / (m - 1)
    return 0.5 * (covs + covs.swapaxes(1, 2))


@dataclass(frozen=True)
class ConditionalCovariance:
    """Schur complement g2 - g12^T g1^{-1} g12 and singularity flag, per block of a stack."""

    matrix: np.ndarray
    pinv_used: bool | np.ndarray

    @property
    def trace(self) -> float | np.ndarray:
        t = np.trace(self.matrix, axis1=-2, axis2=-1)
        return float(t) if t.ndim == 0 else t


def conditional_covariance(g1, g2, g12, rcond: float = PINV_RCOND) -> ConditionalCovariance:
    """Covariance of the second measurement conditioned on the first.

    ``g12`` is cov(F1_i, F2_j).  A singular first-measurement covariance
    falls back to the pseudo-inverse (cutoff ``rcond`` relative to the
    largest singular value) and is flagged rather than silently
    regularized.  The blocks may be 3x3 or stacks (..., 3, 3), each
    block conditioned on its own.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g12 = np.asarray(g12, dtype=float)
    sv = np.linalg.svd(g1, compute_uv=False)
    pinv_used = sv[..., -1] <= rcond * sv[..., 0]
    solved = np.empty(g12.shape)
    solved[~pinv_used] = np.linalg.solve(g1[~pinv_used], g12[~pinv_used])
    solved[pinv_used] = np.linalg.pinv(g1[pinv_used], rcond=rcond) @ g12[pinv_used]
    cond = g2 - np.swapaxes(g12, -1, -2) @ solved
    flag = bool(pinv_used) if pinv_used.ndim == 0 else pinv_used
    return ConditionalCovariance(0.5 * (cond + np.swapaxes(cond, -1, -2)), flag)


# ---------------------------------------------------------------------------
# selection and witness


def _quantile_bins(n_atoms: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Index masks for equal-population bins over the atom-number range."""
    edges = np.quantile(n_atoms, np.linspace(0.0, 1.0, n_bins + 1))
    edges = np.unique(edges)
    if len(edges) < 2:
        return [np.arange(len(n_atoms))]
    idx = np.searchsorted(edges[1:-1], n_atoms, side="right")
    return [np.flatnonzero(idx == k) for k in range(len(edges) - 1)]


def _centering_groups(n_atoms: np.ndarray, mean_mode: str, n_bins: int) -> list[np.ndarray]:
    """Shot groups whose own f1 mean centres the selection ball.

    The atom-number bins (``"per_bin"``) or all shots as one group
    (``"global"``).
    """
    if mean_mode not in ("per_bin", "global"):
        raise ValueError("mean_mode must be 'per_bin' or 'global'")
    if mean_mode == "per_bin" and len(n_atoms):
        return _quantile_bins(n_atoms, n_bins)
    return [np.arange(len(n_atoms))]


def _selection_masks(f1, n_atoms, cutoffs, groups) -> np.ndarray:
    """One row per cutoff C: |f1 - <f1>|^2 < C * n_atoms for each atom shot.

    Each shot is centred on the f1 mean of its group in ``groups``.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    if np.any(cutoffs <= 0):
        raise ValueError("cutoff must be positive")
    dist2 = np.empty(len(f1))
    for idx in groups:
        if len(idx):
            dist2[idx] = np.sum((f1[idx] - f1[idx].mean(axis=0)) ** 2, axis=1)
    return dist2 < cutoffs[:, None] * n_atoms


def select_shots(
    table: ShotTable, cutoff: float, *, mean_mode: str = "per_bin", n_bins: int = 10
) -> ShotTable:
    """Shots whose first measurement lies near the ensemble mean.

    Keeps non-reference shots with |f1 - <f1>|^2 < cutoff * n_atoms and
    returns them as a table in input order.  The centering mean is taken
    per atom-number bin by default, or globally with ``mean_mode="global"``.
    """
    atoms = table.atoms
    groups = _centering_groups(atoms.n_atoms, mean_mode, n_bins)
    return atoms[_selection_masks(atoms.f1, atoms.n_atoms, [cutoff], groups)[0]]


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


def _witness(xi2: float, stderr: float, n_atoms: float, v_tilde: float) -> WitnessResult:
    bound = max(0.0, (1.0 - xi2) * n_atoms)
    sig = (1.0 - xi2) / stderr if (xi2 < 1.0 and stderr > 0.0) else 0.0
    return WitnessResult(xi2, stderr, bound, sig, v_tilde < 0.0)


def squeezing_parameter(
    v_tilde: float,
    n_atoms: float,
    f: float = 1.0,
    *,
    vectors=None,
    v0: float = 0.0,
    n_resamples: int = 1000,
    rng: np.random.Generator | None = None,
) -> WitnessResult:
    """Witness xi2 = v_tilde / (f * n_atoms) from a total variance.

    When the measurement ``vectors`` behind v_tilde are supplied, the
    standard error is bootstrapped: each resample recomputes
    trace(sample covariance) - v0.  Without them the stderr is 0.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    xi2 = v_tilde / (f * n_atoms)
    stderr = 0.0
    if vectors is not None:
        x = np.asarray(vectors, dtype=float)
        if x.ndim != 2 or x.shape[0] < 2:
            raise EstimationError("need at least 2 vectors to bootstrap")
        rng = np.random.default_rng(0) if rng is None else rng
        covs = _bootstrap_covariances(x, n_resamples, rng)
        vals = (np.trace(covs, axis1=1, axis2=2) - v0) / (f * n_atoms)
        stderr = float(np.std(vals, ddof=1))
    return _witness(xi2, stderr, n_atoms, v_tilde)


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class FitResult:
    params: dict
    stderrs: dict
    residual_norm: float
    model_tag: str


def fit_noise_scaling(points, fix_linear: bool, sigma=None) -> FitResult:
    """Fit v(N) = v0 + a*N + c*N^2 by linear least squares.

    With ``fix_linear`` the linear coefficient is pinned to the thermal-
    state value a = 2 and only (v0, c) are estimated.  Optional per-point
    ``sigma`` weights the fit.  Parameter standard errors come from the
    residual covariance.
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
    if fix_linear:
        names = ["v0", "c"]
        design = np.column_stack([np.ones_like(n), n**2])
        y = v - 2.0 * n
        tag = "noise_scaling_fixed_linear"
    else:
        names = ["v0", "a", "c"]
        design = np.column_stack([np.ones_like(n), n, n**2])
        y = v.copy()
        tag = "noise_scaling_free_linear"
    if sigma is not None:
        w = 1.0 / np.asarray(sigma, dtype=float)
        design = design * w[:, None]
        y = y * w
    # Column scaling keeps the normal equations conditioned at N ~ 1e6.
    scale = np.linalg.norm(design, axis=0)
    if np.any(scale == 0.0):
        raise FitError(f"degenerate column in basis {names}")
    ds = design / scale
    beta_s, _, rank, _ = np.linalg.lstsq(ds, y, rcond=None)
    if rank < ds.shape[1]:
        raise FitError(f"rank-deficient basis {names} (rank {rank})")
    beta = beta_s / scale
    resid = y - ds @ beta_s
    dof = len(y) - len(beta)
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov_s = sigma2 * np.linalg.inv(ds.T @ ds)
    stderr = np.sqrt(np.diag(cov_s)) / scale
    params = dict(zip(names, (float(b) for b in beta)))
    errs = dict(zip(names, (float(s) for s in stderr)))
    if fix_linear:
        params = {"v0": params["v0"], "a": 2.0, "c": params["c"]}
        errs = {"v0": errs["v0"], "a": 0.0, "c": errs["c"]}
    return FitResult(params, errs, float(np.linalg.norm(resid)), tag)


def fit_snr_model(points, probe: ProbeConfig, sigma=None) -> FitResult:
    """Fit the efficiency b in v_cond_tilde(N) = 2N / (1 + b * zeta(N)).

    One-parameter damped (Levenberg-Marquardt) least squares with the
    analytic Jacobian -2 N zeta w / (1 + b zeta)^2, so the fit does not
    depend on finite-difference steps; zeta is the ideal SNR computed
    from the probe constants at each point.  ``ftol=1e-15`` lets the fit
    run on to the stationary point of the weighted cost instead of
    stopping at the default 1e-8 relative cost reduction.
    """
    import scipy.optimize  # not at module top: keeps `import singletsim` scipy-free

    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise FitError("need at least 2 (n_atoms, v_cond_tilde) points")
    n, v = pts[:, 0], pts[:, 1]
    zeta = np.array([snr(probe, x) for x in n])
    weights = np.ones_like(v) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)

    def residuals(theta):
        return (2.0 * n / (1.0 + theta[0] * zeta) - v) * weights

    def jacobian(theta):
        return (-2.0 * n * zeta * weights / (1.0 + theta[0] * zeta) ** 2)[:, None]

    result = scipy.optimize.least_squares(
        residuals, x0=[1.0], jac=jacobian, method="lm", xtol=1e-14, ftol=1e-15
    )
    if not result.success:
        raise FitError(f"SNR-model fit did not converge: {result.message}; {result}")
    jtj = result.jac.T @ result.jac
    dof = len(v) - 1
    sigma2 = 2.0 * result.cost / dof if dof > 0 else 0.0
    stderr = math.sqrt(sigma2 * np.linalg.inv(jtj)[0, 0]) if jtj[0, 0] > 0 else math.inf
    return FitResult(
        {"b": float(result.x[0])},
        {"b": float(stderr)},
        float(np.linalg.norm(result.fun)),
        "snr_damping",
    )


# ---------------------------------------------------------------------------
# full-dataset analysis


@dataclass(frozen=True)
class CovarianceReport:
    """Per-bin covariance summary of the two vector measurements."""

    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma12: np.ndarray
    gamma_cond: np.ndarray
    v1: float
    v2: float
    v_cond: float
    v0: float
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
    mean_mode: str = "per_bin"
    n_resamples: int = 1000
    seed: int = 0
    use_analytic_v0: bool = False
    f: float = 1.0

    def __post_init__(self):
        if self.mean_mode not in ("per_bin", "global"):
            raise ValueError("mean_mode must be 'per_bin' or 'global'")
        if self.n_bins < 1 or self.min_bin_shots < 2 or self.n_resamples < 2:
            raise ValueError("n_bins >= 1, min_bin_shots >= 2, n_resamples >= 2 required")
        if not (0 < self.cutoff < math.inf and 0 < self.f < math.inf):
            raise ValueError("cutoff and f must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class AnalysisResult:
    v0: float
    n_reference: int
    bins: list
    fits: dict
    skipped_bins: list
    reference_v1_tilde: float | None
    options: AnalysisOptions


def resolve_v0(
    table: ShotTable, probe: ProbeConfig | None, options: AnalysisOptions
) -> tuple[float, int]:
    """Read-out total variance: reference-shot estimate or analytic 3*sigma^2."""
    if options.use_analytic_v0:
        if probe is None:
            raise EstimationError("analytic v0 requires probe constants")
        return 3.0 * readout_noise_sigma(probe) ** 2, 0
    ref = reference_variance(table)
    return ref.v0, ref.n_reference


def _joint_blocks(c6: np.ndarray):
    """(g1, g2, g12) blocks of joint (f1, f2) covariances, shape (..., 6, 6)."""
    return c6[..., :3, :3], c6[..., 3:, 3:], c6[..., :3, 3:]


def _selection_witness(f2, n_atoms, v0: float, options: AnalysisOptions, rng) -> WitnessResult:
    """Witness on the second measurement of selected shots, bootstrapped."""
    v2 = float(np.trace(sample_covariance(f2)))
    return squeezing_parameter(
        v2 - v0,
        float(np.mean(n_atoms)),
        options.f,
        vectors=f2,
        v0=v0,
        n_resamples=options.n_resamples,
        rng=rng,
    )


def _analyze_bin(v0: float, options: AnalysisOptions, b_idx: int, x, bn, sel_mask):
    """One bin of the pipeline: covariance blocks and both witnesses.

    ``x`` holds the bin's (f1, f2) rows, shape (m, 6); ``sel_mask``
    marks its shots inside the selection cutoff.  Deterministic given
    (options.seed, bin index).
    """
    n_mean = float(bn.mean())
    g1, g2, g12 = _joint_blocks(sample_covariance(x))
    cond = conditional_covariance(g1, g2, g12)
    v1 = float(np.trace(g1))
    v2 = float(np.trace(g2))
    vc = cond.trace
    if vc > v2 * (1.0 + 1e-9) + 1e-9:
        raise InvariantError(
            f"bin {b_idx}: conditional variance {vc!r} exceeds unconditional variance {v2!r}"
        )
    report = CovarianceReport(
        gamma1=g1,
        gamma2=g2,
        gamma12=g12,
        gamma_cond=cond.matrix,
        v1=v1,
        v2=v2,
        v_cond=vc,
        v0=v0,
        v1_tilde=v1 - v0,
        v2_tilde=v2 - v0,
        v_cond_tilde=vc - v0,
        n_shots=int(len(bn)),
        n_atoms_mean=n_mean,
        gamma1_singular=cond.pinv_used,
    )

    rng = np.random.default_rng(np.random.SeedSequence(options.seed, spawn_key=(b_idx,)))
    boot = _bootstrap_covariances(x, options.n_resamples, rng)
    vals = (conditional_covariance(*_joint_blocks(boot)).trace - v0) / (options.f * n_mean)
    xi2 = report.v_cond_tilde / (options.f * n_mean)
    witness = _witness(xi2, float(np.std(vals, ddof=1)), n_mean, report.v_cond_tilde)

    n_selected = int(sel_mask.sum())
    selection = None
    if n_selected >= options.min_bin_shots:
        selection = _selection_witness(x[sel_mask, 3:], bn[sel_mask], v0, options, rng)
    return BinAnalysis(report, witness, selection, n_selected)


def analyze_dataset(
    table: ShotTable,
    probe: ProbeConfig | None = None,
    options: AnalysisOptions | None = None,
) -> AnalysisResult:
    """Bin shots by atom number and run both witness paths per bin.

    Each bin gets the covariance blocks of (f1, f2), the conditional
    (Schur-complement) covariance, read-out-subtracted total variances,
    the conditional-path witness, and the selection-path witness at the
    configured cutoff (centred as ``options.mean_mode`` says).
    Noise-scaling fits and the SNR-model fit run across bins when
    enough of them survive.
    """
    options = AnalysisOptions() if options is None else options
    v0, n_ref = resolve_v0(table, probe, options)

    refs = table.references
    reference_v1_tilde = None
    if len(refs) >= 2:
        reference_v1_tilde = float(np.trace(sample_covariance(refs.f1))) - v0

    atoms = table.atoms
    bins: list[BinAnalysis] = []
    skipped: list[dict] = []
    if len(atoms):
        n_at = atoms.n_atoms
        bin_rows = _quantile_bins(n_at, options.n_bins)
        groups = bin_rows if options.mean_mode == "per_bin" else [np.arange(len(n_at))]
        selected = _selection_masks(atoms.f1, n_at, [options.cutoff], groups)[0]
        for b_idx, idx in enumerate(bin_rows):
            reason = None
            if len(idx) < options.min_bin_shots:
                reason = "too few shots"
            elif float(n_at[idx].mean()) <= 0.0:
                reason = "zero atom number"
            if reason:
                skipped.append({"bin": b_idx, "n_shots": int(len(idx)), "reason": reason})
            else:
                bins.append(
                    _analyze_bin(v0, options, b_idx, atoms.f[idx], n_at[idx], selected[idx])
                )

    fits: dict[str, FitResult | None] = {
        "unconditional_1": None,
        "unconditional_2": None,
        "conditional": None,
        "snr_model": None,
    }
    if len(bins) >= 4:
        pts_n = [b.report.n_atoms_mean for b in bins]
        try:
            fits["unconditional_1"] = fit_noise_scaling(
                zip(pts_n, [b.report.v1 for b in bins]), fix_linear=True
            )
            fits["unconditional_2"] = fit_noise_scaling(
                zip(pts_n, [b.report.v2 for b in bins]), fix_linear=True
            )
            fits["conditional"] = fit_noise_scaling(
                zip(pts_n, [b.report.v_cond for b in bins]), fix_linear=False
            )
        except FitError:
            pass
        if probe is not None:
            sig = [
                b.witness.xi2_stderr * options.f * b.report.n_atoms_mean for b in bins
            ]
            if all(s > 0 for s in sig):
                fits["snr_model"] = fit_snr_model(
                    zip(pts_n, [b.report.v_cond_tilde for b in bins]), probe, sigma=sig
                )

    return AnalysisResult(v0, n_ref, bins, fits, skipped, reference_v1_tilde, options)


def cutoff_scan(
    table: ShotTable,
    cutoffs,
    probe: ProbeConfig | None = None,
    options: AnalysisOptions | None = None,
) -> list[dict]:
    """Selection-path witness as a function of the cutoff parameter.

    Returns one row per cutoff with keys C, xi2, xi2_stderr, n_selected;
    the witness is evaluated on the second measurement of the selected
    shots, pooled across atom-number bins.
    """
    options = AnalysisOptions() if options is None else options
    v0, _ = resolve_v0(table, probe, options)
    cutoffs = list(cutoffs)
    rng = np.random.default_rng(np.random.SeedSequence(options.seed, spawn_key=(0xC,)))
    atoms = table.atoms
    f2, n = atoms.f2, atoms.n_atoms
    groups = _centering_groups(n, options.mean_mode, options.n_bins)
    masks = _selection_masks(atoms.f1, n, cutoffs, groups)
    rows = []
    for c, mask in zip(map(float, cutoffs), masks):
        n_selected = int(mask.sum())
        if n_selected < 2:
            rows.append({"C": c, "xi2": math.nan, "xi2_stderr": math.nan, "n_selected": 0})
            continue
        w = _selection_witness(f2[mask], n[mask], v0, options, rng)
        rows.append({"C": c, "xi2": w.xi2, "xi2_stderr": w.xi2_stderr, "n_selected": n_selected})
    return rows


# ---------------------------------------------------------------------------
# report emission


def _fit_to_dict(fit: FitResult | None):
    if fit is None:
        return None
    return {
        "params": fit.params,
        "stderrs": fit.stderrs,
        "residual_norm": fit.residual_norm,
        "model_tag": fit.model_tag,
    }


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
    Path(path).write_text(json.dumps(report_dict(result), indent=2, sort_keys=True) + "\n")


def write_cutoff_scan_csv(path, rows) -> None:
    """Cutoff-scan table: columns C, xi2, xi2_stderr, n_selected."""
    lines = ["C,xi2,xi2_stderr,n_selected"]
    for r in rows:
        lines.append(
            f"{r['C']!r},{r['xi2']!r},{r['xi2_stderr']!r},{r['n_selected']}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_noise_scaling_csv(path, result: AnalysisResult) -> None:
    """Noise-scaling table: columns n_atoms, v1_tilde, v2_tilde, v_cond_tilde."""
    lines = ["n_atoms,v1_tilde,v2_tilde,v_cond_tilde"]
    for b in result.bins:
        r = b.report
        lines.append(f"{r.n_atoms_mean!r},{r.v1_tilde!r},{r.v2_tilde!r},{r.v_cond_tilde!r}")
    Path(path).write_text("\n".join(lines) + "\n")
