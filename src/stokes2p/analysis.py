"""Linearization diagnostics: flat-state spectrum, finite-difference Jacobian
probes, and exponential rate fits of simulated trajectories."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import InterfaceProfile, PeriodicGrid, PhysParams
from .evolution import eval_Psi

PROBE_EPS = 1e-6   # central-difference offset balancing truncation vs roundoff


@dataclass(frozen=True)
class ModeResult:
    k: int
    lam_analytic: float
    lam_numeric: float | None = None

    @property
    def rel_error(self) -> float | None:
        if self.lam_numeric is None:
            return None
        return abs(self.lam_numeric - self.lam_analytic) / abs(self.lam_analytic)


class DiagonalizationError(RuntimeError):
    """Raised when a flat-state probe leaks into foreign modes beyond the
    requested tolerance (the linearization should be a pure multiplier)."""


@dataclass(frozen=True)
class SpectrumReport:
    modes: tuple[ModeResult, ...]
    regime: str
    theta0: float | None
    leakage: float | None = None

    @property
    def worst_rel_error(self) -> float | None:
        errs = [m.rel_error for m in self.modes if m.rel_error is not None]
        return max(errs) if errs else None


def analytic_eigenvalue(params: PhysParams, k: int) -> float:
    return -(params.sigma * k * k + params.theta) / (4.0 * params.mu * abs(k))


def analytic_spectrum(params: PhysParams, k_max: int) -> SpectrumReport:
    """Eigenvalues of the flat-state linearization on mean-free perturbations,
    one entry per |k| (cosine and sine pairs share it)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    modes = tuple(ModeResult(k, analytic_eigenvalue(params, k)) for k in range(1, k_max + 1))
    return SpectrumReport(modes, params.regime, params.decay_constant)


def _mode_coefficients(values: np.ndarray) -> np.ndarray:
    """Projection amplitudes onto {1, cos k, sin k}: row k holds (a_k, b_k)."""
    n = len(values)
    c = np.fft.fft(values) / n
    amps = np.zeros((n // 2 + 1, 2))
    amps[0, 0] = c[0].real
    amps[1:, 0] = 2.0 * c[1:n // 2 + 1].real
    amps[1:, 1] = -2.0 * c[1:n // 2 + 1].imag
    return amps


def probe_workers_from_env() -> int:
    """Probe thread count from ``STOKES_NUM_THREADS``; 1 when it is unset or
    empty.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get("STOKES_NUM_THREADS")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("STOKES_NUM_THREADS must be a positive integer")
    return workers


def _probe_mode(grid, params, k, eps, probe):
    phase = np.cos if probe == "cos" else np.sin
    return jacobian_action_at_zero(params, grid, phase(k * grid.nodes), eps=eps)


def numeric_jacobian_at_zero(params: PhysParams, grid: PeriodicGrid, k_max: int, *,
                             eps: float = PROBE_EPS, probe: str = "cos",
                             workers: int | None = None,
                             leakage_tol: float | None = None) -> SpectrumReport:
    """Probe the flat-state Jacobian by central differences, mode by mode.

    The response to a single cosine must be a multiple of that cosine; the
    largest amplitude appearing in any other mode (or in the mean) is
    reported as leakage.  Probes are independent per mode and may run on a
    small thread pool (``workers``, default from ``STOKES_NUM_THREADS``);
    each concurrent probe holds its own working set of layer tables.
    """
    if k_max > grid.n_points // 4:
        raise ValueError("k_max must be at most N/4 to stay well resolved")
    if workers is None:
        workers = probe_workers_from_env()

    ks = list(range(1, k_max + 1))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            responses = list(pool.map(
                lambda k: _probe_mode(grid, params, k, eps, probe), ks))
    else:
        responses = [_probe_mode(grid, params, k, eps, probe) for k in ks]

    modes = []
    leakage = 0.0
    col = 0 if probe == "cos" else 1
    for k, resp in zip(ks, responses):
        amps = _mode_coefficients(resp)
        lam = float(amps[k, col])
        own = np.zeros_like(amps)
        own[k, col] = lam
        leakage = max(leakage, float(np.max(np.abs(amps - own))))
        modes.append(ModeResult(k, analytic_eigenvalue(params, k), lam))
    if leakage_tol is not None and leakage > leakage_tol:
        raise DiagonalizationError(
            f"probe response leaked {leakage:.3e} into foreign modes "
            f"(tolerance {leakage_tol:.3e}); the flat-state linearization "
            "should act mode by mode")
    return SpectrumReport(tuple(modes), params.regime, params.decay_constant, leakage)


def jacobian_action_at_zero(params: PhysParams, grid: PeriodicGrid, direction, *,
                            eps: float = PROBE_EPS) -> np.ndarray:
    """Central-difference action of the flat-state Jacobian on a direction."""
    h = np.asarray(direction.values if isinstance(direction, InterfaceProfile) else direction,
                   dtype=float)
    plus = eval_Psi(InterfaceProfile(grid, eps * h), params)
    minus = eval_Psi(InterfaceProfile(grid, -eps * h), params)
    return (plus - minus) / (2.0 * eps)


# ---------------------------------------------------------------------------
# rate fits on snapshot trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    rate: float | None       # decay rate if positive, growth if negative sign flipped by caller
    residual: float | None
    n_used: int
    reliable: bool
    note: str = ""


def _amplitudes(snapshots, kind):
    times = np.array([s["t"] for s in snapshots])
    if kind == "l2":
        amps = np.array([s["l2"] for s in snapshots])
    else:
        _, k = kind
        amps = np.array([
            np.abs(np.fft.fft(np.asarray(s["values"])))[k] * 2.0 / len(s["values"])
            for s in snapshots
        ])
    return times, amps


def decay_rate_fit(snapshots, *, kind="l2",
                   amp_window=(1e-10, 1e-4), tail_fraction=0.5) -> RateFit:
    """Least-squares slope of log amplitude over the tail of a trajectory.

    Keeps only snapshots whose amplitude lies inside ``amp_window`` (linear
    regime, above roundoff), then the last ``tail_fraction`` of those.
    Returns the decay rate (positive for decay) and the fit residual; a
    non-monotone or underpopulated tail is flagged unreliable.
    """
    if len(snapshots) < 10:
        return RateFit(None, None, 0, False, "need at least 10 snapshots")
    times, amps = _amplitudes(snapshots, kind)
    ok = (amps >= amp_window[0]) & (amps <= amp_window[1])
    times, amps = times[ok], amps[ok]
    if len(times) < 5:
        return RateFit(None, None, len(times), False, "too few snapshots in amplitude window")
    start = int(len(times) * (1.0 - tail_fraction))
    times, amps = times[start:], amps[start:]
    if np.any(amps <= 0.0):
        return RateFit(None, None, len(times), False, "vanishing amplitude in fit window")
    log_amps = np.log(amps)
    slope, intercept = np.polyfit(times, log_amps, 1)
    resid = float(np.sqrt(np.mean((log_amps - (slope * times + intercept)) ** 2)))
    diffs = np.diff(log_amps)
    monotone = np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
    return RateFit(-float(slope), resid, len(times), bool(monotone),
                   "" if monotone else "non-monotone tail")
