"""Linearization diagnostics: flat-state spectrum, finite-difference Jacobian
probes, and exponential rate fits of simulated trajectories."""

from __future__ import annotations

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


def numeric_jacobian_at_zero(params: PhysParams, grid: PeriodicGrid, k_max: int, *,
                             probe: str = "cos",
                             leakage_tol: float | None = None) -> SpectrumReport:
    """Probe the flat-state Jacobian by central differences, mode by mode.

    The response to a single cosine (or sine, with ``probe="sin"``) must be
    a multiple of that mode; the largest amplitude appearing in any other
    mode (or in the mean) is reported as leakage.  The probes run one after
    another, k = 1..k_max.
    """
    if k_max > grid.n_points // 4:
        raise ValueError("k_max must be at most N/4 to stay well resolved")

    phase, col = (np.cos, 0) if probe == "cos" else (np.sin, 1)
    modes = []
    leakage = 0.0
    for k in range(1, k_max + 1):
        amps = _mode_coefficients(jacobian_action_at_zero(params, grid, phase(k * grid.nodes)))
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


def jacobian_action_at_zero(params: PhysParams, grid: PeriodicGrid, direction) -> np.ndarray:
    """Central-difference action of the flat-state Jacobian on a direction,
    offset ``PROBE_EPS``."""
    h = np.asarray(direction.values if isinstance(direction, InterfaceProfile) else direction,
                   dtype=float)
    plus = eval_Psi(InterfaceProfile(grid, PROBE_EPS * h), params)
    minus = eval_Psi(InterfaceProfile(grid, -PROBE_EPS * h), params)
    return (plus - minus) / (2.0 * PROBE_EPS)


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
                   amp_window=(1e-10, 1e-4)) -> RateFit:
    """Least-squares slope of log amplitude over the tail of a trajectory.

    Keeps only snapshots whose amplitude lies inside ``amp_window`` (linear
    regime, above roundoff), then the last half of those.  Returns the decay
    rate (positive for decay) and the fit residual; a non-monotone or
    underpopulated tail is flagged unreliable.
    """
    if len(snapshots) < 10:
        return RateFit(None, None, 0, False, "need at least 10 snapshots")
    times, amps = _amplitudes(snapshots, kind)
    ok = (amps >= amp_window[0]) & (amps <= amp_window[1])
    times, amps = times[ok], amps[ok]
    if len(times) < 5:
        return RateFit(None, None, len(times), False, "too few snapshots in amplitude window")
    times, amps = times[len(times) // 2:], amps[len(times) // 2:]
    if np.any(amps <= 0.0):
        return RateFit(None, None, len(times), False, "vanishing amplitude in fit window")
    log_amps = np.log(amps)
    slope, intercept = np.polyfit(times, log_amps, 1)
    resid = float(np.sqrt(np.mean((log_amps - (slope * times + intercept)) ** 2)))
    diffs = np.diff(log_amps)
    monotone = np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
    return RateFit(-float(slope), resid, len(times), bool(monotone),
                   "" if monotone else "non-monotone tail")
