"""Spectral substrate: periodic grid, interface profiles, physical parameters.

Everything lives on the circle of circumference 2*pi, discretized by N
equispaced collocation nodes (N even).  Grid functions are identified with
their trigonometric interpolant, so differentiation, shifting and
off-node evaluation are all exact for band-limited data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class PeriodicGrid:
    """Uniform collocation of [0, 2*pi) plus its half-spacing companion grid."""

    def __init__(self, n_points: int):
        n_points = int(n_points)
        if n_points < 8 or n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {n_points}")
        self.n_points = n_points
        self.spacing = TWO_PI / n_points
        self.nodes = self.spacing * np.arange(n_points)
        self.shifted_nodes = self.nodes + 0.5 * self.spacing
        # signed integer wavenumbers in FFT order (index n/2 maps to -n/2)
        self.wavenumbers = np.fft.fftfreq(n_points, d=1.0 / n_points)

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and other.n_points == self.n_points

    def __hash__(self):
        return hash(("PeriodicGrid", self.n_points))

    def __repr__(self):
        return f"PeriodicGrid(n_points={self.n_points})"


class InterfaceProfile:
    """Real nodal samples of a 2*pi-periodic function on a PeriodicGrid.

    Treated as an immutable snapshot; Fourier coefficients and the spectral
    derivative are computed lazily and cached.
    """

    def __init__(self, grid: PeriodicGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid size {grid.n_points}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.flags.writeable = False

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "InterfaceProfile":
        return cls(grid, np.zeros(grid.n_points))

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Fourier coefficients c_k = (1/N) sum_i values_i exp(-i k xi_i), FFT order."""
        return np.fft.fft(self.values) / self.grid.n_points

    @cached_property
    def deriv_values(self) -> np.ndarray:
        return spectral_derivative(self)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def eval_at(self, s):
        """Evaluate the trigonometric interpolant at arbitrary points."""
        s = np.asarray(s, dtype=float)
        k = self.grid.wavenumbers
        c = self.coeffs
        # prune negligible modes: the phase matrix spans only the active ones
        keep = np.abs(c) > 1e-15 * (np.max(np.abs(c)) + 1e-300)
        phase = np.exp(1j * np.outer(s.ravel(), k[keep]))
        out = (phase @ c[keep]).real
        return out.reshape(s.shape)

    def __repr__(self):
        return f"InterfaceProfile(N={self.grid.n_points}, mean={self.mean:.3e})"


def to_spectral(profile: InterfaceProfile) -> np.ndarray:
    """Discrete Fourier coefficients of the nodal values (normalized by 1/N)."""
    return profile.coeffs.copy()


def from_spectral(grid: PeriodicGrid, coeffs) -> InterfaceProfile:
    values = np.fft.ifft(np.asarray(coeffs) * grid.n_points).real
    return InterfaceProfile(grid, values)


def spectral_derivative(profile: InterfaceProfile, order: int = 1) -> np.ndarray:
    """Nodal samples of the derivative of the trigonometric interpolant.

    The Nyquist mode is zeroed for odd derivative orders so the result of a
    real signal stays real.
    """
    grid = profile.grid
    k = grid.wavenumbers.copy()
    if order % 2 == 1:
        k[grid.n_points // 2] = 0.0
    dcoeffs = (1j * k) ** order * np.fft.fft(profile.values)
    return np.fft.ifft(dcoeffs).real


@lru_cache(maxsize=32)
def _half_shift(n: int) -> np.ndarray:
    """FFT multiplier that moves the interpolant by half a grid spacing."""
    grid = PeriodicGrid(n)
    shift = np.exp(1j * grid.wavenumbers * (grid.spacing / 2))
    shift.flags.writeable = False
    return shift


def _half_grid(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Samples of the interpolant at the half grid (m + 1/2) h."""
    return np.fft.ifft(np.fft.fft(values) * _half_shift(grid.n_points)).real


def half_shift_samples(profile: InterfaceProfile) -> np.ndarray:
    """Values of the interpolant on the half-spacing companion grid."""
    return _half_grid(profile.grid, profile.values)


@dataclass(frozen=True)
class InterfaceGeometry:
    """Pointwise surface quantities of the graph x2 = f(x1)."""

    omega: np.ndarray      # arclength factor (1 + f'^2)^(1/2)
    normal: np.ndarray     # unit normal (-f', 1)/omega, shape (2, N)
    tangent: np.ndarray    # unit tangent (1, f')/omega, shape (2, N)
    curvature: np.ndarray  # f'' / omega^3


def geometry_quantities(profile: InterfaceProfile) -> InterfaceGeometry:
    fp = profile.deriv_values
    fpp = spectral_derivative(profile, order=2)
    omega = np.sqrt(1.0 + fp * fp)
    normal = np.vstack([-fp, np.ones_like(fp)]) / omega
    tangent = np.vstack([np.ones_like(fp), fp]) / omega
    return InterfaceGeometry(omega, normal, tangent, fpp / omega**3)


@dataclass(frozen=True)
class PhysParams:
    """Fluid parameters; the buoyancy coefficient is always derived from them."""

    mu: float
    sigma: float
    g: float = 0.0
    rho_plus: float = 0.0
    rho_minus: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.mu, self.sigma, self.g, self.rho_plus, self.rho_minus])):
            raise ValueError("mu, sigma, g, rho_plus and rho_minus must be finite")
        if not self.mu > 0:
            raise ValueError("viscosity mu must be positive")
        if not self.sigma > 0:
            raise ValueError("surface tension sigma must be positive")
        if self.g < 0:
            raise ValueError("gravity g must be nonnegative")
        if self.rho_plus < 0 or self.rho_minus < 0:
            raise ValueError("densities must be nonnegative")

    @classmethod
    def from_theta(cls, mu: float, sigma: float, theta: float) -> "PhysParams":
        """Convenience constructor realizing a given buoyancy coefficient."""
        if theta >= 0:
            return cls(mu=mu, sigma=sigma, g=1.0, rho_minus=theta, rho_plus=0.0)
        return cls(mu=mu, sigma=sigma, g=1.0, rho_minus=0.0, rho_plus=-theta)

    @property
    def theta(self) -> float:
        return self.g * (self.rho_minus - self.rho_plus)

    @property
    def regime(self) -> str:
        s = self.sigma + self.theta
        if s > 0:
            return "stable"
        if s < 0:
            return "unstable"
        return "neutral"

    @property
    def decay_constant(self):
        """Sharp linear decay rate of flat-state perturbations; None if not stable."""
        th = self.theta
        if self.sigma + th <= 0:
            return None
        if self.sigma >= th:
            return (self.sigma + th) / (4.0 * self.mu)
        return np.sqrt(self.sigma * th) / (2.0 * self.mu)
