"""Spectral substrate: periodic grid, interface profiles, physical parameters.

Everything lives on the circle of circumference 2*pi, discretized by N
equispaced collocation nodes (N even).  Grid functions are identified with
their trigonometric interpolant, so differentiation, shifting and
off-node evaluation are all exact for band-limited data.  A profile takes
its FFT once, for its coefficients, derivatives and half-grid samples;
``_samples`` takes a stack of grid functions to the half grid or to
uniform targets by FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
# entries per block of off-grid work: the phase matrix (targets x active modes)
# of eval_at, the layer tables (points x nodes) of fields._point_blocks, 56
# bytes an entry there, and the row blocks of the on-interface tables of
# operators._sweep, 40 bytes an entry (one block for N <= 180, 64 rows at
# N = 512).  For eval_at, 2^14 took a verify bench round 10k page faults,
# against 0.2k here (glibc's mmap threshold stayed below the 256 KiB tables
# at N = 128); 2^16 added 0.5 MB to its peak RSS.  For the fields bench,
# 2^16 raised the peak RSS from 43.3-43.5 to 45.1-45.5 MB.  The row blocks
# took the spectrum bench's peak RSS from 50.0-50.7 to 41.3-41.7 MB
_EVAL_BLOCK = 1 << 15


class PeriodicGrid:
    """Uniform collocation of [0, 2*pi) plus its half-spacing companion grid."""

    def __init__(self, n_points: int):
        if not float(n_points).is_integer():
            raise ValueError(f"n_points must be an integer, got {n_points}")
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

    Treated as an immutable snapshot; Fourier coefficients, the spectral
    derivative and uniform samples are computed lazily and cached.
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
        self._uniform = {}

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "InterfaceProfile":
        return cls(grid, np.zeros(grid.n_points))

    @cached_property
    def fft(self) -> np.ndarray:
        """The unnormalised FFT sum_i values_i exp(-i k xi_i), FFT order, read-only:
        the one forward FFT of the profile, which ``coeffs``, the spectral
        derivatives and the half-grid samples all read."""
        c = np.fft.fft(self.values)
        c.flags.writeable = False
        return c

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Fourier coefficients c_k = (1/N) sum_i values_i exp(-i k xi_i), FFT order."""
        return self.fft / self.grid.n_points

    @cached_property
    def deriv_values(self) -> np.ndarray:
        return spectral_derivative(self)

    def uniform_samples(self, m: int) -> np.ndarray:
        """The interpolant at the m >= N targets 2 pi j / m, kept read-only per m."""
        if m not in self._uniform:
            if m < self.grid.n_points:
                raise ValueError(f"need m >= N = {self.grid.n_points} targets, got {m}")
            self._uniform[m] = _samples(self.values, m)[0]
            self._uniform[m].flags.writeable = False
        return self._uniform[m]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def eval_at(self, s):
        """Evaluate the trigonometric interpolant at arbitrary points, in
        near-equal blocks of at least two targets whose phase matrix (targets
        x active modes) holds at most ``_EVAL_BLOCK`` entries where two rows
        fit.  No value depends on the split (a one-row product takes numpy's
        dot path, not gemv, and rounds differently); all blocks share one
        phase buffer, as fresh ones would fault their pages in anew."""
        s = np.asarray(s, dtype=float)
        c = self.coeffs
        # prune negligible modes: the phase matrix spans only the active ones
        keep = np.abs(c) > 1e-15 * (np.max(np.abs(c)) + 1e-300)
        k, c = self.grid.wavenumbers[keep], c[keep]
        rows = max(2, _EVAL_BLOCK // max(len(k), 1))
        n = max(1, min(-(-s.size // rows), s.size // 2))     # blocks of two rows or more
        out, phase = np.empty(s.shape), np.empty((-(-s.size // n), len(k)), complex)
        for b, o in zip(np.array_split(s.ravel(), n), np.array_split(out.reshape(-1), n)):
            p = np.multiply(1j, np.multiply.outer(b, k), out=phase[:len(b)])
            o[...] = (np.exp(p, out=p) @ c).real
        return out

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
    dcoeffs = (1j * k) ** order * profile.fft
    return np.fft.ifft(dcoeffs).real


@lru_cache(maxsize=32)
def _half_shift(n: int) -> np.ndarray:
    """FFT multiplier that moves the interpolant by half a grid spacing."""
    grid = PeriodicGrid(n)
    shift = np.exp(1j * grid.wavenumbers * (grid.spacing / 2))
    shift.flags.writeable = False
    return shift


def _samples(values, m: int | None = None):
    """Samples of the rows of a (k, N) stack (or an N-vector) at the half grid
    if m is None, else at the m >= N targets 2 pi j / m, each row with the
    bits it has alone, and the rows' FFTs (None for m = N: the values
    themselves).  The Nyquist coefficient is split between modes +N/2 and
    -N/2 (N is even), as ``InterfaceProfile.eval_at`` reads it."""
    n = values.shape[-1]
    if m == n:
        return values, None
    coeffs = np.fft.fft(values)
    if m is None:
        return np.fft.ifft(coeffs * _half_shift(n)).real, coeffs
    c, h = coeffs / n, n // 2
    padded = np.zeros(values.shape[:-1] + (m,), dtype=complex)
    padded[..., :h], padded[..., m - h + 1:] = c[..., :h], c[..., h + 1:]
    padded[..., h] = padded[..., m - h] = c[..., h] / 2.0
    return np.fft.ifft(padded, norm="forward").real, coeffs


def half_shift_samples(profile: InterfaceProfile) -> np.ndarray:
    """Values of the interpolant on the half-spacing companion grid: those of
    ``_samples``, from the profile's own FFT."""
    return np.fft.ifft(profile.fft * _half_shift(profile.grid.n_points)).real


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
