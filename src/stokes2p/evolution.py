"""Interface evolution: forcing, far-field constants, the nonlocal velocity
operator driving df/dt, and time integration.

The interface graph x2 = f(x1) moves with the vertical velocity of the flow
it induces.  Its layer velocity is coded once directly (``_direct_velocity``)
and once by parts (``_parts_velocity``); ``eval_Psi``, the interface traces
and the bulk flow of ``fields`` all read these two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    spectral_derivative,
)
from .operators import _swept

LN4 = np.log(4.0)


# ---------------------------------------------------------------------------
# pointwise slope functions and the interface forcing
# ---------------------------------------------------------------------------

def phi_of(f: InterfaceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Slope functions (1/omega - 1, f'/omega); bounded in (-1, 0] x (-1, 1)."""
    fp = f.deriv_values
    omega = np.sqrt(1.0 + fp * fp)
    return 1.0 / omega - 1.0, fp / omega


def dphi_of(f0: InterfaceProfile, h: InterfaceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivative of phi_of at f0: (a1 h', a2 h') with
    a1 = -f0'/omega^3 and a2 = 1/omega^3."""
    fp = f0.deriv_values
    om3 = (1.0 + fp * fp) ** 1.5
    hp = h.deriv_values
    return -fp / om3 * hp, hp / om3


@dataclass(frozen=True)
class ForcingG:
    """Components of the interface forcing; g1 is an exact derivative and
    therefore mean-free."""

    g1: np.ndarray
    g2: np.ndarray


def forcing_G(f: InterfaceProfile, params: PhysParams) -> ForcingG:
    theta, sigma = params.theta, params.sigma
    phi1, phi2 = phi_of(f)
    grid = f.grid
    # g1 = -theta*(f^2/2)' - sigma*phi1' computed as one spectral derivative,
    # so its discrete mean vanishes identically
    g1 = spectral_derivative(
        InterfaceProfile(grid, -theta * f.values**2 / 2.0 - sigma * phi1)
    )
    g2 = theta * f.values - sigma * spectral_derivative(InterfaceProfile(grid, phi2))
    return ForcingG(g1, g2)


@dataclass(frozen=True)
class FarFieldConstants:
    """Horizontal velocity and pressure offsets at x2 -> +/- infinity,
    computed from two independent formulas; the spread is a diagnostic."""

    c1: float
    c2: float
    c1_alt: float
    c2_alt: float

    @property
    def spread(self) -> float:
        return max(abs(self.c1 - self.c1_alt), abs(self.c2 - self.c2_alt))


def far_field_constants(f: InterfaceProfile, params: PhysParams) -> FarFieldConstants:
    return _far_field_constants(f, params, forcing_G(f, params))


def _far_field_constants(f, params, G) -> FarFieldConstants:
    """``far_field_constants`` with the forcing G of (f, params) given."""
    fp = f.deriv_values
    omega = np.sqrt(1.0 + fp * fp)
    c1 = -params.sigma / (2.0 * params.mu) * float(np.mean(fp / omega))
    c2 = -params.theta / 2.0 * f.mean
    c1_alt = -float(np.mean(f.values * G.g1)) / (2.0 * params.mu)
    c2_alt = -float(np.mean(G.g2)) / 2.0
    return FarFieldConstants(c1, c2, c1_alt, c2_alt)


# ---------------------------------------------------------------------------
# the evolution operator
# ---------------------------------------------------------------------------

def _direct_velocity(B, g1, g2):
    """4 mu times the layer velocity of the forcing (g1, g2): composites 0, 5
    and 6.  ``B(index, *densities)`` is one composite (on the interface) or
    layer integral (off it) per density; calls come grouped by index, so
    the log table is built once and 5 and 6 share each product of r2 D.
    Composite 0's log kernel is ln(sin^2(s/2) + ...), the Stokeslet's has a
    4 in it: ln 4 times the mean of g2 puts it back (g1 is mean-free)."""
    b0_1, b0_2 = B(0, g1, g2)
    b5_1, b5_2 = B(5, g1, g2)
    b6_1, b6_2 = B(6, g1, g2)
    return b0_1 + b6_1 - b5_2, b0_2 - b6_2 - b5_1 + LN4 * np.mean(g2)


def _parts_velocity(B, F1, F2, fp):
    """4 mu times the interface velocity of the forcing (F1', F2'), with
    (F1, F2) integrated by parts against composites 1..4; fp = f'.  1 and 2
    read the table D, 3 and 4 share one build of (r2/2)(1 + D^2)."""
    a, b = F1 - fp * F2, fp * F1
    b1_a, b1_c = B(1, a, F2 - fp * F1)
    (b2_b,) = B(2, b)
    b3_b, b3_F2, b3_a = B(3, b, F2, a)
    b4_a, b4_c = B(4, a, b + F2)
    return (b1_a - 2.0 * b4_a + 2.0 * b2_b + b3_b + b3_F2,
            b1_c + b3_a + 2.0 * b4_c)


def eval_Psi(f: InterfaceProfile, params: PhysParams) -> np.ndarray:
    """Nodal values of the interface velocity df/dt = -f' v1 + v2: surface
    tension by parts (through phi), buoyancy directly.

    Constants are equilibria: the buoyancy mean term cancels the mean of the
    logarithmic operator exactly, and the result is mean-free.
    """
    fv = f.values
    fp = f.deriv_values
    phi, g1, g2 = phi_of(f), fv * fp, -fv
    (s1, s2), (t1, t2) = _swept(f, lambda B: (_parts_velocity(B, *phi, fp),
                                              _direct_velocity(B, g1, g2)))
    sigma, theta, mu = params.sigma, params.theta, params.mu
    return (sigma / (4.0 * mu)) * (fp * s1 - s2) \
        + (theta / (4.0 * mu)) * (fp * t1 - t2)


@lru_cache(maxsize=32)
def linear_multiplier(grid: PeriodicGrid, params: PhysParams) -> np.ndarray:
    """Flat-state linearization as a Fourier multiplier:
    lambda_k = -(sigma k^2 + theta) / (4 mu |k|), lambda_0 = 0.  Computed
    once per (N, params) and returned read-only."""
    k = np.abs(grid.wavenumbers)
    lam = np.zeros(grid.n_points)
    nz = k > 0
    lam[nz] = -(params.sigma * k[nz] ** 2 + params.theta) / (4.0 * params.mu * k[nz])
    lam.flags.writeable = False
    return lam


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _exp_factors(dt: float, lam: bytes) -> tuple[np.ndarray, np.ndarray]:
    """e^{dt lam} and dt phi1(dt lam) for the multiplier with these bytes,
    phi1(z) = (e^z - 1)/z and phi1(0) = 1: computed once per (dt, lam),
    read-only."""
    z = dt * np.frombuffer(lam)
    phi1 = np.ones_like(z)
    nz = z != 0.0
    phi1[nz] = np.expm1(z[nz]) / z[nz]
    factors = np.exp(z), dt * phi1
    for a in factors:
        a.flags.writeable = False
    return factors


def _exp_euler(psi, values, dt, lam, k1):
    """Exponential Euler: the flat-state part L (multiplier lam) is taken
    exactly, the remainder N = Psi - L frozen over the step:
    f_new^ = e^{dt lam} f^ + dt phi1(dt lam) (k1 - L f)^ (``_exp_factors``).
    f and k1 take one FFT as a stack."""
    growth, phi1_dt = _exp_factors(dt, np.asarray(lam, dtype=float).tobytes())
    f_hat, k1_hat = np.fft.fft(np.array([values, k1]))
    return np.fft.ifft(growth * f_hat + phi1_dt * (k1_hat - lam * f_hat)).real


def _rk4(psi, values, dt, lam, k1):
    k2 = psi(values + 0.5 * dt * k1)
    k3 = psi(values + 0.5 * dt * k2)
    k4 = psi(values + dt * k3)
    return values + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class Scheme(NamedTuple):
    order: int          # of the global error; step doubling divides by 2^order - 1
    dt_factor: float    # the default step is dt_factor / N
    advance: Callable   # (psi, values, dt, lam, Psi(values)) -> new values


SCHEMES = {
    "exp-euler": Scheme(1, 2.0, _exp_euler),
    "rk4-explicit": Scheme(4, 0.5, _rk4),
}


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "exp-euler"       # a key of SCHEMES
    dt: float = 0.0                 # 0 picks the scheme default dt_factor / N
    t_end: float = 1.0
    snapshot_stride: int = 1
    adapt: bool = False
    tol: float = 1e-8
    blowup_factor: float = 1e3   # runaway guard relative to the initial size

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not np.all(np.isfinite([self.dt, self.t_end, self.tol, self.blowup_factor])):
            raise ValueError("dt, t_end, tol and blowup_factor must be finite")
        if self.dt < 0 or self.tol <= 0 or self.blowup_factor <= 1:
            raise ValueError("dt must be >= 0, tol > 0, blowup_factor > 1")
        if self.snapshot_stride < 1 or not float(self.snapshot_stride).is_integer():
            raise ValueError(f"snapshot_stride must be an integer >= 1, "
                             f"got {self.snapshot_stride}")

    def effective_dt(self, grid: PeriodicGrid) -> float:
        if self.dt > 0:
            return self.dt
        return SCHEMES[self.scheme].dt_factor / grid.n_points


@dataclass(frozen=True)
class EvolutionState:
    time: float
    profile: InterfaceProfile
    params: PhysParams
    step_count: int = 0


class IntegrationError(RuntimeError):
    """Raised when a run stops before t_end; carries the last accepted state
    so a caller can persist it."""

    def __init__(self, message: str, last_state: EvolutionState):
        super().__init__(message)
        self.last_state = last_state


class BlowUpError(IntegrationError):
    """The profile left the trusted range (non-finite or runaway values)."""


class StepSizeError(IntegrationError):
    """Step-doubling control missed the tolerance at the smallest step, or
    spent its step budget."""


MIN_ADAPTIVE_DT = 1e-8   # step-doubling control halves dt down to here, no further
MAX_ADAPTIVE_STEPS = 100_000   # step-doubling trials, accepted or not, per run


def _step(state, config, dt, blowup_threshold, k1=None):
    """``step`` at a given dt; ``k1``, when given, is Psi at the state."""
    grid, params = state.profile.grid, state.params

    def psi(v):
        return eval_Psi(InterfaceProfile(grid, v), params)

    if k1 is None:
        k1 = eval_Psi(state.profile, params)
    new_values = SCHEMES[config.scheme].advance(
        psi, state.profile.values, dt, linear_multiplier(grid, params), k1)
    if not np.all(np.isfinite(new_values)) or (
        blowup_threshold is not None and np.max(np.abs(new_values)) > blowup_threshold
    ):
        raise BlowUpError(
            f"solution left the trusted range at t={state.time + dt:.6g}", state
        )
    return EvolutionState(
        time=state.time + dt,
        profile=InterfaceProfile(grid, new_values),
        params=params,
        step_count=state.step_count + 1,
    )


def step(state: EvolutionState, config: StepperConfig, *,
         dt: float | None = None,
         blowup_threshold: float | None = None) -> EvolutionState:
    """Advance one time step; raises BlowUpError on non-finite or runaway values."""
    dt = dt if dt is not None else config.effective_dt(state.profile.grid)
    return _step(state, config, dt, blowup_threshold)


def snapshot_record(state: EvolutionState) -> dict:
    v = state.profile.values
    return {
        "t": float(state.time),
        "mean": float(np.mean(v)),
        "linf": float(np.max(np.abs(v))),
        "l2": float(np.sqrt(np.mean(v * v))),
        "values": v.tolist(),
    }


def integrate(state: EvolutionState, config: StepperConfig, sink=None) -> EvolutionState:
    """Repeated stepping to t_end with optional step-doubling error control.

    ``sink`` receives one snapshot record every ``snapshot_stride`` accepted
    steps (plus the final state).  Blow-up raises BlowUpError.  An error
    estimate above ``tol`` at the step floor ``MIN_ADAPTIVE_DT``, or a run
    that needs more than ``MAX_ADAPTIVE_STEPS`` step-doubling trials, raises
    StepSizeError.  Both errors carry the last accepted state.
    """
    grid = state.profile.grid
    dt = config.effective_dt(grid)
    threshold = config.blowup_factor * max(np.max(np.abs(state.profile.values)), 1e-12)
    order = SCHEMES[config.scheme].order
    emitted_steps = trials = 0

    while state.time < config.t_end - 1e-12:
        dt_now = min(dt, config.t_end - state.time)
        if config.adapt:
            if trials >= MAX_ADAPTIVE_STEPS:
                raise StepSizeError(
                    f"step budget of {MAX_ADAPTIVE_STEPS} step-doubling trials spent "
                    f"at t={state.time:.6g} with dt={dt_now:.3g}, tol={config.tol:g}", state)
            trials += 1
            # the full step and the first half step share Psi at the state
            k1 = eval_Psi(state.profile, state.params)
            full = _step(state, config, dt_now, threshold, k1)
            half = _step(state, config, dt_now / 2.0, threshold, k1)
            half = _step(half, config, dt_now / 2.0, threshold)
            err = np.max(np.abs(full.profile.values - half.profile.values)) / (2**order - 1)
            if err > config.tol:
                if dt_now <= MIN_ADAPTIVE_DT:
                    raise StepSizeError(
                        f"error estimate {err:.3e} above tol={config.tol:g} at "
                        f"dt={dt_now:.3g}, t={state.time:.6g}", state)
                dt = dt_now / 2.0
                continue
            state = replace(half, step_count=state.step_count + 1)
            if err < config.tol / 2**(order + 1):
                dt = min(dt_now * 2.0, 2.0 * config.effective_dt(grid))
        else:
            state = step(state, config, dt=dt_now, blowup_threshold=threshold)
        emitted_steps += 1
        if sink is not None and emitted_steps % config.snapshot_stride == 0:
            sink(snapshot_record(state))
    if sink is not None and emitted_steps % config.snapshot_stride != 0:
        sink(snapshot_record(state))
    return state
