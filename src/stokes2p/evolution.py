"""Interface evolution: forcing, far-field constants, the nonlocal velocity
operator driving df/dt, and time integration.

The interface graph x2 = f(x1) moves with the vertical velocity of the flow
it induces.  Its layer velocity is coded once directly (``_direct_velocity``)
and once by parts (``_parts_velocity``); ``eval_Psi``, the interface traces
and the bulk flow of ``fields`` all read these two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    spectral_derivative,
)
from .operators import DiagonalOps

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
    fp = f.deriv_values
    omega = np.sqrt(1.0 + fp * fp)
    c1 = -params.sigma / (2.0 * params.mu) * float(np.mean(fp / omega))
    c2 = -params.theta / 2.0 * f.mean
    G = forcing_G(f, params)
    c1_alt = -float(np.mean(f.values * G.g1)) / (2.0 * params.mu)
    c2_alt = -float(np.mean(G.g2)) / 2.0
    return FarFieldConstants(c1, c2, c1_alt, c2_alt)


# ---------------------------------------------------------------------------
# the evolution operator
# ---------------------------------------------------------------------------

def _direct_velocity(B, g1, g2):
    """4 mu times the layer velocity of the forcing (g1, g2): composites 0, 5
    and 6.  ``B(index, *densities)`` is one composite (on the interface) or
    layer integral (off it) per density; calls come grouped by index."""
    b0_1, b0_2 = B(0, g1, g2)
    b5_1, b5_2 = B(5, g1, g2)
    b6_1, b6_2 = B(6, g1, g2)
    return b0_1 + b6_1 - b5_2, b0_2 - b6_2 - b5_1


def _parts_velocity(B, F1, F2, fp):
    """4 mu times the interface velocity of the forcing (F1', F2'), with
    (F1, F2) integrated by parts against composites 1..4; fp = f'."""
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
    B = DiagonalOps(f).composites
    fv = f.values
    fp = f.deriv_values
    s1, s2 = _parts_velocity(B, *phi_of(f), fp)
    t1, t2 = _direct_velocity(B, fv * fp, -fv)
    sigma, theta, mu = params.sigma, params.theta, params.mu
    return (sigma / (4.0 * mu)) * (fp * s1 - s2) \
        + (theta / (4.0 * mu)) * (fp * t1 - t2) \
        + (theta * LN4 / (4.0 * mu)) * f.mean


def linear_multiplier(grid: PeriodicGrid, params: PhysParams) -> np.ndarray:
    """Flat-state linearization as a Fourier multiplier:
    lambda_k = -(sigma k^2 + theta) / (4 mu |k|), lambda_0 = 0."""
    k = np.abs(grid.wavenumbers)
    lam = np.zeros(grid.n_points)
    nz = k > 0
    lam[nz] = -(params.sigma * k[nz] ** 2 + params.theta) / (4.0 * params.mu * k[nz])
    return lam


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "imex-euler"      # or "rk4-explicit"
    dt: float = 0.0                 # 0 picks the scheme default 2/N or 0.5/N
    t_end: float = 1.0
    snapshot_stride: int = 1
    adapt: bool = False
    tol: float = 1e-8
    blowup_factor: float = 1e3   # runaway guard relative to the initial size

    def __post_init__(self):
        if self.scheme not in ("imex-euler", "rk4-explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not np.all(np.isfinite([self.dt, self.t_end, self.tol, self.blowup_factor])):
            raise ValueError("dt, t_end, tol and blowup_factor must be finite")
        if self.dt < 0 or self.tol <= 0 or self.blowup_factor <= 1:
            raise ValueError("dt must be >= 0, tol > 0, blowup_factor > 1")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    def effective_dt(self, grid: PeriodicGrid) -> float:
        if self.dt > 0:
            return self.dt
        return (2.0 if self.scheme == "imex-euler" else 0.5) / grid.n_points


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


def _imex_step(values, dt, lam, psi_vals):
    # (I - dt L) f_new = f_old + dt (Psi(f_old) - L f_old), L diagonal in k
    rhs = np.fft.fft(values + dt * psi_vals) - dt * lam * np.fft.fft(values)
    return np.fft.ifft(rhs / (1.0 - dt * lam)).real


def _advance(values, dt, grid, params, scheme, lam):
    def psi(v):
        return eval_Psi(InterfaceProfile(grid, v), params)

    if scheme == "imex-euler":
        return _imex_step(values, dt, lam, psi(values))
    k1 = psi(values)
    k2 = psi(values + 0.5 * dt * k1)
    k3 = psi(values + 0.5 * dt * k2)
    k4 = psi(values + dt * k3)
    return values + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: EvolutionState, config: StepperConfig, *,
         dt: float | None = None,
         blowup_threshold: float | None = None) -> EvolutionState:
    """Advance one time step; raises BlowUpError on non-finite or runaway values."""
    grid = state.profile.grid
    dt = dt if dt is not None else config.effective_dt(grid)
    lam = linear_multiplier(grid, state.params)
    new_values = _advance(state.profile.values, dt, grid, state.params,
                          config.scheme, lam)
    if not np.all(np.isfinite(new_values)) or (
        blowup_threshold is not None and np.max(np.abs(new_values)) > blowup_threshold
    ):
        raise BlowUpError(
            f"solution left the trusted range at t={state.time + dt:.6g}", state
        )
    return EvolutionState(
        time=state.time + dt,
        profile=InterfaceProfile(grid, new_values),
        params=state.params,
        step_count=state.step_count + 1,
    )


def snapshot_record(state: EvolutionState) -> dict:
    v = state.profile.values
    return {
        "t": float(state.time),
        "mean": float(np.mean(v)),
        "linf": float(np.max(np.abs(v))),
        "l2": float(np.sqrt(np.mean(v * v))),
        "values": [float(x) for x in v],
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
    order = 1 if config.scheme == "imex-euler" else 4
    emitted_steps = trials = 0

    while state.time < config.t_end - 1e-12:
        dt_now = min(dt, config.t_end - state.time)
        if config.adapt:
            if trials >= MAX_ADAPTIVE_STEPS:
                raise StepSizeError(
                    f"step budget of {MAX_ADAPTIVE_STEPS} step-doubling trials spent "
                    f"at t={state.time:.6g} with dt={dt_now:.3g}, tol={config.tol:g}", state)
            trials += 1
            full = step(state, config, dt=dt_now, blowup_threshold=threshold)
            half = step(state, config, dt=dt_now / 2.0, blowup_threshold=threshold)
            half = step(half, config, dt=dt_now / 2.0, blowup_threshold=threshold)
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
