"""Pseudo-spectral solver for the two-phase horizontally periodic
quasistationary Stokes interface flow.

The interface between two equal-viscosity fluids is the graph of a periodic
function f; the package evaluates the nonlocal velocity operator driving
df/dt, the singular-integral calculus it is built from, the bulk velocity
and pressure reconstructed from the periodic Stokeslet, and the linear
stability diagnostics of the flat state.
"""

__version__ = "0.1.0"

from .core import (
    InterfaceGeometry,
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    from_spectral,
    geometry_quantities,
    half_shift_samples,
    spectral_derivative,
    to_spectral,
)
from .operators import (
    DiagonalOps,
    KernelWorkspace,
    OperatorSpec,
    composite_B,
    eval_A,
    eval_B,
    eval_B0,
    eval_C,
    frechet_B,
    frechet_B0,
    hilbert_transform,
)
from .evolution import (
    BlowUpError,
    EvolutionState,
    ForcingG,
    IntegrationError,
    StepSizeError,
    StepperConfig,
    dphi_of,
    eval_Psi,
    far_field_constants,
    forcing_G,
    integrate,
    linear_multiplier,
    phi_of,
    step,
)
from .fields import (
    FieldSample,
    ProximityError,
    eval_Z,
    far_field_residuals,
    interface_jump_checks,
    pressure_field,
    sample_flow,
    stokeslet_eval,
    trace_B,
    trace_velocity,
    velocity_field,
    velocity_gradient_field,
)
from .analysis import (
    RateFit,
    SpectrumReport,
    analytic_spectrum,
    decay_rate_fit,
    numeric_jacobian_at_zero,
)
