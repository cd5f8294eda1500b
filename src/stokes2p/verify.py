"""Named runtime verification checks, the backing of the ``verify`` command.

Each check returns (name, passed, detail).  The ``fault`` hook deliberately
corrupts one ingredient so the harness itself can be exercised end to end.
"""

from __future__ import annotations

import numpy as np

from .analysis import numeric_jacobian_at_zero
from .core import InterfaceProfile, PeriodicGrid, PhysParams, geometry_quantities
from .evolution import eval_Psi, forcing_G, far_field_constants
from .fields import _trace_velocities, far_field_residuals, interface_jump_checks
from .operators import (
    OperatorSpec,
    eval_A,
    eval_B,
    eval_C,
    hilbert_transform,
)


def _random_profile(grid, rng, amplitude=0.25, modes=12):
    values = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        decay = np.exp(-0.4 * k)
        values += amplitude * decay * (rng.normal() * np.cos(k * grid.nodes)
                                       + rng.normal() * np.sin(k * grid.nodes))
    return InterfaceProfile(grid, values)


def check_operator_identities(n_points=256, fault=None):
    """Kernel-level identities relating the three operator families."""
    grid = PeriodicGrid(n_points)
    f = InterfaceProfile(grid, 0.3 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    density = np.cos(grid.nodes) + 0.4 * np.sin(3 * grid.nodes)
    c_members = {}

    def C(n, m):
        # both identities read C[n, m]: each member is evaluated once
        if (n, m) not in c_members:
            c_members[n, m] = eval_C(OperatorSpec.diagonal(n, m, 0, 0, f), density)
        return c_members[n, m]

    worst_sum = 0.0
    for n in range(0, 5):
        for m in range(1, 4):
            for q in (0, 1):
                B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f), density)
                A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f), 1, density)
                if fault == "quadrature":
                    A = A * (1.0 + 1e-6)
                worst_sum = max(worst_sum, float(np.max(np.abs(B - A - C(n + q, m)))))

    worst_rec = 0.0
    for n in range(0, 5):
        for m in range(1, 4):
            lhs = C(n, m) + C(n + 2, m)
            worst_rec = max(worst_rec, float(np.max(np.abs(lhs - C(n, m - 1)))))

    hq = eval_B(OperatorSpec(0, 0), InterfaceProfile(grid, density))
    hm = hilbert_transform(density)
    worst_h = float(np.max(np.abs(hq - hm)))

    return [
        ("operator-identity/B=A+C", worst_sum < 1e-9,
         f"max residual {worst_sum:.3e} (tol 1e-9)"),
        ("operator-identity/C-recursion", worst_rec < 1e-9,
         f"max residual {worst_rec:.3e} (tol 1e-9)"),
        ("operator-identity/hilbert-multiplier", worst_h < 1e-10,
         f"max residual {worst_h:.3e} (tol 1e-10)"),
    ]


def check_conservation(seed=0, n_profiles=5):
    """Mean-free velocity, constant equilibria, vertical-shift invariance and
    energy dissipation: with g = theta (f - mean f) - sigma kappa, the energy
    changes at the rate <g, Psi(f)>, which is negative off equilibria."""
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(seed)
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=2.0)
    worst_mean, worst_shift, worst_g1, worst_cos = 0.0, 0.0, 0.0, -1.0
    for _ in range(n_profiles):
        f = _random_profile(grid, rng)
        psi = eval_Psi(f, params)
        worst_mean = max(worst_mean, abs(float(np.mean(psi))))
        g = params.theta * (f.values - f.mean) - params.sigma * geometry_quantities(f).curvature
        worst_cos = max(worst_cos, float(np.dot(g, psi) / (np.linalg.norm(g) * np.linalg.norm(psi))))
        shifted = InterfaceProfile(grid, f.values + 0.4)
        worst_shift = max(worst_shift, float(np.max(np.abs(
            eval_Psi(shifted, params) - psi))))
        worst_g1 = max(worst_g1, abs(float(np.mean(forcing_G(f, params).g1))))
    worst_const = float(np.max(np.abs(eval_Psi(
        InterfaceProfile(grid, np.full(grid.n_points, 0.7)), params))))
    return [
        ("conservation/psi-mean-free", worst_mean < 1e-10, f"max {worst_mean:.3e} (tol 1e-10)"),
        ("conservation/constants-are-equilibria", worst_const < 1e-10,
         f"max {worst_const:.3e} (tol 1e-10)"),
        ("conservation/vertical-shift-invariance", worst_shift < 1e-9,
         f"max {worst_shift:.3e} (tol 1e-9)"),
        ("conservation/forcing-mean-free", worst_g1 < 1e-12, f"max {worst_g1:.3e} (tol 1e-12)"),
        ("conservation/energy-dissipation", worst_cos < 0.0,
         f"largest cosine of g and Psi {worst_cos:.3f} (must be < 0)"),
    ]


def check_spectrum(n_points=256, k_max=16):
    """Finite-difference flat-state Jacobian against the closed-form symbol."""
    results = []
    for theta in (0.0, 3.0, -0.5):
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=theta)
        grid = PeriodicGrid(n_points)
        rep = numeric_jacobian_at_zero(params, grid, k_max)
        results.append((
            f"spectrum/multiplier-match-theta={theta:g}",
            rep.worst_rel_error < 1e-6 and rep.leakage < 1e-8,
            f"rel err {rep.worst_rel_error:.3e} (tol 1e-6), "
            f"leakage {rep.leakage:.3e} (tol 1e-8)",
        ))
    return results


def check_far_field_constants():
    """Two independent formulas for the far-field offsets must agree."""
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    c = far_field_constants(f, params)
    return [("far-field/dual-formula-constants", c.spread < 1e-10,
             f"spread {c.spread:.3e} (tol 1e-10)")]


def check_trace_equivalence():
    """Direct and integrated-by-parts interface velocity traces must agree;
    both are taken from one sweep of the tables per profile."""
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
    worst = 0.0
    for theta in (0.0, 1.0):
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=theta)
        a, b = _trace_velocities(f, params, ("direct-g", "parts-z"))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return [("trace/variant-equivalence", worst < 1e-8, f"max {worst:.3e} (tol 1e-8)")]


def check_jump_relations(quick=True):
    """One-sided layer limits vs trace composites plus jump terms."""
    grid = PeriodicGrid(64)
    f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.5)
    eps_factors = (1e-2, 1e-3) if quick else (1e-2, 1e-3, 1e-4)
    report = interface_jump_checks(f, params, probe_count=2 if quick else 4,
                                   eps_factors=eps_factors)
    tol = 1e-2 if quick else 1e-4
    orders_ok = all(o > 0.8 for o in report.z_orders.values())
    return [
        ("jumps/z-limits", report.final_z_residual < tol and orders_ok,
         f"final residual {report.final_z_residual:.3e} (tol {tol:g}), "
         f"orders {sorted(round(o, 2) for o in report.z_orders.values())}"),
        ("jumps/pressure", float(report.pressure_residuals[-1]) < tol,
         f"final residual {report.pressure_residuals[-1]:.3e} (tol {tol:g})"),
        ("jumps/stress",
         report.stress_tangential_residual < 1e-3 and report.stress_normal_residual < 1e-3,
         f"tangential {report.stress_tangential_residual:.3e}, "
         f"normal {report.stress_normal_residual:.3e} (tol 1e-3)"),
    ]


def check_far_field_limits():
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    res = far_field_residuals(f, params)
    worst = max(v for side in res.values() for v in side.values())
    return [("far-field/limits-at-20", worst < 1e-6, f"max residual {worst:.3e} (tol 1e-6)")]


def run_checks(level="quick", seed=0, fault=None):
    """Run the named invariant suites; returns list of (name, ok, detail)."""
    quick = level == "quick"
    results = []
    results += check_operator_identities(n_points=128 if quick else 256, fault=fault)
    results += check_conservation(seed=seed, n_profiles=3 if quick else 10)
    results += check_spectrum(n_points=128 if quick else 256, k_max=8 if quick else 32)
    results += check_far_field_constants()
    results += check_trace_equivalence()
    results += check_far_field_limits()
    results += check_jump_relations(quick=quick)
    return results
