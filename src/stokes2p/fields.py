"""Bulk velocity and pressure reconstruction off the interface.

The flow induced by the interface forcing is a single-layer potential
against the horizontally periodic Stokeslet.  Everything reduces to seven
scalar layer integrals Z_0 .. Z_6 with kernels smooth off the interface;
their one-sided interface limits reproduce the singular trace composites
plus explicit local jump terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import InterfaceProfile, PhysParams, geometry_quantities
from .evolution import LN4, forcing_G, phi_of
from .operators import DiagonalOps, _LayerTables, _z_kernel, composite_B

SIDE_PLUS = "plus"
SIDE_MINUS = "minus"


class ProximityError(ValueError):
    """Requested field point is inside the interface collar; use the trace
    formulas (or a near evaluation) instead."""


# ---------------------------------------------------------------------------
# the periodic Stokeslet
# ---------------------------------------------------------------------------

def stokeslet_eval(x1, x2):
    """Periodic Stokeslet (U, P): U symmetric 2x2, P the pressure vector.

    Assembled from the layer kernels, U = [[Z0 + Z6, -Z5], [-Z5, Z0 - Z6]]/(8 pi)
    and P = -(Z1, Z2)/(4 pi); in their sin/sinh form every point off the
    source lattice (2*pi*Z, 0) is admissible, x1 = pi included.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    with np.errstate(divide="ignore"):
        z0 = _z_kernel(0, x1, x2)
    if np.any(np.isneginf(z0)):
        raise ValueError("Stokeslet evaluated at a source point")
    z5, z6 = _z_kernel(5, x1, x2), _z_kernel(6, x1, x2)
    U = np.array([[z0 + z6, -z5], [-z5, z0 - z6]]) / (8.0 * np.pi)
    P = -np.array([_z_kernel(1, x1, x2), _z_kernel(2, x1, x2)]) / (4.0 * np.pi)
    return U, P


# ---------------------------------------------------------------------------
# the layer integrals Z_0 .. Z_6
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 128   # points per block of the dense distance scan


def _closest_samples(f: InterfaceProfile, pts: np.ndarray):
    """Dense-sampling search for the interface sample nearest each point
    (horizontal period folded in): its distance and its parameter.

    The points are scanned in blocks, so the (block, 8N) tables stay small
    whatever the number of points."""
    n_fine = max(8 * f.grid.n_points, 1024)
    s = np.linspace(0.0, 2.0 * np.pi, n_fine, endpoint=False)
    fs = f.eval_at(s)
    dist, nearest = np.empty(len(pts)), np.empty(len(pts))
    for start in range(0, len(pts), _SCAN_BLOCK):
        block = pts[start:start + _SCAN_BLOCK]
        d2 = block[:, 0:1] - s[None, :]
        d2 += np.pi
        d2 %= 2.0 * np.pi
        d2 -= np.pi
        d2 *= d2
        dy = block[:, 1:2] - fs[None, :]
        dy *= dy
        d2 += dy
        j = np.argmin(d2, axis=1)
        dist[start:start + len(block)] = np.sqrt(d2[np.arange(len(block)), j])
        nearest[start:start + len(block)] = s[j]
    return dist, nearest


def min_interface_distance(f: InterfaceProfile, points) -> np.ndarray:
    """Distance from each point to the interface graph (horizontal period
    folded in); dense-sampling approximation."""
    return _closest_samples(f, np.atleast_2d(np.asarray(points, dtype=float)))[0]


def default_collar(f: InterfaceProfile) -> float:
    return 10.0 * f.grid.spacing


def _trapezoid_sums(f, densities, pairs, pts, m_quad):
    # f and every density sampled once; the kernels share one set of
    # half-angle tables, and each is contracted with all of its densities as
    # soon as it is built
    m = max(m_quad or 0, f.grid.n_points, 256)
    s = 2.0 * np.pi * np.arange(m) / m
    r1 = pts[:, 0:1] - s[None, :]
    r2 = pts[:, 1:2] - f.eval_at(s)[None, :]
    samples = {key: densities[key].eval_at(s) for key in dict.fromkeys(k for _, k in pairs)}
    tables = _LayerTables.at(r1, r2)
    out = {}
    for index in dict.fromkeys(i for i, _ in pairs):
        K = tables.kernel(index)
        for i, key in pairs:
            if i == index:
                out[(i, key)] = K @ samples[key] / m
        del K
    return out


def _layer_sums(f, densities, pairs, points, *, m_quad, collar, near):
    """Z_index[densities[key]] at the points for each (index, key) pair.

    One collar check per point set.  Points outside the collar take the
    periodic trapezoid rule; points inside raise ProximityError unless
    ``near=True``, which sends them alone to the adaptive quadrature.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    collar = default_collar(f) if collar is None else collar
    close = min_interface_distance(f, pts) < collar
    if np.any(close) and not near:
        raise ProximityError(
            "field point within the interface collar; use the trace "
            "formulas or near=True for an approach study"
        )
    out = {pair: np.empty(len(pts)) for pair in pairs}
    if not np.all(close):
        far = _trapezoid_sums(f, densities, pairs, pts[~close], m_quad)
        for pair in pairs:
            out[pair][~close] = far[pair]
    if np.any(close):
        for index, key in pairs:
            out[(index, key)][close] = _eval_z_near(index, f, densities[key], pts[close])
    return out


def eval_Z(index: int, f: InterfaceProfile, density, points, *,
           m_quad: int | None = None, collar: float | None = None,
           near: bool = False):
    """Layer integrals at off-interface points by the periodic trapezoid rule.

    Points closer to the interface than the collar raise ProximityError
    unless ``near=True``, which switches those points to an adaptive
    quadrature with geometric breakpoints clustered at the nearest interface
    parameter (slow; meant for approach studies).
    """
    dens = density if isinstance(density, InterfaceProfile) else \
        InterfaceProfile(f.grid, np.asarray(density, dtype=float))
    vals = _layer_sums(f, {"d": dens}, ((index, "d"),), points,
                       m_quad=m_quad, collar=collar, near=near)[(index, "d")]
    return vals if np.asarray(points).ndim > 1 else float(vals[0])


def _eval_z_near(index, f, density, pts):
    out = np.empty(len(pts))
    dist, nearest = _closest_samples(f, pts)
    for i, p in enumerate(pts):
        s0 = nearest[i]
        scale = max(float(dist[i]), 1e-9)

        def integrand(s):
            return float(_z_kernel(index, p[0] - s, p[1] - f.eval_at(s))
                         * density.eval_at(s)) / (2.0 * np.pi)

        # breakpoints geometric in distance from s0 so the adaptive rule
        # resolves the near-singular peak at every scale
        d = scale
        brk = [s0]
        while d < np.pi:
            brk += [s0 - d, s0 + d]
            d *= 4.0
        brk = sorted(b for b in brk if s0 - np.pi < b < s0 + np.pi)
        val, _ = quad(integrand, s0 - np.pi, s0 + np.pi, points=brk,
                      limit=800, epsabs=1e-10, epsrel=1e-10)
        out[i] = val
    return out


# ---------------------------------------------------------------------------
# velocity and pressure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSample:
    point: tuple[float, float]
    side: str
    velocity: tuple[float, float]
    pressure: float


def side_of(f: InterfaceProfile, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.where(pts[:, 1] > f.eval_at(pts[:, 0]), SIDE_PLUS, SIDE_MINUS)


def _single_layer_velocity(z, g1, g2, mu):
    """Single-layer velocity of the forcing (g1, g2): z(index, density) is
    either the bulk layer integral Z_index or its interface trace."""
    mu4 = 4.0 * mu
    v1 = (z(0, g1) + z(6, g1) - z(5, g2)) / mu4
    v2 = (z(0, g2) - z(6, g2) - z(5, g1)) / mu4
    return v1, v2


_VELOCITY_PAIRS = ((0, "g1"), (6, "g1"), (5, "g2"), (0, "g2"), (6, "g2"), (5, "g1"))
_PRESSURE_PAIRS = ((1, "g1"), (2, "g2"))
_GRADIENT_PAIRS = ((1, "g1"), (1, "g2"), (2, "g1"), (3, "g1"), (3, "g2"), (4, "g1"), (4, "g2"))


def _forcing_sums(f, G, pairs, points, **kw):
    densities = {"g1": InterfaceProfile(f.grid, G.g1), "g2": InterfaceProfile(f.grid, G.g2)}
    return _layer_sums(f, densities, pairs, points, **kw)


def _bulk_velocity(sums, G, mu):
    v1, v2 = _single_layer_velocity(lambda i, key: sums[(i, key)], "g1", "g2", mu)
    v2 = v2 + float(np.mean(G.g2)) * LN4 / (4.0 * mu)
    return np.stack([v1, v2], axis=-1)


def _bulk_pressure(sums):
    return -(sums[(1, "g1")] + sums[(2, "g2")]) / 2.0


def _bulk_flow(f, G, params, pts, *, m_quad, collar):
    """Velocity (P, 2) and pressure (P,) from one pass over the point set."""
    sums = _forcing_sums(f, G, _VELOCITY_PAIRS + _PRESSURE_PAIRS, pts,
                         m_quad=m_quad, collar=collar, near=False)
    return _bulk_velocity(sums, G, params.mu), _bulk_pressure(sums)


def velocity_field(f: InterfaceProfile, params: PhysParams, points, *,
                   m_quad: int | None = None, collar: float | None = None,
                   near: bool = False) -> np.ndarray:
    """Velocity at off-interface points, shape (P, 2)."""
    G = forcing_G(f, params)
    sums = _forcing_sums(f, G, _VELOCITY_PAIRS, points,
                         m_quad=m_quad, collar=collar, near=near)
    out = _bulk_velocity(sums, G, params.mu)
    return out if np.asarray(points).ndim > 1 else out[0]


def pressure_field(f: InterfaceProfile, params: PhysParams, points, *,
                   m_quad: int | None = None, collar: float | None = None,
                   near: bool = False):
    """Pressure at off-interface points."""
    G = forcing_G(f, params)
    q = _bulk_pressure(_forcing_sums(f, G, _PRESSURE_PAIRS, points,
                                     m_quad=m_quad, collar=collar, near=near))
    return q if np.asarray(points).ndim > 1 else float(q[0])


def sample_flow(f: InterfaceProfile, params: PhysParams, points, *,
                m_quad: int | None = None, collar: float | None = None) -> list[FieldSample]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v, q = _bulk_flow(f, forcing_G(f, params), params, pts, m_quad=m_quad, collar=collar)
    sides = side_of(f, pts)
    return [
        FieldSample((float(p[0]), float(p[1])), str(s), (float(vv[0]), float(vv[1])), float(qq))
        for p, s, vv, qq in zip(pts, sides, v, q)
    ]


def velocity_gradient_field(f: InterfaceProfile, params: PhysParams, points, *,
                            m_quad: int | None = None, collar: float | None = None,
                            near: bool = False) -> np.ndarray:
    """Velocity gradient (entry [i, j] = d_j v_i) at off-interface points,
    shape (P, 2, 2); assembled from the derivative layer combinations and
    trace-free by construction."""
    G = forcing_G(f, params)
    z = _forcing_sums(f, G, _GRADIENT_PAIRS, points, m_quad=m_quad, collar=collar, near=near)
    mu4 = 4.0 * params.mu
    d1v1 = (z[(1, "g1")] - 2.0 * z[(4, "g1")] + z[(3, "g2")]) / mu4
    d2v1 = (2.0 * z[(2, "g1")] + z[(3, "g1")] - z[(1, "g2")] + 2.0 * z[(4, "g2")]) / mu4
    d1v2 = (z[(3, "g1")] + z[(1, "g2")] + 2.0 * z[(4, "g2")]) / mu4
    out = np.empty((len(d1v1), 2, 2))
    out[:, 0, 0] = d1v1
    out[:, 0, 1] = d2v1
    out[:, 1, 0] = d1v2
    out[:, 1, 1] = -d1v1
    return out if np.asarray(points).ndim > 1 else out[0]


# ---------------------------------------------------------------------------
# interface traces
# ---------------------------------------------------------------------------

def trace_B(index: int, f: InterfaceProfile, density, *,
            ops: DiagonalOps | None = None) -> np.ndarray:
    """Principal-value trace of Z_index on the interface (delegates to the
    singular composites)."""
    if index not in range(1, 7):
        raise ValueError("trace index must be in 1..6")
    return composite_B(index, f, density, ops=ops)


def z_jump_coefficients(f: InterfaceProfile) -> dict[int, np.ndarray]:
    """One-sided limit offsets: {Z_n}^(+/-) on the interface equals the trace
    composite plus/minus coefficient * density; zero for n = 5, 6."""
    fp = f.deriv_values
    om2 = 1.0 + fp * fp
    return {
        1: -fp / om2,
        2: 1.0 / om2,
        3: -2.0 * fp**2 / om2**2,
        4: (fp - fp**3) / (2.0 * om2**2),
        5: np.zeros_like(fp),
        6: np.zeros_like(fp),
    }


def antiderivative(values) -> np.ndarray:
    """Periodic antiderivative of a mean-free function, with the constant
    fixed by the first-moment convention: value at 0 equals the mean of
    s * f(s) over the period."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if abs(np.mean(values)) > 1e-10 * (np.max(np.abs(values)) + 1e-300):
        raise ValueError("antiderivative requires a mean-free function")
    c = np.fft.fft(values) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    coeffs = np.zeros(n, dtype=complex)
    nz = k != 0
    coeffs[nz] = c[nz] / (1j * k[nz])
    prim = np.fft.ifft(coeffs * n).real
    s = 2.0 * np.pi * np.arange(n) / n
    return prim - prim[0] + float(np.mean(s * values))


def trace_velocity(f: InterfaceProfile, params: PhysParams,
                   variant: str = "direct-g") -> np.ndarray:
    """Interface trace of the layer velocity, shape (2, N).

    ``direct-g`` integrates the forcing against the even composites;
    ``parts-z`` integrates an antiderivative of the forcing by parts against
    the odd ones.  The two agree identically in the continuum; ``parts-z``
    requires a mean-free profile so its vertical antiderivative is periodic.
    """
    ops = DiagonalOps(f)
    mu4 = 4.0 * params.mu
    B = ops.composite
    if variant == "direct-g":
        G = forcing_G(f, params)
        return np.vstack(_single_layer_velocity(B, G.g1, G.g2, params.mu))
    if variant == "parts-z":
        if abs(f.mean) > 1e-12 * (np.max(np.abs(f.values)) + 1e-300):
            raise ValueError(
                "parts-z variant not applicable: profile mean must vanish for "
                "the periodic antiderivative"
            )
        phi1, phi2 = phi_of(f)
        sigma, theta = params.sigma, params.theta
        F1 = -sigma * phi1 - theta * f.values**2 / 2.0
        F2 = -sigma * phi2 + theta * antiderivative(f.values)
        fp = f.deriv_values
        v1 = (B(1, F1 - fp * F2) - 2.0 * B(4, F1 - fp * F2)
              + 2.0 * B(2, fp * F1) + B(3, fp * F1) + B(3, F2)) / mu4
        v2 = (B(1, F2 - fp * F1) + B(3, F1 - fp * F2)
              + 2.0 * B(4, fp * F1 + F2)) / mu4
        return np.vstack([v1, v2])
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# jump relation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpReport:
    eps_values: np.ndarray            # approach distances tried
    z_residuals: dict                 # index -> per-eps worst-over-probes residual
    z_orders: dict                    # index -> fitted convergence order in eps
    pressure_residuals: np.ndarray    # per-eps residual of [q] + (G . nu)/omega
    pressure_order: float
    stress_tangential_residual: float  # at the smallest eps
    stress_normal_residual: float

    @property
    def final_z_residual(self) -> float:
        return max(float(res[-1]) for res in self.z_residuals.values())


def _fit_order(eps, res):
    good = res > 0
    if np.sum(good) < 2:
        return float("nan")
    return float(np.polyfit(np.log(eps[good]), np.log(res[good]), 1)[0])


def interface_jump_checks(f: InterfaceProfile, params: PhysParams, *,
                          density=None, probe_count: int = 4,
                          eps_factors=(1e-2, 1e-3, 1e-4),
                          check_stress: bool = True) -> JumpReport:
    """Measure one-sided limits of the layer integrals against the trace
    composites plus their jump coefficients, the pressure jump against the
    normal forcing, and the viscous-stress jump against the tangential one.

    Off-interface values come from the adaptive near quadrature along the
    normal, at approach distances eps_factors * grid spacing.
    """
    grid = f.grid
    n = grid.n_points
    geo = geometry_quantities(f)
    G = forcing_G(f, params)
    dens = np.asarray(density, dtype=float) if density is not None \
        else np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
    dens_prof = InterfaceProfile(grid, dens)
    ops = DiagonalOps(f)
    jumps = z_jump_coefficients(f)
    traces = {idx: trace_B(idx, f, dens, ops=ops) for idx in (1, 2, 3, 4)}

    probes = np.arange(0, n, max(1, n // probe_count))[:probe_count]
    eps_values = np.asarray(eps_factors, dtype=float) * grid.spacing

    z_res = {idx: np.zeros(len(eps_values)) for idx in (1, 2, 3, 4)}
    for idx in (1, 2, 3, 4):
        for j, eps in enumerate(eps_values):
            worst = 0.0
            for i in probes:
                base = np.array([grid.nodes[i], f.values[i]])
                nu = geo.normal[:, i]
                for sgn in (+1.0, -1.0):
                    got = _eval_z_near(idx, f, dens_prof, (base + sgn * eps * nu)[None, :])[0]
                    want = traces[idx][i] + sgn * jumps[idx][i] * dens[i]
                    worst = max(worst, abs(got - want))
            z_res[idx][j] = worst
    z_orders = {idx: _fit_order(eps_values, z_res[idx]) for idx in (1, 2, 3, 4)}

    # pressure jump [q] = -(G . nu)/omega via two-sided approach
    g_dot_nu = G.g1 * geo.normal[0] + G.g2 * geo.normal[1]
    g1p, g2p = InterfaceProfile(grid, G.g1), InterfaceProfile(grid, G.g2)
    q_res = np.zeros(len(eps_values))
    for j, eps in enumerate(eps_values):
        worst = 0.0
        for i in probes:
            base = np.array([grid.nodes[i], f.values[i]])
            nu = geo.normal[:, i]
            q_side = {}
            for sgn in (+1.0, -1.0):
                p = (base + sgn * eps * nu)[None, :]
                z1v = _eval_z_near(1, f, g1p, p)[0]
                z2v = _eval_z_near(2, f, g2p, p)[0]
                q_side[sgn] = -(z1v + z2v) / 2.0
            want = -g_dot_nu[i] / geo.omega[i]
            worst = max(worst, abs((q_side[1.0] - q_side[-1.0]) - want))
        q_res[j] = worst

    # stress jumps at the smallest eps: the viscous part against the
    # tangential forcing, the full traction against the curvature forcing
    stress_t, stress_n = float("nan"), float("nan")
    if check_stress:
        eps = eps_values[-1]
        g_dot_tau = G.g1 * geo.tangent[0] + G.g2 * geo.tangent[1]
        stress_t, stress_n = 0.0, 0.0
        for i in probes:
            base = np.array([grid.nodes[i], f.values[i]])
            nu = geo.normal[:, i]
            grads, q_side = {}, {}
            for sgn in (+1.0, -1.0):
                p = (base + sgn * eps * nu)[None, :]
                grads[sgn] = velocity_gradient_field(f, params, p, near=True)[0]
                q_side[sgn] = float(pressure_field(f, params, p, near=True)[0])
            dgrad = grads[1.0] - grads[-1.0]
            visc = params.mu * (dgrad + dgrad.T) @ nu
            want_t = g_dot_tau[i] / geo.omega[i] * geo.tangent[:, i]
            stress_t = max(stress_t, float(np.max(np.abs(visc - want_t))))
            traction = -(q_side[1.0] - q_side[-1.0]) * nu + visc
            want_full = (params.theta * f.values[i] - params.sigma * geo.curvature[i]) * nu
            stress_n = max(stress_n, float(np.max(np.abs(traction - want_full))))

    return JumpReport(eps_values, z_res, z_orders, q_res,
                      _fit_order(eps_values, q_res), stress_t, stress_n)


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------

def far_field_residuals(f: InterfaceProfile, params: PhysParams, *,
                        height: float = 20.0, n_probe: int = 8,
                        m_quad: int | None = None) -> dict:
    """Residuals of the velocity and pressure limits at x2 = +/- height."""
    G = forcing_G(f, params)
    fg1 = float(np.mean(f.values * G.g1))
    g2 = float(np.mean(G.g2))
    x1 = 2.0 * np.pi * (np.arange(n_probe) + 0.37) / n_probe
    out = {}
    for sign, name in ((+1.0, "plus"), (-1.0, "minus")):
        pts = np.stack([x1, np.full(n_probe, sign * height)], axis=1)
        v, q = _bulk_flow(f, G, params, pts, m_quad=m_quad, collar=None)
        out[name] = {
            "v1_residual": float(np.max(np.abs(v[:, 0] + sign * fg1 / (2.0 * params.mu)))),
            "v2_residual": float(np.max(np.abs(v[:, 1]))),
            "q_residual": float(np.max(np.abs(q + sign * g2 / 2.0))),
        }
    return out
