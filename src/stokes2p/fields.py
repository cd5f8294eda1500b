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
from numpy.polynomial.legendre import leggauss

from .core import InterfaceProfile, PhysParams, geometry_quantities, spectral_derivative
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


def _kernel_sums(tables, samples, pairs, contract):
    # each kernel is built once and contracted with all of its densities
    out = {}
    for index in dict.fromkeys(i for i, _ in pairs):
        K = tables.kernel(index)
        for i, key in pairs:
            if i == index:
                out[(i, key)] = contract(K, samples[key])
        del K
    return out


def _trapezoid_sums(f, densities, pairs, pts, m_quad):
    # f and every density sampled once; the kernels share one set of
    # half-angle tables
    m = max(m_quad or 0, f.grid.n_points, 256)
    s = 2.0 * np.pi * np.arange(m) / m
    r1 = pts[:, 0:1] - s[None, :]
    r2 = pts[:, 1:2] - f.eval_at(s)[None, :]
    samples = {key: densities[key].eval_at(s) for key in dict.fromkeys(k for _, k in pairs)}
    return _kernel_sums(_LayerTables.at(r1, r2), samples, pairs,
                        lambda K, v: K @ v / m)


# near rule: a fixed Gauss-Legendre panel on each interval between the
# breakpoints s0 +/- d * _PANEL_RATIO**k (k = 0, 1, ...) inside (s0 - pi, s0 + pi),
# where s0 is the foot of the normal from the point and d its distance.
# Intervals wider than _PANEL_MAX_WIDTH grid spacings are split evenly, so
# that a panel spans at most two periods of the highest grid mode.
_PANEL_ORDER = 16
_PANEL_RATIO = 4.0
_PANEL_MAX_WIDTH = 4.0
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL_ORDER)
_FOOT_NEWTON_STEPS = 3
_MIN_NEAR_DISTANCE = 1e-9   # smallest panel width, for points on the interface itself


def _interface_feet(f: InterfaceProfile, pts: np.ndarray):
    """Foot of the normal from each point: its parameter and distance.

    Newton steps on (x - s)^2 + (y - f(s))^2 start from the nearest dense
    sample; the refined foot is kept where it is closer than that sample.
    Between samples the near-singularity can sit well inside the innermost
    panel, where the fixed rule fails."""
    dist, s0 = _closest_samples(f, pts)
    fp = InterfaceProfile(f.grid, f.deriv_values)
    fpp = InterfaceProfile(f.grid, spectral_derivative(f, order=2))
    x, y = pts[:, 0], pts[:, 1]

    def offsets(s):
        return (x - s + np.pi) % (2.0 * np.pi) - np.pi, y - f.eval_at(s)

    s = s0
    for _ in range(_FOOT_NEWTON_STEPS):
        u, v = offsets(s)
        d1 = fp.eval_at(s)
        slope = -u - v * d1                       # half the first derivative
        curv = 1.0 + d1 * d1 - v * fpp.eval_at(s)  # half the second
        s = s - slope / np.where(curv > 0.0, curv, np.inf)
    refined = np.hypot(*offsets(s))
    closer = refined < dist
    return np.where(closer, s, s0), np.where(closer, refined, dist)


def _near_nodes(dist, spacing):
    """Node offsets from the foot and weights of the graded panel rule for a
    point at distance dist."""
    d = max(dist, _MIN_NEAR_DISTANCE)
    steps = d * _PANEL_RATIO ** np.arange(np.log(np.pi / d) / np.log(_PANEL_RATIO) + 1)
    right = np.concatenate([[0.0], steps[steps < np.pi], [np.pi]])
    edges = np.concatenate([-right[:0:-1], right])
    pieces = np.ceil(np.diff(edges) / (_PANEL_MAX_WIDTH * spacing)).astype(int)
    half = np.repeat(np.diff(edges) / (2.0 * pieces), pieces)
    # piece j of an interval split evenly from a has its midpoint at a + (2j + 1) half
    j = np.arange(len(half)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    mid = np.repeat(edges[:-1], pieces) + (2 * j + 1) * half
    return (mid[:, None] + half[:, None] * _GL_NODES).ravel(), (half[:, None] * _GL_WEIGHTS).ravel()


def _near_sums(f, densities, pairs, pts):
    """Z_index[densities[key]] at points near the interface for each
    (index, key) pair, by the graded Gauss-Legendre panel rule.

    One search finds the feet of all points.  Per point, one node set, one
    sampling of f and of each density and one set of half-angle tables
    serve every pair."""
    feet, dist = _interface_feet(f, pts)
    keys = dict.fromkeys(k for _, k in pairs)
    out = {pair: np.empty(len(pts)) for pair in pairs}
    for i, (p, foot, d) in enumerate(zip(pts, feet, dist)):
        offset, w = _near_nodes(d, f.grid.spacing)
        s = foot + offset
        # x - s taken as (x - foot) - offset keeps its digits on the small panels
        tables = _LayerTables.at((p[0] - foot) - offset, p[1] - f.eval_at(s))
        weighted = {key: w * densities[key].eval_at(s) for key in keys}
        for pair, val in _kernel_sums(tables, weighted, pairs, np.dot).items():
            out[pair][i] = val / (2.0 * np.pi)
    return out


def _layer_sums(f, densities, pairs, points, *, m_quad, collar, near):
    """Z_index[densities[key]] at the points for each (index, key) pair.

    One collar check per point set.  Points outside the collar take the
    periodic trapezoid rule; points inside raise ProximityError unless
    ``near=True``, which sends them together to the near panel rule.
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
        near_sums = _near_sums(f, densities, pairs, pts[close])
        for pair in pairs:
            out[pair][close] = near_sums[pair]
    return out


def eval_Z(index: int, f: InterfaceProfile, density, points, *,
           m_quad: int | None = None, collar: float | None = None,
           near: bool = False):
    """Layer integrals at off-interface points by the periodic trapezoid rule.

    Points closer to the interface than the collar raise ProximityError
    unless ``near=True``, which switches those points to a composite
    Gauss-Legendre rule: 16-point panels between breakpoints graded
    geometrically (ratio 4) away from the foot of the normal, the smallest
    panel as wide as the distance to the interface.
    """
    dens = density if isinstance(density, InterfaceProfile) else \
        InterfaceProfile(f.grid, np.asarray(density, dtype=float))
    vals = _layer_sums(f, {"d": dens}, ((index, "d"),), points,
                       m_quad=m_quad, collar=collar, near=near)[(index, "d")]
    return vals if np.asarray(points).ndim > 1 else float(vals[0])


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

    Off-interface values come from the graded Gauss-Legendre near rule (see
    ``eval_Z``) along the normal, at approach distances eps_factors * grid
    spacing; all approach points go through it together.
    """
    grid = f.grid
    n = grid.n_points
    geo = geometry_quantities(f)
    G = forcing_G(f, params)
    dens = np.asarray(density, dtype=float) if density is not None \
        else np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
    ops = DiagonalOps(f)
    jumps = z_jump_coefficients(f)
    traces = {idx: trace_B(idx, f, dens, ops=ops) for idx in (1, 2, 3, 4)}

    probes = np.arange(0, n, max(1, n // probe_count))[:probe_count]
    eps_values = np.asarray(eps_factors, dtype=float) * grid.spacing
    sides = np.array([1.0, -1.0])
    base = np.stack([grid.nodes[probes], f.values[probes]], axis=-1)
    nu = geo.normal[:, probes].T
    # approach points indexed [eps, probe, side, coordinate]
    pts = base[:, None, :] + (eps_values[:, None, None, None] * sides[:, None]) * nu[:, None, :]

    z_pairs = tuple((idx, "d") for idx in (1, 2, 3, 4))
    densities = {"d": InterfaceProfile(grid, dens),
                 "g1": InterfaceProfile(grid, G.g1), "g2": InterfaceProfile(grid, G.g2)}
    z = {pair: vals.reshape(pts.shape[:-1]) for pair, vals in
         _near_sums(f, densities, z_pairs + _PRESSURE_PAIRS, pts.reshape(-1, 2)).items()}

    z_res = {}
    for idx, key in z_pairs:
        want = traces[idx][probes, None] + sides * (jumps[idx] * dens)[probes, None]
        z_res[idx] = np.max(np.abs(z[(idx, key)] - want), axis=(1, 2))
    z_orders = {idx: _fit_order(eps_values, z_res[idx]) for idx in (1, 2, 3, 4)}

    # pressure jump [q] = -(G . nu)/omega via two-sided approach
    g_dot_nu = G.g1 * geo.normal[0] + G.g2 * geo.normal[1]
    q = _bulk_pressure(z)
    want = -(g_dot_nu / geo.omega)[probes]
    q_res = np.max(np.abs((q[..., 0] - q[..., 1]) - want), axis=1)

    # stress jumps at the smallest eps: the viscous part against the
    # tangential forcing, the full traction against the curvature forcing
    stress_t, stress_n = float("nan"), float("nan")
    if check_stress:
        p = pts[-1].reshape(-1, 2)
        grads = velocity_gradient_field(f, params, p, near=True).reshape(len(probes), 2, 2, 2)
        q_side = pressure_field(f, params, p, near=True).reshape(len(probes), 2)
        dgrad = grads[:, 0] - grads[:, 1]
        visc = params.mu * np.einsum("pij,pj->pi", dgrad + dgrad.transpose(0, 2, 1), nu)
        g_dot_tau = G.g1 * geo.tangent[0] + G.g2 * geo.tangent[1]
        want_t = (g_dot_tau / geo.omega)[probes, None] * geo.tangent[:, probes].T
        stress_t = float(np.max(np.abs(visc - want_t)))
        traction = -(q_side[:, 0] - q_side[:, 1])[:, None] * nu + visc
        want_full = (params.theta * f.values - params.sigma * geo.curvature)[probes, None] * nu
        stress_n = float(np.max(np.abs(traction - want_full)))

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
