"""Bulk velocity and pressure reconstruction off the interface.

The flow induced by the interface forcing is a single-layer potential
against the horizontally periodic Stokeslet.  Everything reduces to seven
scalar layer integrals Z_0 .. Z_6 with kernels smooth off the interface;
their one-sided interface limits reproduce the singular trace composites
plus explicit local jump terms.  Off the interface one evaluator,
``_PointLayers``, gives them with the call form ``composites(index,
*densities)`` that ``DiagonalOps`` gives the composites on it, so the bulk
velocity and the velocity traces read the same layer-velocity coding of
``evolution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import InterfaceProfile, PhysParams, geometry_quantities, spectral_derivative
from .evolution import (LN4, _direct_velocity, _parts_velocity, far_field_constants,
                        forcing_G, phi_of)
from .operators import DiagonalOps, _LayerTables, _density_values

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

    Assembled from the layer kernels of one table, U = [[Z0 + Z6, -Z5],
    [-Z5, Z0 - Z6]]/(8 pi) and P = -(Z1, Z2)/(4 pi).  Read from cot(w/2),
    w = x1 + i|x2|, they admit every point off the source lattice
    (2*pi*Z, 0), x1 = pi and any height included.  Points within a few ulps
    of the lattice are source points (sin(pi k) rounds to 1e-16, not 0).
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    offset = np.abs((x1 + np.pi) % (2.0 * np.pi) - np.pi)
    if np.any((x2 == 0.0) & (offset <= 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x1)))):
        raise ValueError("Stokeslet evaluated at a source point")
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = _LayerTables.at(x1, x2)
    if not np.all(np.isfinite(tables.cot)):
        raise ValueError("Stokeslet evaluated at a source point")
    z = {i: tables.kernel(i).copy() for i in (0, 1, 2, 5, 6)}
    U = np.array([[z[0] + z[6], -z[5]], [-z[5], z[0] - z[6]]]) / (8.0 * np.pi)
    return U, -np.array([z[1], z[2]]) / (4.0 * np.pi)


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


def _trapezoid_rule(f: InterfaceProfile, pts: np.ndarray):
    """The periodic trapezoid rule on max(N, 256) nodes at points away from
    the interface: a density sampler, one cot table over (point, node) and
    the contraction of a kernel with the samples."""
    m = max(f.grid.n_points, 256)
    s = 2.0 * np.pi * np.arange(m) / m
    # r1 is only needed to build the table, so it is not kept
    tables = _LayerTables.at(pts[:, 0:1] - s[None, :], pts[:, 1:2] - f.eval_at(s)[None, :])
    return (lambda profile: profile.eval_at(s)), tables, (lambda K, v: K @ v / m)


def _near_rule(f: InterfaceProfile, pts: np.ndarray):
    """The graded panel rule at points near the interface, in the form of
    ``_trapezoid_rule``.  One search finds the feet of all points; the nodes
    of all points share one flat cot table, each point's sum one segment of
    it.  f and the densities are sampled point by point: one ``eval_at``
    over all nodes would build a phase matrix of all nodes times all active
    modes (about 90 MB for 20 points at N = 256)."""
    feet, dist = _interface_feet(f, pts)
    nodes, r1, r2 = [], [], []
    for p, foot, d in zip(pts, feet, dist):
        offset, w = _near_nodes(d, f.grid.spacing)
        nodes.append((foot + offset, w))
        # x - s taken as (x - foot) - offset keeps its digits on the small panels
        r1.append((p[0] - foot) - offset)
        r2.append(p[1] - f.eval_at(foot + offset))
    starts = np.cumsum([0] + [len(w) for _, w in nodes[:-1]])

    def sample(profile):
        return np.concatenate([w * profile.eval_at(s) for s, w in nodes])

    return (sample, _LayerTables.at(np.concatenate(r1), np.concatenate(r2)),
            lambda K, v: np.add.reduceat(K * v, starts) / (2.0 * np.pi))


class _PointLayers:
    """Layer integrals Z_index[density] at a set of off-interface points.

    ``composites(index, *densities)`` has the call form of
    ``DiagonalOps.composites``, with one array over the points per density.
    One collar check sorts the points: those outside the collar take
    ``_trapezoid_rule``; those inside raise ProximityError unless
    ``near=True``, which sends them to ``_near_rule``.

    Each distinct density is sampled once, in a memo keyed by its values,
    and before the call's kernel is built, which keeps the kernel table out
    of the sampling's peak memory.  The last kernel built is kept
    until another index is asked for, so calls grouped by index build each
    kernel once per rule.
    """

    def __init__(self, f: InterfaceProfile, points, *, collar=None, near=False):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        collar = default_collar(f) if collar is None else collar
        close = min_interface_distance(f, pts) < collar
        if np.any(close) and not near:
            raise ProximityError(
                "field point within the interface collar; use the trace "
                "formulas or near=True for an approach study"
            )
        self.grid, self.n_points = f.grid, len(pts)
        self._rules = [(mask, build(f, pts[mask]))
                       for mask, build in ((~close, _trapezoid_rule), (close, _near_rule))
                       if np.any(mask)]
        self._samples = {}
        self._index, self._kernels = None, None

    def _sample(self, density):
        # keyed by content: a density changed in place is sampled afresh
        values = _density_values(density, self.grid)
        key = values.tobytes()
        if key not in self._samples:
            profile = density if isinstance(density, InterfaceProfile) else \
                InterfaceProfile(self.grid, values)
            self._samples[key] = [sample(profile) for _, (sample, _, _) in self._rules]
        return self._samples[key]

    def composites(self, index: int, *densities) -> list:
        """Z_index of each density at the points, from one kernel per rule."""
        samples = [self._sample(d) for d in densities]
        if self._index != index:
            self._index = None          # the kernel tables are rewritten in place
            self._kernels = [tables.kernel(index) for _, (_, tables, _) in self._rules]
            self._index = index
        out = []
        for per_rule in samples:
            z = np.empty(self.n_points)
            for (mask, (_, _, contract)), K, v in zip(self._rules, self._kernels, per_rule):
                z[mask] = contract(K, v)
            out.append(z)
        return out


def eval_Z(index: int, f: InterfaceProfile, density, points, *,
           collar: float | None = None, near: bool = False):
    """Layer integrals at off-interface points by the periodic trapezoid rule
    on max(N, 256) nodes.

    Points closer to the interface than the collar raise ProximityError
    unless ``near=True``, which switches those points to a composite
    Gauss-Legendre rule: 16-point panels between breakpoints graded
    geometrically (ratio 4) away from the foot of the normal, the smallest
    panel as wide as the distance to the interface.
    """
    (vals,) = _PointLayers(f, points, collar=collar, near=near).composites(index, density)
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


def _bulk_velocity(B, G, mu):
    t1, t2 = _direct_velocity(B, G.g1, G.g2)
    mu4 = 4.0 * mu
    return np.stack([t1 / mu4, t2 / mu4 + float(np.mean(G.g2)) * LN4 / mu4], axis=-1)


def _bulk_pressure(B, G):
    (z1,), (z2,) = B(1, G.g1), B(2, G.g2)
    return -(z1 + z2) / 2.0


def _bulk_flow(f, G, params, pts, *, collar):
    """Velocity (P, 2) and pressure (P,) from one evaluator over the points."""
    B = _PointLayers(f, pts, collar=collar).composites
    return _bulk_velocity(B, G, params.mu), _bulk_pressure(B, G)


def velocity_field(f: InterfaceProfile, params: PhysParams, points, *,
                   collar: float | None = None, near: bool = False) -> np.ndarray:
    """Velocity at off-interface points, shape (P, 2)."""
    out = _bulk_velocity(_PointLayers(f, points, collar=collar, near=near).composites,
                         forcing_G(f, params), params.mu)
    return out if np.asarray(points).ndim > 1 else out[0]


def pressure_field(f: InterfaceProfile, params: PhysParams, points, *,
                   collar: float | None = None, near: bool = False):
    """Pressure at off-interface points."""
    q = _bulk_pressure(_PointLayers(f, points, collar=collar, near=near).composites,
                       forcing_G(f, params))
    return q if np.asarray(points).ndim > 1 else float(q[0])


def sample_flow(f: InterfaceProfile, params: PhysParams, points, *,
                collar: float | None = None) -> list[FieldSample]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v, q = _bulk_flow(f, forcing_G(f, params), params, pts, collar=collar)
    sides = side_of(f, pts)
    return [
        FieldSample((float(p[0]), float(p[1])), str(s), (float(vv[0]), float(vv[1])), float(qq))
        for p, s, vv, qq in zip(pts, sides, v, q)
    ]


def velocity_gradient_field(f: InterfaceProfile, params: PhysParams, points, *,
                            collar: float | None = None, near: bool = False) -> np.ndarray:
    """Velocity gradient (entry [i, j] = d_j v_i) at off-interface points,
    shape (P, 2, 2); assembled from the derivative layer combinations and
    trace-free by construction."""
    G = forcing_G(f, params)
    B = _PointLayers(f, points, collar=collar, near=near).composites
    z1_1, z1_2 = B(1, G.g1, G.g2)
    (z2_1,) = B(2, G.g1)
    z3_1, z3_2 = B(3, G.g1, G.g2)
    z4_1, z4_2 = B(4, G.g1, G.g2)
    mu4 = 4.0 * params.mu
    d1v1 = (z1_1 - 2.0 * z4_1 + z3_2) / mu4
    d2v1 = (2.0 * z2_1 + z3_1 - z1_2 + 2.0 * z4_2) / mu4
    d1v2 = (z3_1 + z1_2 + 2.0 * z4_2) / mu4
    out = np.stack([d1v1, d2v1, d1v2, -d1v1], axis=-1).reshape(-1, 2, 2)
    return out if np.asarray(points).ndim > 1 else out[0]


# ---------------------------------------------------------------------------
# interface traces
# ---------------------------------------------------------------------------

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

    ``direct-g`` integrates the forcing against composites 0, 5 and 6,
    ``parts-z`` an antiderivative of it by parts against composites 1..4:
    the two codings of ``evolution`` that ``eval_Psi`` combines.  They agree
    in the continuum; ``parts-z`` requires a mean-free profile so its
    vertical antiderivative is periodic.
    """
    B = DiagonalOps(f).composites
    if variant == "direct-g":
        G = forcing_G(f, params)
        return np.vstack(_direct_velocity(B, G.g1, G.g2)) / (4.0 * params.mu)
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
        return np.vstack(_parts_velocity(B, F1, F2, f.deriv_values)) / (4.0 * params.mu)
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
                          probe_count: int = 4,
                          eps_factors=(1e-2, 1e-3, 1e-4),
                          check_stress: bool = True) -> JumpReport:
    """Measure one-sided limits of the layer integrals against the trace
    composites plus their jump coefficients, the pressure jump against the
    normal forcing, and the viscous-stress jump against the tangential one.

    Off-interface values come from the graded Gauss-Legendre near rule (see
    ``eval_Z``) along the normal, at approach distances eps_factors * grid
    spacing; all approach points go through one evaluator.
    """
    grid = f.grid
    n = grid.n_points
    geo = geometry_quantities(f)
    G = forcing_G(f, params)
    dens = np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
    jumps = z_jump_coefficients(f)
    ops = DiagonalOps(f)
    traces = {idx: ops.composite(idx, dens) for idx in (1, 2, 3, 4)}

    probes = np.arange(0, n, max(1, n // probe_count))[:probe_count]
    eps_values = np.asarray(eps_factors, dtype=float) * grid.spacing
    sides = np.array([1.0, -1.0])
    base = np.stack([grid.nodes[probes], f.values[probes]], axis=-1)
    nu = geo.normal[:, probes].T
    # approach points indexed [eps, probe, side, coordinate]
    pts = base[:, None, :] + (eps_values[:, None, None, None] * sides[:, None]) * nu[:, None, :]

    # the pressure -(Z1[g1] + Z2[g2])/2 shares kernels 1 and 2 with the density
    B = _PointLayers(f, pts.reshape(-1, 2), near=True).composites
    (z1, q1), (z2, q2) = B(1, dens, G.g1), B(2, dens, G.g2)
    z = {1: z1, 2: z2, 3: B(3, dens)[0], 4: B(4, dens)[0]}

    z_res = {}
    for idx, vals in z.items():
        want = traces[idx][probes, None] + sides * (jumps[idx] * dens)[probes, None]
        z_res[idx] = np.max(np.abs(vals.reshape(pts.shape[:-1]) - want), axis=(1, 2))
    z_orders = {idx: _fit_order(eps_values, z_res[idx]) for idx in (1, 2, 3, 4)}

    # pressure jump [q] = -(G . nu)/omega via two-sided approach
    g_dot_nu = G.g1 * geo.normal[0] + G.g2 * geo.normal[1]
    q = (-(q1 + q2) / 2.0).reshape(pts.shape[:-1])
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
                        height: float = 20.0) -> dict:
    """Residuals of the velocity and pressure limits at x2 = +/- height,
    against the offsets +/-(c1_alt, c2_alt) of ``far_field_constants``;
    eight probes per height, both heights from one evaluator."""
    c = far_field_constants(f, params)
    x1 = 2.0 * np.pi * (np.arange(8) + 0.37) / 8
    signs = np.array([1.0, -1.0])
    pts = np.stack(np.broadcast_arrays(x1, signs[:, None] * height), axis=-1).reshape(-1, 2)
    v, q = _bulk_flow(f, forcing_G(f, params), params, pts, collar=None)
    out = {}
    for sign, name, v_side, q_side in zip(signs, ("plus", "minus"), v.reshape(2, 8, 2),
                                          q.reshape(2, 8)):
        out[name] = {
            "v1_residual": float(np.max(np.abs(v_side[:, 0] - sign * c.c1_alt))),
            "v2_residual": float(np.max(np.abs(v_side[:, 1]))),
            "q_residual": float(np.max(np.abs(q_side - sign * c.c2_alt))),
        }
    return out
