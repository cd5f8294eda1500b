"""Bulk velocity and pressure reconstruction off the interface.

The flow induced by the interface forcing is a single-layer potential
against the horizontally periodic Stokeslet.  Everything reduces to seven
scalar layer integrals Z_0 .. Z_6 with kernels smooth off the interface;
their one-sided interface limits reproduce the singular trace composites
plus explicit local jump terms.  Off the interface they are asked for as
on it (``operators._Plan``): an evaluation is recorded once a call, its
densities sampled once a call, and each block of points takes the products
of its rule, which the plan turns into sums (``operators._Plan.sums``) and
hands back by position (``operators._Replay``) in the call form
``composites(index, *densities)``, so the bulk velocity and the velocity
traces read the same layer-velocity coding of ``evolution``.

Every evaluator first routes its points in one pass (``_collar_search``)
over max(8N, 1024) uniform samples of f.  The points that clear the
interface strip [min f, max f] by the collar are outside it for certain.
There every layer kernel is a geometric series, so where one side holds
more such points than the series has terms (K + 1, about 0.67 N), they take
the trapezoid rule's sums as exact series (``layer_series``), with no table
over (point, node); fewer take the tables, which then cost less.  Only the
others go through the distance search on those samples, which finds the
points inside the collar.  These take the barycentric Cauchy rule
(``_Cauchy``): the layer sums of either side of the interface, read off its
traces and their jumps, the layer potentials' one-sided limits.  The
evaluator then works block by block (``_blocked``): each rule's points, in
input order, are split into runs holding at most ``core._EVAL_BLOCK``
(point, node) entries (``_point_blocks``), so that a block takes one rule,
and the blocks take turns in one working set, so memory is bounded by one
block for any number of points.  A block's outputs are scattered back to
the input order by the indices of its points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_EVAL_BLOCK, InterfaceProfile, PeriodicGrid, PhysParams, _samples,
                   geometry_quantities)
from .evolution import (_direct_velocity, _far_field_constants, _parts_velocity,
                        forcing_G, phi_of)
from .layer_series import _Series, _terms
from .operators import _LayerTables, _Plan, _recorded, _Replay, _swept

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
    and P = -(Z1, Z2)/(4 pi): Z0, and the planes of D = (Z1, Z2) and
    r2 D = (Z5, Z6).  Read from D = cot((x1 - i x2)/2), they admit every
    point off the source lattice (2*pi*Z, 0), x1 = pi and any height
    included.  Points within a few ulps of the lattice are source points
    (sin(pi k) rounds to 1e-16, not 0).
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    offset = np.abs((x1 + np.pi) % (2.0 * np.pi) - np.pi)
    if np.any((x2 == 0.0) & (offset <= 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x1)))):
        raise ValueError("Stokeslet evaluated at a source point")
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = _LayerTables.at(x1, x2)
    d = tables.part(1)[0]
    if not np.all(np.isfinite(d)):
        raise ValueError("Stokeslet evaluated at a source point")
    z0 = tables.part(0)[0].copy()       # the next table overwrites it
    r2d = tables.part(5)[0]
    U = np.array([[z0 + r2d[1], -r2d[0]], [-r2d[0], z0 - r2d[1]]]) / (8.0 * np.pi)
    return U, -d / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# the layer integrals Z_0 .. Z_6
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 512   # points per chunk of the distance search
_BOX = 64           # samples per box of the distance search


def _period_offset(x, s):
    """x - s folded into [-pi, pi), in the dense scan's operation order."""
    d = x - s
    d += np.pi
    d %= 2.0 * np.pi
    d -= np.pi
    return d


def _closest_samples(fs: np.ndarray, pts: np.ndarray):
    """The sample nearest each point (horizontal period folded in) among the
    uniform samples fs of ``_search_samples``: its distance and parameter.

    A box-pruned search that returns bitwise what the dense scan over all
    samples returns.  The samples are grouped in boxes of ``_BOX``, each with
    its parameter interval and its [min f, max f] range.  A point visits the
    boxes in order of a lower bound on its squared distance to them, and
    stops once the bound exceeds the best squared distance found.  The bound
    applies the scan's own expression to the box's end samples and range
    ends, so by monotone rounding it never exceeds the scan's value at a
    sample of the box; it is scaled by (1 - 1e-12) besides.  Ties go to the
    lower sample index, as ``argmin``'s do.  Points are searched in chunks of
    ``_SCAN_BLOCK``; a point's result does not depend on the others.
    """
    m = len(fs)
    s = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    # the last box is padded with copies of the last sample, which lose its
    # ties to it
    n_box = -(-m // _BOX)
    pad = np.minimum(np.arange(n_box * _BOX), m - 1).reshape(n_box, _BOX)
    s_box, f_box = s[pad], fs[pad]
    f_min, f_max = f_box.min(axis=1), f_box.max(axis=1)

    dist, nearest = np.empty(len(pts)), np.empty(len(pts))
    for start in range(0, len(pts), _SCAN_BLOCK):
        block = pts[start:start + _SCAN_BLOCK]
        x, y = block[:, 0:1], block[:, 1:2]
        # across a box the offset decreases but at one wrap (from -pi to pi),
        # so its smallest magnitude there is at an end sample, or zero between
        # ends of opposite sign; the height gap to the range is the least
        # |y - f| there
        a, b = _period_offset(x, s_box[:, 0]), _period_offset(x, s_box[:, -1])
        bound = np.where((a >= 0.0) & (b <= 0.0), 0.0, np.minimum(np.abs(a), np.abs(b)))
        bound *= bound
        gap = np.maximum(np.maximum(y - f_max, f_min - y), 0.0)
        bound += gap * gap
        bound *= 1.0 - 1e-12

        best, best_s = np.full(len(block), np.inf), np.zeros(len(block))
        active = np.arange(len(block))
        for _ in range(n_box):
            # each active point visits its nearest unvisited box, if any
            # box's bound is still within its best
            box = np.argmin(bound[active], axis=1)
            within = bound[active, box] <= best[active]
            active, box = active[within], box[within]
            if not len(active):
                break
            bound[active, box] = np.inf
            # the dense scan's squared distance, in its operation order
            d2 = _period_offset(x[active], s_box[box])
            d2 *= d2
            dy = y[active] - f_box[box]
            dy *= dy
            d2 += dy
            local = np.argmin(d2, axis=1)
            d2, near = d2[np.arange(len(active)), local], s_box[box, local]
            # s increases with the sample index, so ties go to the lower s
            better = (d2 < best[active]) | ((d2 == best[active]) & (near < best_s[active]))
            best[active[better]], best_s[active[better]] = d2[better], near[better]
        dist[start:start + len(block)] = np.sqrt(best)
        nearest[start:start + len(block)] = best_s
    return dist, nearest


def _search_samples(f: InterfaceProfile) -> np.ndarray:
    """The max(8N, 1024) uniform samples of f that the distance search reads."""
    return f.uniform_samples(max(8 * f.grid.n_points, 1024))


def _field_points(points) -> np.ndarray:
    """The points as a (P, 2) float array; points not finite raise ValueError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("field points must be finite")
    return pts


def min_interface_distance(f: InterfaceProfile, points) -> np.ndarray:
    """Distance from each point to the interface graph (horizontal period
    folded in), approximated by its nearest uniform sample (see
    ``_closest_samples``).  Points not finite raise ValueError."""
    return _closest_samples(_search_samples(f), _field_points(points))[0]


def default_collar(f: InterfaceProfile) -> float:
    return 10.0 * f.grid.spacing


def _trapezoid_nodes(f: InterfaceProfile) -> int:
    return max(f.grid.n_points, 256)


def _trapezoid_rule(f: InterfaceProfile, pts: np.ndarray, work: dict):
    """The periodic trapezoid rule on max(N, 256) nodes at points away from
    the interface: product(lead, v), the sum of the table of a lead of
    ``_PARTS`` over (point, node) against a density's samples v.  The nodes
    are uniform: f's samples are the ones it keeps, and ``_point_blocks``
    samples the densities by ``_samples``, their nodal values from N = 256
    up.  The tables u, r2 and the four planes of ``_LayerTables`` are
    written into the flat buffers of ``work``."""
    m = _trapezoid_nodes(f)
    s = 2.0 * np.pi * np.arange(m) / m
    shape = (len(pts), m)
    u = work["u"][:len(pts) * m].reshape(shape)
    planes = work["planes"][:4 * len(pts) * m].reshape((4,) + shape)
    # 2 e^{i r1/2} as an outer product of phases, no table of r1: the
    # product of its parts is 4 sin(r1/2) cos(r1/2), the square of its
    # imaginary part 4 sin^2(r1/2), each written over the part it replaces
    np.multiply.outer(2.0 * np.exp(0.5j * pts[:, 0]), np.exp(-0.5j * s), out=u)
    sc, ss = u.real, u.imag
    np.multiply(sc, ss, out=sc)
    np.square(ss, out=ss)
    r2 = np.subtract.outer(pts[:, 1], f.uniform_samples(m),
                           out=work["r2"][:len(pts) * m].reshape(shape))
    layer = _LayerTables(sc, ss, r2, planes)
    return lambda lead, v: layer.part(lead)[0] @ v / m


def _collar_search(f: InterfaceProfile, pts: np.ndarray, collar):
    """The routing pass: the strip side of each point (+1 above, -1 below,
    0 inside) and the mask of those inside the collar.  A point above or
    below clears, in x2, by at least the larger of the collar and the
    default collar, both the search samples and the trapezoid nodes: so it
    is outside the collar, as the search would find, and only the others
    are searched.  A collar <= 0 admits every point without a search, and
    the sides then serve the series alone: they are not found where no side
    can outnumber its K + 1 terms.  Points not finite raise ValueError."""
    pts = _field_points(pts)
    side, close = np.zeros(len(pts), np.int8), np.zeros(len(pts), bool)
    if collar <= 0 and len(pts) <= len(_terms(default_collar(f))):
        return side, close
    fs = _search_samples(f)
    heights = np.concatenate([fs, f.uniform_samples(_trapezoid_nodes(f))])
    gap = max(collar, default_collar(f))
    side[pts[:, 1] - np.max(heights) >= gap] = 1
    side[np.min(heights) - pts[:, 1] >= gap] = -1
    rest = side == 0
    if collar > 0 and np.any(rest):
        close[rest] = _closest_samples(fs, pts[rest])[0] < collar
    return side, close


def _fourier(values, power: int):
    """(d/dt)**power, power 1 or -1, of the rows of periodic samples by FFT,
    with the mean and the Nyquist mode dropped."""
    k = np.fft.fftfreq(values.shape[-1], 1.0 / values.shape[-1])
    k[len(k) // 2] = 0.0
    multiplier = np.zeros(len(k), complex)
    multiplier[k != 0] = (1j * k[k != 0]) ** power
    return np.fft.ifft(np.fft.fft(values) * multiplier)


class _Cauchy:
    """The barycentric Cauchy rule at the points of one call inside the
    collar, on the sides (+1 above, -1 below) that hold them, from boundary
    values on the m trapezoid nodes, where ``samples`` holds the densities.
    With eta = t + i f(t), C[psi](z) = (1/2 pi) int cot((z - eta)/2) psi dt
    is holomorphic on each side and, with C' = dC/dz and alpha z + G (G
    periodic) an antiderivative of C[psi],

        Z1 + i Z2 = conj C[psi]      Z5 + i Z6 = x2 conj C[psi] - conj C[f psi]
        2 Z3 + 4 i Z4 = conj(-2 (x2 C'[psi] - C'[f psi]))   Z0 = Re(alpha z + G).

    On side sg, C = conj(T1 + i T2 + sg (j1 + i j2) psi) on the interface,
    from composites 1 and 2 (one ``operators._swept`` a density, on f
    resampled at the nodes) and ``z_jump_coefficients``; C' = (dC/dt)/eta';
    G is the antiderivative of (C - alpha) eta', alpha = mean(C eta'), its
    real constant set by composite 0.  With zeta = e^{iz}, xi_j = e^{i eta_j}
    (scaled alike), a value g at a point is sum g_j w_j/(xi_j - zeta) / sum
    w_j/(xi_j - zeta), w_j = i xi_j eta'_j h above and i eta'_j h below,
    where the division by xi_j takes each sum's limit far below off it; on
    a node it is g_j.  Each density takes its own sweep and Cauchy product
    (columns 1, C[psi], C[f psi], C'[psi], C'[f psi], G): BLAS rounds a
    column by its neighbours, and its sums must not depend on the others."""

    def __init__(self, f: InterfaceProfile, m: int, samples, sides):
        fm = InterfaceProfile(PeriodicGrid(m), f.uniform_samples(m))
        jumps = z_jump_coefficients(fm)
        eta, eta_p = 2.0 * np.pi * np.arange(m) / m + 1j * fm.values, 1.0 + 1j * fm.deriv_values
        self.shift = 0.5 * (np.max(fm.values) + np.min(fm.values))
        self.xi = np.exp(1j * (eta - 1j * self.shift))
        weights = {1.0: self.xi * eta_p * (2j * np.pi / m), -1.0: eta_p * (2j * np.pi / m)}
        self.sides = {sg: [] for sg in sides}
        for psi in samples:
            dens = [psi, fm.values * psi]
            t0, t1, t2 = map(np.array, _swept(fm, lambda B: [B(0, psi), B(1, *dens), B(2, *dens)]))
            for sg, columns in self.sides.items():
                c = np.conj(t1 + 1j * t2 + sg * (jumps[1] + 1j * jumps[2]) * dens)
                alpha = np.mean(c[0] * eta_p)
                g = _fourier((c[0] - alpha) * eta_p, -1)
                g += np.mean(t0 - (alpha * eta).real - g.real)
                values = np.vstack([np.ones(m), c, _fourier(c, 1) / eta_p, g]).T
                columns.append((values, values * weights[sg][:, None], alpha))

    def rule(self, pts: np.ndarray, sg: float):
        """The rule (samples, product) of a block's points on side sg: a
        density's samples are its values there, by one product of their
        Cauchy matrix of two rows or more (one takes another BLAS path)."""
        x1, x2 = pts[:, 0], pts[:, 1]
        cauchy = np.zeros((max(2, len(pts)), len(self.xi)), complex)
        diff = np.subtract.outer(np.exp(1j * (x1 + 1j * (x2 - self.shift))), self.xi,
                                 out=cauchy[:len(pts)])
        point, node = np.nonzero(diff == 0.0)
        diff[point, node] = 1.0
        np.divide(-1.0, diff, out=diff)
        samples = []
        for values, weighted, alpha in self.sides[sg]:
            sums = (cauchy @ weighted)[:len(pts)]
            at = sums[:, 1:] / sums[:, :1]
            at[point] = values[node, 1:]
            samples.append((at.T, alpha))
        z = x1 + 1j * x2

        def product(lead, sample):
            (c, cf, dc, dcf, g), alpha = sample
            if lead == 0:
                return (alpha * z + g).real
            pair = (np.conj(c) if lead == 1 else np.conj(-2.0 * (x2 * dc - dcf)) if lead == 3
                    else x2 * np.conj(c) - np.conj(cf))
            return np.stack([pair.real, pair.imag])

        return samples, product


def _block_bounds(nodes) -> list:
    """The blocks of points with the given node counts, as slices: runs of
    consecutive points holding at most ``_EVAL_BLOCK`` (point, node)
    entries, or two points where those exceed it; one empty block for no
    points."""
    ends = np.concatenate([[0], np.cumsum(nodes)])
    bounds = [0]
    while bounds[-1] < len(nodes) or len(bounds) == 1:
        start = bounds[-1]
        stop = int(np.searchsorted(ends, ends[start] + _EVAL_BLOCK, side="right")) - 1
        bounds.append(min(max(stop, start + 2), len(nodes)))
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _point_blocks(f: InterfaceProfile, pts: np.ndarray, stack, *, collar=None, near=False):
    """The blocks of the points after one routing pass (``_collar_search``),
    each of one rule: (rows, samples, product), the input indices of its
    points, the samples of each density of the (k, N) ``stack`` and
    product(lead, samples[row]), the sum of a lead's table at its points.
    The points clear of the strip on a side take that side's series rule
    (``_Series``) if they outnumber its terms, those inside the collar the
    Cauchy rule (``_Cauchy``) of the side ``side_of`` gives them, and the
    others ``_trapezoid_rule``.  Each rule's points, a side's for the last
    two, in input order, are split by ``_block_bounds`` at max(N, 256) nodes
    a point.  An empty point set is one empty block of the trapezoid rule.

    The stack is sampled, and the series coefficients and the Cauchy rule's
    boundary values are built, once a call.  The trapezoid tables of every
    block are written into one working set, sized for the largest block,
    and the series powers into one buffer: fresh tables per block would
    fault their pages in anew.  So a block is valid only until the next
    block is drawn."""
    collar = default_collar(f) if collar is None else collar
    m, k = _trapezoid_nodes(f), _terms(default_collar(f))
    side, close = _collar_search(f, pts, collar)
    if np.any(close) and not near:
        raise ProximityError("field point within the interface collar; use the trace "
                             "formulas or near=True for an approach study")
    # a side's coefficients take (K + 1) m entries a density, the trapezoid
    # rule m a point: the series serves a side whose points outnumber its terms
    for sg in (1, -1):
        if np.count_nonzero(side == sg) <= len(k):
            side[side == sg] = 0
    above = np.zeros(len(pts), bool)
    above[close] = side_of(f, pts[close]) == SIDE_PLUS
    # each rule's blocks of points, at 4 bytes a point: the one table over
    # all the points that is held beside a block's tables
    blocks = {}
    for rule, mask in (("table", ~close & (side == 0)), (1.0, side == 1), (-1.0, side == -1),
                       (("near", 1.0), close & above), (("near", -1.0), close & ~above)):
        rows = np.flatnonzero(mask).astype(np.int32)
        if len(rows) or rule == "table" and not len(pts):
            blocks[rule] = [rows[b] for b in _block_bounds(np.full(len(rows), m))]
    del side, close, above, rows
    if blocks.keys() - {1.0, -1.0}:
        samples = _samples(stack, m)[0]
    if "table" in blocks:
        size = m * max(len(block) for block in blocks["table"])
        work = {"u": np.empty(size, complex), "r2": np.empty(size), "planes": np.empty(4 * size)}
        for block in blocks["table"]:
            yield block, samples, _trapezoid_rule(f, pts[block], work)
    series = [sg for sg in (1.0, -1.0) if sg in blocks]
    if series:
        most = max(len(block) for sg in series for block in blocks[sg])
        rule = _Series(f, m, k, series, most, stack)
        for sg in series:
            for block in blocks[sg]:
                yield block, *rule.rule(pts[block], sg)
    cauchy = [sg for sg in (1.0, -1.0) if ("near", sg) in blocks]
    if cauchy:
        rule = _Cauchy(f, m, samples, cauchy)
        for sg in cauchy:
            for block in blocks["near", sg]:
                yield block, *rule.rule(pts[block], sg)


def _blocked(f: InterfaceProfile, points, evaluate, *, collar=None, near=False) -> list:
    """The arrays over the points that ``evaluate(composites)`` returns,
    each assembled over the blocks of ``_point_blocks``.  Its requests are
    recorded and planned once a call (``operators._Plan``); each block
    takes one product per lead and row of the plan, which the plan turns
    into sums (``_Plan.sums``), and replays ``evaluate`` on them by
    position (``operators._Replay``).  A block's rule and products are
    dropped before the next block is drawn."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    plan = _Plan(_recorded(evaluate))
    outs = []
    for rows, samples, product in _point_blocks(f, pts, plan.stack(f.grid), collar=collar,
                                                near=near):
        sums = plan.sums({lead: [product(lead, samples[row]) for row in lead_rows]
                          for lead, lead_rows in plan.leads.items()})
        del samples, product
        parts = _Replay(sums).replay(evaluate)
        outs = outs or [np.empty((len(pts),) + np.shape(p)[1:]) for p in parts]
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


def eval_Z(index: int, f: InterfaceProfile, density, points, *,
           collar: float | None = None, near: bool = False):
    """Layer integrals at off-interface points by the periodic trapezoid rule
    on max(N, 256) nodes, in blocks of points (see ``_point_blocks``).  At
    points clear of the interface strip by the collar, where a side holds
    more of them than the series has terms, the rule's sums are taken as
    exact series (see ``layer_series``), which agree with its tables to
    roundoff.

    Points closer to the interface than the collar raise ProximityError
    unless ``near=True``, which gives those points the barycentric Cauchy
    rule (``_Cauchy``) of their side: the limit from that side for a point
    on the interface.
    """
    (vals,) = _blocked(f, points, lambda B: B(index, density), collar=collar, near=near)
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
    pts = _field_points(points)
    return np.where(pts[:, 1] > f.eval_at(pts[:, 0]), SIDE_PLUS, SIDE_MINUS)


def _bulk_velocity(B, G, mu):
    t1, t2 = _direct_velocity(B, G.g1, G.g2)
    return np.stack([t1, t2], axis=-1) / (4.0 * mu)


def _bulk_pressure(B, G):
    (z1,), (z2,) = B(1, G.g1), B(2, G.g2)
    return -(z1 + z2) / 2.0


def _bulk_gradient(B, G, mu):
    """Velocity gradient (entry [i, j] = d_j v_i), shape (P, 2, 2), from the
    derivative layer combinations; trace-free by construction."""
    z1_1, z1_2 = B(1, G.g1, G.g2)
    (z2_1,) = B(2, G.g1)
    z3_1, z3_2 = B(3, G.g1, G.g2)
    z4_1, z4_2 = B(4, G.g1, G.g2)
    mu4 = 4.0 * mu
    d1v1 = (z1_1 - 2.0 * z4_1 + z3_2) / mu4
    d2v1 = (2.0 * z2_1 + z3_1 - z1_2 + 2.0 * z4_2) / mu4
    d1v2 = (z3_1 + z1_2 + 2.0 * z4_2) / mu4
    return np.stack([d1v1, d2v1, d1v2, -d1v1], axis=-1).reshape(-1, 2, 2)


def _bulk_flow(f, G, params, pts, *, collar):
    """Velocity (P, 2) and pressure (P,) from one evaluation (``_blocked``)."""
    return _blocked(f, pts, lambda B: (_bulk_velocity(B, G, params.mu), _bulk_pressure(B, G)),
                    collar=collar)


def velocity_field(f: InterfaceProfile, params: PhysParams, points, *,
                   collar: float | None = None, near: bool = False) -> np.ndarray:
    """Velocity at off-interface points, shape (P, 2)."""
    G = forcing_G(f, params)
    (out,) = _blocked(f, points, lambda B: (_bulk_velocity(B, G, params.mu),),
                      collar=collar, near=near)
    return out if np.asarray(points).ndim > 1 else out[0]


def pressure_field(f: InterfaceProfile, params: PhysParams, points, *,
                   collar: float | None = None, near: bool = False):
    """Pressure at off-interface points."""
    G = forcing_G(f, params)
    (q,) = _blocked(f, points, lambda B: (_bulk_pressure(B, G),), collar=collar, near=near)
    return q if np.asarray(points).ndim > 1 else float(q[0])


def sample_flow(f: InterfaceProfile, params: PhysParams, points, *,
                collar: float | None = None) -> list[FieldSample]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v, q = _bulk_flow(f, forcing_G(f, params), params, pts, collar=collar)
    sides = side_of(f, pts)
    (x1, x2), (v1, v2) = pts.T.tolist(), v.T.tolist()
    return [FieldSample((a, b), s, (c, d), e)
            for a, b, s, c, d, e in zip(x1, x2, sides.tolist(), v1, v2, q.tolist())]


def velocity_gradient_field(f: InterfaceProfile, params: PhysParams, points, *,
                            collar: float | None = None, near: bool = False) -> np.ndarray:
    """Velocity gradient (entry [i, j] = d_j v_i) at off-interface points,
    shape (P, 2, 2); see ``_bulk_gradient``."""
    G = forcing_G(f, params)
    (out,) = _blocked(f, points, lambda B: (_bulk_gradient(B, G, params.mu),),
                      collar=collar, near=near)
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
    return _trace_velocities(f, params, (variant,))[0]


def _trace_velocities(f: InterfaceProfile, params: PhysParams, variants) -> list:
    """``trace_velocity`` of f for each of the variants, all their products
    taken in one sweep of the tables of f."""
    codings = [_trace_coding(f, params, variant) for variant in variants]
    return [np.vstack(parts) / (4.0 * params.mu)
            for parts in _swept(f, lambda B: [coding(B) for coding in codings])]


def _trace_coding(f: InterfaceProfile, params: PhysParams, variant: str):
    """evaluate(B) of one variant of ``trace_velocity``: its two components,
    times 4 mu, from the composites B."""
    if variant == "direct-g":
        G = forcing_G(f, params)
        return lambda B: _direct_velocity(B, G.g1, G.g2)
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
        return lambda B: _parts_velocity(B, F1, F2, f.deriv_values)
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
                          eps_factors=(1e-2, 1e-3, 1e-4)) -> JumpReport:
    """Measure one-sided limits of the layer integrals against the trace
    composites plus their jump coefficients, the pressure jump against the
    normal forcing, and the viscous-stress jump against the tangential one.

    Off-interface values come from the Cauchy rule of ``eval_Z``, which is
    built on these traces and jumps (so this checks them, not the rule),
    along the normal at approach distances eps_factors * grid spacing; all
    approach points go through one collar search and one evaluation."""
    eps_factors = np.asarray(eps_factors, dtype=float)
    if probe_count < 1 or eps_factors.ndim != 1 or not len(eps_factors) \
            or not np.all((0.0 < eps_factors) & (eps_factors < np.inf)):
        raise ValueError("need probe_count >= 1 and finite eps_factors > 0, at least one")
    grid = f.grid
    n = grid.n_points
    geo = geometry_quantities(f)
    G = forcing_G(f, params)
    dens = np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
    jumps = z_jump_coefficients(f)
    traces = dict(zip((1, 2, 3, 4),
                      _swept(f, lambda B: [B(idx, dens)[0] for idx in (1, 2, 3, 4)])))

    probes = np.arange(0, n, max(1, n // probe_count))[:probe_count]
    eps_values = eps_factors * grid.spacing
    sides = np.array([1.0, -1.0])
    base = np.stack([grid.nodes[probes], f.values[probes]], axis=-1)
    nu = geo.normal[:, probes].T
    # approach points indexed [eps, probe, side, coordinate]
    pts = base[:, None, :] + (eps_values[:, None, None, None] * sides[:, None]) * nu[:, None, :]

    # the pressure -(Z1[g1] + Z2[g2])/2 and the velocity gradient share
    # kernels 1..4 with the density; a block takes one product per table and density
    def evaluate(B):
        z = [B(idx, dens, G.g1, G.g2)[0] for idx in (1, 2, 3, 4)]
        return (*z, _bulk_pressure(B, G), _bulk_gradient(B, G, params.mu))

    *z, q, grads = _blocked(f, pts.reshape(-1, 2), evaluate, near=True)
    z = dict(zip((1, 2, 3, 4), z))

    z_res = {}
    for idx, vals in z.items():
        want = traces[idx][probes, None] + sides * (jumps[idx] * dens)[probes, None]
        z_res[idx] = np.max(np.abs(vals.reshape(pts.shape[:-1]) - want), axis=(1, 2))
    z_orders = {idx: _fit_order(eps_values, z_res[idx]) for idx in (1, 2, 3, 4)}

    # pressure jump [q] = -(G . nu)/omega via two-sided approach
    g_dot_nu = G.g1 * geo.normal[0] + G.g2 * geo.normal[1]
    q = q.reshape(pts.shape[:-1])
    want = -(g_dot_nu / geo.omega)[probes]
    q_res = np.max(np.abs((q[..., 0] - q[..., 1]) - want), axis=1)

    # stress jumps at the smallest eps: the viscous part against the
    # tangential forcing, the full traction against the curvature forcing
    grads = grads.reshape(pts.shape[:-1] + (2, 2))[-1]
    dgrad = grads[:, 0] - grads[:, 1]
    visc = params.mu * np.einsum("pij,pj->pi", dgrad + dgrad.transpose(0, 2, 1), nu)
    g_dot_tau = G.g1 * geo.tangent[0] + G.g2 * geo.tangent[1]
    want_t = (g_dot_tau / geo.omega)[probes, None] * geo.tangent[:, probes].T
    stress_t = float(np.max(np.abs(visc - want_t)))
    traction = -(q[-1, :, 0] - q[-1, :, 1])[:, None] * nu + visc
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
    eight probes per height, both heights from one evaluation."""
    return _far_field_residuals(f, params, forcing_G(f, params), height)


def _far_field_residuals(f, params, G, height: float = 20.0) -> dict:
    """``far_field_residuals`` with the forcing G of (f, params) given."""
    if not 0.0 < height < np.inf:
        raise ValueError(f"far-field height must be finite and positive, got {height}")
    c = _far_field_constants(f, params, G)
    x1 = 2.0 * np.pi * (np.arange(8) + 0.37) / 8
    signs = np.array([1.0, -1.0])
    pts = np.stack(np.broadcast_arrays(x1, signs[:, None] * height), axis=-1).reshape(-1, 2)
    v, q = _bulk_flow(f, G, params, pts, collar=None)
    out = {}
    for sign, name, v_side, q_side in zip(signs, ("plus", "minus"), v.reshape(2, 8, 2),
                                          q.reshape(2, 8)):
        out[name] = {
            "v1_residual": float(np.max(np.abs(v_side[:, 0] - sign * c.c1_alt))),
            "v2_residual": float(np.max(np.abs(v_side[:, 1]))),
            "q_residual": float(np.max(np.abs(q_side - sign * c.c2_alt))),
        }
    return out
