"""Helpers shared by the test modules: a random band-limited density, the
slot-by-slot kernel assembly of the generic operator families and of the
Fréchet maps (each term an ``eval_B_loop`` member with the directions in
extra difference slots), the named composites' expansions into
tangent-family members, a real-variable coding of the layer kernels, the
dense nearest-sample scan and the dense trapezoid rule off the interface."""

import numpy as np

from stokes2p import InterfaceProfile, OperatorSpec
from stokes2p.core import _samples
from stokes2p.operators import KernelWorkspace, _LayerTables, _density_values, _resolve_grid


def band_limited(grid, seed, modes=None, amplitude=0.5):
    rng = np.random.default_rng(seed)
    modes = modes or grid.n_points // 4
    v = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        v += amplitude / (1 + k) * (rng.normal() * np.cos(k * grid.nodes)
                                    + rng.normal() * np.sin(k * grid.nodes))
    return v


# ---------------------------------------------------------------------------
# the generic operator families, slot by slot: every slot builds its own
# quotient and every step allocates a new table
# ---------------------------------------------------------------------------

def tangent_kernel_loop(ws, deltas_a, deltas_b, deltas_c, p):
    t = ws.tan_half
    num = 1.0
    for db in deltas_b:
        num = num * (np.tanh(db / 2.0) / t)
    for dc in deltas_c:
        num = num * ((dc / 2.0) / t)
    den = 1.0
    for da in deltas_a:
        den = den * (1.0 + (np.tanh(da / 2.0) / t) ** 2)
    shape = (ws.grid.n_points, len(ws.nodes))
    return np.broadcast_to(num / den, shape) / (2.0 * np.pi) * t ** (p - 1)


def difference_kernel_loop(ws, deltas_a, deltas_b):
    s = ws.nodes
    num = 1.0
    for db in deltas_b:
        num = num * (db / s)
    den = 1.0
    for da in deltas_a:
        den = den * (1.0 + (da / s) ** 2)
    shape = (ws.grid.n_points, len(ws.nodes))
    return np.broadcast_to(num / den, shape) / (np.pi * s)


def regularized_kernel_loop(ws, deltas_a, deltas_b, deltas_c, ell):
    return (tangent_kernel_loop(ws, deltas_a, deltas_b, deltas_c, 1 - ell)
            - difference_kernel_loop(ws, deltas_a, deltas_b + deltas_c)
            * (2.0 / ws.nodes) ** (ell - 1))


def contract_loop(ws, kernel, density_values):
    return (kernel * ws.sample(density_values)) @ ws.weights


def apply_loop(spec, density, build, rule="midpoint", m_quad=None):
    """A generic operator by the loop kernels: one difference table per slot
    and ``build(ws, deltas_a, deltas_b, deltas_c)`` as the kernel."""
    grid = _resolve_grid(spec, density)
    ws = KernelWorkspace(grid, rule, m_quad)
    da, db, dc = ([ws.delta(pr.values) for pr in args]
                  for args in (spec.args_a, spec.args_b, spec.args_c))
    return contract_loop(ws, build(ws, da, db, dc), _density_values(density, grid))


def eval_B_loop(spec, density, m_quad=None):
    return apply_loop(spec, density,
                      lambda ws, da, db, dc: tangent_kernel_loop(ws, da, db, dc, spec.p),
                      m_quad=m_quad)


def eval_C_loop(spec, density, rule="midpoint", m_quad=None):
    return apply_loop(spec, density,
                      lambda ws, da, db, dc: difference_kernel_loop(ws, da, db), rule, m_quad)


def eval_A_loop(spec, ell, density, rule="midpoint", m_quad=None):
    return apply_loop(spec, density,
                      lambda ws, da, db, dc: regularized_kernel_loop(ws, da, db, dc, ell),
                      rule, m_quad)


def member_spec(f, n, m, p, q, *directions):
    """The member (n, m, p, q) diagonal in f, with the directions (nodal
    values) in extra difference slots after its q slots of f."""
    extras = tuple(InterfaceProfile(f.grid, d) for d in directions)
    return OperatorSpec(n, m, p, q + len(extras), (f,) * m, (f,) * n, (f,) * q + extras)


def member_sum_loop(f0, terms, directions, density):
    """sum of coef * ``eval_B_loop`` of the member (n, m, p, q) of f0 with the
    directions in extra difference slots, in the order of ``terms``."""
    out = np.zeros(f0.grid.n_points)
    for coef, member in terms:
        out += coef * eval_B_loop(member_spec(f0, *member, *directions), density)
    return out


def frechet_B_loop(f0, nmpq, direction, density_values, directions=()):
    """``frechet_B(nmpq, f0, direction, directions=directions)(density)`` by
    the loop members, in the map's order of terms."""
    n, m, p, q = nmpq
    terms = []
    if n:
        terms += [(n, (n - 1, m, p, q)), (-n, (n + 1, m, p + 2, q))]
    if m:
        terms += [(2 * m, (n + 3, m + 1, p + 2, q)), (-2 * m, (n + 1, m + 1, p, q))]
    if q:
        terms += [(q, (n, m, p, q - 1))]
    return member_sum_loop(f0, terms, tuple(directions) + (direction,), density_values)


def frechet_B0_loop(f0, direction, density_values):
    return member_sum_loop(f0, [(2.0, (1, 1, 1, 0)), (2.0, (1, 1, 3, 0))], (direction,),
                           density_values)


# the named composites as signed sums of diagonal tangent-family members:
# index -> ((coefficient, (n, m, p, q)), ...)
COMPOSITE_MEMBERS = {
    1: ((1, (0, 1, 0, 0)), (-1, (2, 1, 2, 0))),
    2: ((1, (1, 1, 0, 0)), (1, (1, 1, 2, 0))),
    3: ((1, (0, 2, 0, 1)), (1, (0, 2, 2, 1)), (-1, (2, 2, 0, 1)),
        (-2, (2, 2, 2, 1)), (-1, (2, 2, 4, 1)), (1, (4, 2, 2, 1)),
        (1, (4, 2, 4, 1))),
    4: ((1, (1, 2, 0, 1)), (1, (1, 2, 2, 1)), (-1, (3, 2, 2, 1)),
        (-1, (3, 2, 4, 1))),
    5: ((2, (0, 1, 1, 1)), (-2, (2, 1, 3, 1))),
    6: ((2, (1, 1, 1, 1)), (2, (1, 1, 3, 1))),
}


def layer_kernels_real(r1, r2):
    """Reference coding of the layer kernels Z0..Z6 and the log remainder in
    real half-angle variables: s1, c1 = sin(r1/2), cos(r1/2), s2, c2 =
    sinh(r2/2), cosh(r2/2) and D = s1^2 + s2^2.  Finite while sinh(r2/2)^2
    is, that is for |r2| below about 700.  Returns (Z0, ..., Z6, remainder)."""
    r1, r2 = np.broadcast_arrays(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
    s1, c1 = np.sin(r1 / 2.0), np.cos(r1 / 2.0)
    s2, c2 = np.sinh(r2 / 2.0), np.cosh(r2 / 2.0)
    d = s1 * s1 + s2 * s2
    z1, z2 = s1 * c1 / d, s2 * c2 / d
    z3 = (r2 / 2.0) * (s1 * s1 * c2 * c2 - s2 * s2 * c1 * c1) / d / d
    z5 = r2 * z1
    return (np.log(d), z1, z2, z3, z5 * z2 / 2.0, z5, r2 * z2,
            np.log1p(s2 * s2 / (s1 * s1)))


def dense_closest_samples(s, fs, pts, block=128):
    """Reference nearest-sample search: the distance from each point to the
    nearest of the samples (s, fs), horizontal period folded in, and that
    sample's parameter, by a dense scan over all samples; ties go to the
    lower sample index.  Points are scanned in blocks, so the (block,
    samples) tables stay small."""
    dist, nearest = np.empty(len(pts)), np.empty(len(pts))
    for start in range(0, len(pts), block):
        chunk = pts[start:start + block]
        d2 = chunk[:, 0:1] - s[None, :]
        d2 += np.pi
        d2 %= 2.0 * np.pi
        d2 -= np.pi
        d2 *= d2
        dy = chunk[:, 1:2] - fs[None, :]
        dy *= dy
        d2 += dy
        j = np.argmin(d2, axis=1)
        dist[start:start + len(chunk)] = np.sqrt(d2[np.arange(len(chunk)), j])
        nearest[start:start + len(chunk)] = s[j]
    return dist, nearest


def trapezoid_layers(f, pts):
    """Reference far rule: B(index, *densities) -> [Z_index of each density]
    at the points, by the periodic trapezoid rule on max(N, 256) uniform
    nodes over one dense (point, node) table of ``_LayerTables.at``.  Each
    call builds its own table, so the (points, nodes) tables stay few."""
    m = max(f.grid.n_points, 256)
    s = 2.0 * np.pi * np.arange(m) / m
    r1 = np.subtract.outer(pts[:, 0], s)
    r2 = np.subtract.outer(pts[:, 1], _samples(f.values, m)[0])

    def B(index, *densities):
        table, take, factor = _LayerTables.at(r1, r2).part(index)
        return [factor * take(table @ _samples(np.asarray(d, dtype=float), m)[0] / m)
                for d in densities]

    return B
