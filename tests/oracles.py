"""Helpers shared by the test modules: a random band-limited density, the
named composites' expansions into tangent-family members, a real-variable
coding of the layer kernels and the dense nearest-sample scan."""

import numpy as np


def band_limited(grid, seed, modes=None, amplitude=0.5):
    rng = np.random.default_rng(seed)
    modes = modes or grid.n_points // 4
    v = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        v += amplitude / (1 + k) * (rng.normal() * np.cos(k * grid.nodes)
                                    + rng.normal() * np.sin(k * grid.nodes))
    return v


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
