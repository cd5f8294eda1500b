"""Helpers shared by the test modules: a random band-limited density and
the named composites' expansions into tangent-family members."""

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
