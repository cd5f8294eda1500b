import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from stokes2p import (
    DiagonalOps,
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    ProximityError,
    eval_Z,
    far_field_residuals,
    interface_jump_checks,
    pressure_field,
    sample_flow,
    stokeslet_eval,
    trace_velocity,
    velocity_field,
    velocity_gradient_field,
)
from stokes2p import core, evolution, fields
from stokes2p.operators import _row_blocks
from stokes2p.fields import (
    antiderivative,
    default_collar,
    min_interface_distance,
    z_jump_coefficients,
)
from oracles import band_limited, dense_closest_samples


# ---------------------------------------------------------------------------
# independent codings of the periodic Stokeslet, cross-checks only
# ---------------------------------------------------------------------------

def green_function(x1, x2):
    """Fundamental solution of the periodic Laplacian."""
    return -np.log(np.sin(x1 / 2.0) ** 2 + np.sinh(x2 / 2.0) ** 2) / (4.0 * np.pi)


def green_gradient(x1, x2):
    d = np.sin(x1 / 2.0) ** 2 + np.sinh(x2 / 2.0) ** 2
    return (-np.sin(x1) / (8.0 * np.pi * d), -np.sinh(x2) / (8.0 * np.pi * d))


def stokeslet_eval_halfangle(x1, x2):
    """Literal half-angle (tan/tanh) form of the Stokeslet, undefined where
    tan(x1/2) blows up."""
    t = np.tan(x1 / 2.0)
    T = np.tanh(x2 / 2.0)
    D = t * t + T * T
    log_term = np.log(D / ((1.0 + t * t) * (1.0 - T * T)))
    m_diag = (1.0 + t * t) * T / D
    m_off = t * (1.0 - T * T) / D
    c = 1.0 / (8.0 * np.pi)
    U = np.array([
        [c * (log_term + x2 * m_diag), c * (-x2 * m_off)],
        [c * (-x2 * m_off), c * (log_term - x2 * m_diag)],
    ])
    P = np.array([-m_off / (4.0 * np.pi), -m_diag / (4.0 * np.pi)])
    return U, P


def stokeslet_from_green(x1, x2):
    """Stokeslet assembled from the Laplace fundamental solution and its
    gradient."""
    g = green_function(x1, x2)
    g1, g2 = green_gradient(x1, x2)
    c = -0.5
    U = np.array([
        [c * (g + x2 * g2), c * (-x2 * g1)],
        [c * (-x2 * g1), c * (g - x2 * g2)],
    ])
    P = np.array([g1, g2])
    return U, P


@pytest.fixture(scope="module")
def setup():
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    return grid, f, params


@pytest.fixture
def kernel_builds(monkeypatch):
    """(tables, lead) of each table built into a pair slot while the test
    runs: lead 0 the log table, 3 the (3, 4) table, 5 the (5, 6) table."""
    from stokes2p import operators

    built = []
    build = operators._LayerTables._build
    monkeypatch.setattr(operators._LayerTables, "_build",
                        lambda self, lead: built.append((self, lead)) or build(self, lead))
    return built


@pytest.fixture
def table_products(monkeypatch):
    """The lead of each product of a table with a density's samples taken
    while the test runs: each product reads its table's part once."""
    from stokes2p import operators

    taken = []
    part = operators._LayerTables.part
    monkeypatch.setattr(operators._LayerTables, "part",
                        lambda self, lead: taken.append(lead) or part(self, lead))
    return taken


def builds_per_table(built):
    """The leads built on each set of tables, in order of first build."""
    tables = list(dict.fromkeys(table for table, _ in built))
    return [sorted(i for table, i in built if table is t) for t in tables]


# points inside the strip of the setup profile (|f| <= 0.26) and outside its
# collar (0.49): the ones that take the trapezoid rule, which builds tables
STRIP_POINTS = np.array([[3.3, 0.7], [0.3, -0.7], [3.6, 0.72]])


class TestStokeslet:
    def test_symmetry_of_tensor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x1, x2 = rng.uniform(0.1, 6.0), rng.uniform(-3, 3) + 0.05
            U, _ = stokeslet_eval(x1, x2)
            assert U[0, 1] == U[1, 0]

    def test_even_under_point_reflection(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1, x2 = rng.uniform(0.1, 3.0), rng.uniform(0.05, 3.0)
            U, P = stokeslet_eval(x1, x2)
            Um, Pm = stokeslet_eval(-x1, -x2)
            assert np.max(np.abs(U - Um)) < 1e-12
            assert np.max(np.abs(P + Pm)) < 1e-12   # pressure vector is odd

    def test_periodic_in_x1(self):
        U, P = stokeslet_eval(0.7, 1.3)
        U2, P2 = stokeslet_eval(0.7 + 2 * np.pi, 1.3)
        assert np.max(np.abs(U - U2)) < 1e-12
        assert np.max(np.abs(P - P2)) < 1e-12

    def test_limit_point_on_lattice_line(self):
        # x = (pi, 0): tan blows up but the tensor is finite; off-diagonals
        # and the pressure vanish there by symmetry
        U, P = stokeslet_eval(np.pi, 0.0)
        assert np.isfinite(U).all()
        assert abs(U[0, 1]) < 1e-15
        assert np.max(np.abs(P)) < 1e-15

    def test_three_forms_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x1 = rng.uniform(-2.9, 2.9)
            x2 = rng.uniform(-3.0, 3.0)
            if np.hypot(x1, x2) < 0.05:
                continue
            U, P = stokeslet_eval(x1, x2)
            Ug, Pg = stokeslet_from_green(x1, x2)
            assert np.max(np.abs(U - Ug)) < 1e-12
            assert np.max(np.abs(P - Pg)) < 1e-12
            if abs(abs(x1) - np.pi) > 0.1:
                Uh, Ph = stokeslet_eval_halfangle(x1, x2)
                assert np.max(np.abs(U - Uh)) < 1e-12
                assert np.max(np.abs(P - Ph)) < 1e-12

    def test_source_point_rejected(self):
        with pytest.raises(ValueError):
            stokeslet_eval(0.0, 0.0)

    @pytest.mark.parametrize("k", [1, -1, 2, 3])
    def test_periodic_source_images_rejected(self, k):
        # at x1 = 2 pi k the rounded sin(x1/2) is about 1e-16, not 0
        with pytest.raises(ValueError):
            stokeslet_eval(2.0 * np.pi * k, 0.0)
        with pytest.raises(ValueError):
            stokeslet_eval(np.array([0.5, 2.0 * np.pi * k]), np.zeros(2))

    @pytest.mark.parametrize("x1", [np.pi, 1e-6, 2.0 * np.pi + 1e-6])
    def test_points_beside_the_source_lattice_evaluate(self, x1):
        U, P = stokeslet_eval(x1, 0.0)
        assert np.isfinite(U).all() and np.isfinite(P).all()

    def test_beside_an_image_as_beside_the_source(self):
        # 1e-6 from the image at 2 pi is 1e-6 from the source, up to the
        # rounding of 2 pi + 1e-6
        U, P = stokeslet_eval(2.0 * np.pi + 1e-6, 0.0)
        U0, P0 = stokeslet_eval(1e-6, 0.0)
        assert np.max(np.abs(U - U0)) < 1e-8 * np.max(np.abs(U0))
        assert np.max(np.abs(P - P0)) < 1e-8 * np.max(np.abs(P0))

    def test_array_points_evaluate(self):
        x1 = np.array([np.pi, 1e-6, 2.0 * np.pi + 1e-6, 0.0, 2.0 * np.pi])
        x2 = np.array([0.0, 0.0, 0.0, 0.3, -0.3])
        U, P = stokeslet_eval(x1, x2)
        assert U.shape == (2, 2, 5) and P.shape == (2, 5)
        for i in range(5):
            Ui, Pi = stokeslet_eval(x1[i], x2[i])
            assert np.array_equal(U[..., i], Ui) and np.array_equal(P[..., i], Pi)

    @pytest.mark.parametrize("x2", [800.0, -800.0, 1e4, -1e4])
    def test_finite_far_from_interface(self, x2):
        # sinh(x2/2)^2 overflows beyond |x2| of about 710; the kernels must
        # not, and the pressure tends to -sign(x2)/(4 pi) e_2
        U, P = stokeslet_eval(0.3, x2)
        assert np.isfinite(U).all() and np.isfinite(P).all()
        assert abs(P[0]) < 1e-15
        assert abs(P[1] + np.sign(x2) / (4.0 * np.pi)) < 1e-15

    def test_satisfies_stokes_system(self):
        # mu Delta U^k - grad P^k = 0 and div U^k = 0 off the lattice,
        # via fourth-order finite differences
        h = 1e-3
        c1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
        off1 = np.array([-2 * h, -h, h, 2 * h])
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        off2 = np.array([-2 * h, -h, 0.0, h, 2 * h])
        rng = np.random.default_rng(3)
        for _ in range(10):
            x1, x2 = rng.uniform(0.5, 5.8), rng.uniform(0.3, 2.0)

            def tensors(a, b):
                return stokeslet_eval(a, b)

            lap_U = sum(w * tensors(x1 + o, x2)[0] for w, o in zip(c2, off2)) \
                + sum(w * tensors(x1, x2 + o)[0] for w, o in zip(c2, off2))
            dP1 = sum(w * tensors(x1 + o, x2)[1] for w, o in zip(c1, off1))
            dP2 = sum(w * tensors(x1, x2 + o)[1] for w, o in zip(c1, off1))
            dU1 = sum(w * tensors(x1 + o, x2)[0] for w, o in zip(c1, off1))
            dU2 = sum(w * tensors(x1, x2 + o)[0] for w, o in zip(c1, off1))
            # momentum: columns of U against components of P
            resid = lap_U - np.vstack([dP1, dP2]).T
            assert np.max(np.abs(resid)) < 1e-6
            div = dU1[0, :] + dU2[1, :]
            assert np.max(np.abs(div)) < 1e-6


class TestLayerIntegrals:
    def test_zero_density(self, setup):
        grid, f, params = setup
        pts = np.array([[0.3, 2.0], [1.0, -2.5]])
        for idx in range(7):
            assert np.max(np.abs(eval_Z(idx, f, np.zeros(grid.n_points), pts))) < 1e-15

    def test_flat_unit_density_against_direct_quadrature(self):
        grid = PeriodicGrid(64)
        zero = InterfaceProfile.zero(grid)
        a = 1.2

        def kernel(s):
            t, T = np.tan((0.0 - s) / 2), np.tanh(a / 2)
            return T * (1 + t * t) / (t * t + T * T) / (2 * np.pi)

        want, _ = quad(kernel, -np.pi, np.pi, limit=200, epsabs=1e-12)
        got = eval_Z(2, zero, np.ones(grid.n_points), [0.0, a])
        assert abs(got - want) < 1e-10

    def test_gradient_of_log_layer(self, setup):
        # grad Z0 = (Z1, Z2), checked by central differences
        grid, f, params = setup
        dens = np.cos(grid.nodes) + 0.2 * np.sin(3 * grid.nodes)
        p = np.array([1.1, 1.7])
        h = 1e-5
        d1 = (eval_Z(0, f, dens, p + [h, 0]) - eval_Z(0, f, dens, p - [h, 0])) / (2 * h)
        d2 = (eval_Z(0, f, dens, p + [0, h]) - eval_Z(0, f, dens, p - [0, h])) / (2 * h)
        z1 = eval_Z(1, f, dens, p)
        z2 = eval_Z(2, f, dens, p)
        assert abs(d1 - z1) < 1e-6 * max(1, abs(z1))
        assert abs(d2 - z2) < 1e-6 * max(1, abs(z2))

    def test_gradients_of_moment_layers(self, setup):
        # grad Z5 = (-Z3, Z1 - 2 Z4) and grad Z6 = (-2 Z4, Z2 + Z3)
        grid, f, params = setup
        dens = np.cos(grid.nodes)
        p = np.array([2.0, -1.6])
        h = 1e-5

        def fd(idx, axis):
            e = np.array([h, 0.0]) if axis == 0 else np.array([0.0, h])
            return (eval_Z(idx, f, dens, p + e) - eval_Z(idx, f, dens, p - e)) / (2 * h)

        z = {i: eval_Z(i, f, dens, p) for i in (1, 2, 3, 4)}
        assert abs(fd(5, 0) + z[3]) < 1e-6
        assert abs(fd(5, 1) - (z[1] - 2 * z[4])) < 1e-6
        assert abs(fd(6, 0) + 2 * z[4]) < 1e-6
        assert abs(fd(6, 1) - (z[2] + z[3])) < 1e-6

    def test_proximity_refused(self, setup):
        grid, f, params = setup
        close = np.array([[0.0, f.values[0] + 0.5 * default_collar(f)]])
        with pytest.raises(ProximityError):
            eval_Z(1, f, np.cos(grid.nodes), close)

    def test_near_evaluation_takes_only_collar_points(self, setup, monkeypatch):
        grid, f, params = setup
        dens = np.cos(grid.nodes)
        far = np.array([[0.3, 2.0], [1.0, -2.5], [4.0, 1.1]])
        close = np.array([[0.0, f.values[0] + 0.5 * default_collar(f)]])
        seen = []
        original = fields._Cauchy.rule

        def spy(self, pts, sg):
            seen.append(np.array(pts))
            return original(self, pts, sg)

        monkeypatch.setattr(fields._Cauchy, "rule", spy)
        mixed = eval_Z(1, f, dens, np.vstack([far[:2], close, far[2:]]), near=True)
        assert len(seen) == 1 and np.array_equal(seen[0], close)
        assert np.array_equal(mixed[[0, 1, 3]], eval_Z(1, f, dens, far, near=True))

    def test_strip_points_take_the_trapezoid_rule(self, setup):
        grid, f, params = setup
        collar = default_collar(f)
        side, close = fields._collar_search(f, STRIP_POINTS, collar)
        assert np.all(side == 0) and not np.any(close)
        assert np.all(min_interface_distance(f, STRIP_POINTS) >= collar)

    def test_sample_flow_builds_each_kernel_once(self, setup, kernel_builds):
        grid, f, params = setup
        # Z1 and Z2 of the pressure are the parts of D
        sample_flow(f, params, STRIP_POINTS)
        assert builds_per_table(kernel_builds) == [[0, 5]]

    def test_gradient_builds_each_kernel_once_per_rule(self, setup, kernel_builds):
        # far and near points: one trapezoid table; the near points build no
        # table off the interface, only the log table of each density's
        # trace sweep on 256 nodes, once a row block
        grid, f, params = setup
        pts = np.array([STRIP_POINTS[0], [0.0, f.values[0] + 0.5 * default_collar(f)],
                        [2.5, f.eval_at(2.5) - 0.2 * default_collar(f)], STRIP_POINTS[1]])
        velocity_gradient_field(f, params, pts, near=True)
        assert builds_per_table(kernel_builds) == [[3]] + [[0]] * 2 * _row_blocks(256)

    def test_sample_flow_takes_each_product_once(self, setup, table_products):
        # Z5 and Z6 of the velocity are the parts of one product per
        # density, and Z1 and Z2 of the pressure read lead 1 for g1 and g2
        grid, f, params = setup
        sample_flow(f, params, STRIP_POINTS)
        assert sorted(table_products) == [0, 0, 1, 1, 5, 5]

    def test_gradient_takes_each_product_once_per_rule(self, setup, table_products):
        # Z1/Z2 and Z3/Z4 share their products; the far points take theirs
        # on their own tables, and the near points none: their values come
        # from each density's trace sweep, which reads the log table and D
        # once a row block
        grid, f, params = setup
        far = STRIP_POINTS[:2]
        velocity_gradient_field(f, params, far)
        assert sorted(table_products) == [1, 1, 3, 3]
        table_products.clear()
        close = [[0.0, f.values[0] + 0.5 * default_collar(f)]]
        velocity_gradient_field(f, params, np.vstack([far, close]), near=True)
        sweeps = [0, 1] * 2 * _row_blocks(256)
        assert sorted(table_products) == sorted([1, 1, 3, 3] + sweeps)

    def test_trapezoid_tables_peak_bounded(self):
        # a block's tables over (point, node) are r2 (8 bytes an entry), the
        # four planes of D and the pair (32) and the phases u (16): no table
        # of r1 is held while they are allocated, no build adds a full table,
        # and the blocks of a call take turns in one working set of that
        # size.  On top of it numpy's iterator buffers the broadcast outer products
        # (two operands of 8192 complex entries), so far above one block the
        # peak is one block's for any number of points; what grows with
        # them is the output, 8 bytes a point
        grid = PeriodicGrid(256)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
        dens = np.cos(grid.nodes)
        rng = np.random.default_rng(3)
        peaks = []
        for count in (1000, 1000, 8000):
            pts = np.column_stack([rng.uniform(0.0, 6.0, count), rng.uniform(1.0, 3.0, count)])
            tracemalloc.start()
            try:
                for index in range(7):
                    eval_Z(index, f, dens, pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks = peaks[1:]       # the first run takes numpy's first-use allocations
        assert max(peaks) <= 56 * fields._EVAL_BLOCK + 2 * 8192 * 16 + 2**17
        assert peaks[1] <= 1.1 * peaks[0]

    def test_near_points_scanned_once_for_all_kernels(self, setup, monkeypatch):
        # seven (index, density) pairs of the gradient share one search, the
        # collar check; it takes the points inside the strip, near or not,
        # and none clear of it
        grid, f, params = setup
        far = np.array([[0.3, 2.0], [4.0, -1.1], STRIP_POINTS[0]])
        close = np.array([[0.0, f.values[0] + 0.5 * default_collar(f)],
                          [2.5, f.eval_at(2.5) - 0.2 * default_collar(f)]])
        pts = np.vstack([far[:1], close, far[1:]])
        scans = []
        original = fields._closest_samples

        def spy(fs, p):
            scans.append(np.array(p))
            return original(fs, p)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        grad = velocity_gradient_field(f, params, pts, near=True)
        assert len(scans) == 1 and np.array_equal(scans[0], pts[[1, 2, 4]])
        assert np.array_equal(grad[[0, 3, 4]], velocity_gradient_field(f, params, far))

    def test_min_distance(self, setup):
        grid, f, params = setup
        d = min_interface_distance(f, np.array([[0.0, f.values[0] + 1.0]]))
        assert d[0] == pytest.approx(1.0, abs=0.05)

    def test_blocked_scan_matches_point_by_point(self, setup):
        # the scan runs in blocks of points; each point's nearest sample and
        # distance must not depend on the block it falls in
        grid, f, params = setup
        rng = np.random.default_rng(4)
        n = 2 * fields._SCAN_BLOCK + 7
        pts = np.column_stack([rng.uniform(-1.0, 7.0, n), rng.uniform(-2.0, 2.0, n)])
        dist, nearest = closest_samples(f, pts)
        for i in (0, fields._SCAN_BLOCK - 1, fields._SCAN_BLOCK, n - 1):
            d1, s1 = closest_samples(f, pts[i:i + 1])
            assert d1[0] == dist[i] and s1[0] == nearest[i]
        assert np.array_equal(min_interface_distance(f, pts), dist)


class TestPointBlocks:
    """The evaluators under a block budget of three far points' entries,
    against one block per call: each output to 1e-14 relative, and bitwise
    from one rerun to the next."""

    BUDGET = 3 * 256    # the trapezoid rule takes 256 nodes at N = 128

    @pytest.fixture
    def points(self, setup):
        """16 far points, and 13 points with every third one in the collar,
        above and below the interface in turn."""
        grid, f, params = setup
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 2.0 * np.pi, 16)
        side = np.where(np.arange(16) % 2, 1.0, -1.0)
        far = np.column_stack([x, f.eval_at(x) + side * rng.uniform(1.0, 2.0, 16)])
        mixed = far[:13].copy()
        mixed[1::3, 1] = f.eval_at(mixed[1::3, 0]) + 0.4 * default_collar(f) * side[1:13:3]
        return far, mixed

    OUTPUTS = {
        "sample_flow": lambda f, params, far, mixed: np.array(
            [s.velocity + (s.pressure,) for s in sample_flow(f, params, far)]),
        "velocity_field": lambda f, params, far, mixed: velocity_field(f, params, mixed,
                                                                       near=True),
        "velocity_gradient_field": lambda f, params, far, mixed: velocity_gradient_field(
            f, params, mixed, near=True),
        "eval_Z": lambda f, params, far, mixed: np.array(
            [eval_Z(index, f, np.cos(f.grid.nodes), mixed, near=True) for index in range(7)]),
    }

    def test_budget_splits_points(self, setup, points, monkeypatch):
        # each block takes one rule's points, in input order: runs of at
        # most three points, for the near points one side's, those above
        # the interface first
        grid, f, params = setup
        far, mixed = points
        monkeypatch.setattr(fields, "_EVAL_BLOCK", self.BUDGET)
        stack = np.cos(grid.nodes)[None]
        rows = [r.tolist() for r, _, _ in fields._point_blocks(f, far, stack)]
        assert rows == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14], [15]]
        rows = [r.tolist() for r, _, _ in fields._point_blocks(f, mixed, stack, near=True)]
        assert rows == [[0, 2, 3], [5, 6, 8], [9, 11, 12], [1, 7], [4, 10]]

    @pytest.mark.parametrize("name", OUTPUTS)
    def test_blocks_match_one_block(self, name, setup, points, monkeypatch):
        grid, f, params = setup
        output = self.OUTPUTS[name]
        want = output(f, params, *points)
        monkeypatch.setattr(fields, "_EVAL_BLOCK", self.BUDGET)
        got = output(f, params, *points)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, output(f, params, *points))

    def test_jump_checks_match_one_block(self, setup, monkeypatch):
        # every approach point is near: the Cauchy sums of a point do not
        # depend on the block it falls in
        grid, f, params = setup

        def report():
            rep = interface_jump_checks(f, params, probe_count=4,
                                        eps_factors=(1e-2, 1e-3, 1e-4))
            return [*rep.z_residuals.values(), rep.pressure_residuals,
                    rep.stress_tangential_residual, rep.stress_normal_residual]

        want = report()
        monkeypatch.setattr(fields, "_EVAL_BLOCK", self.BUDGET)
        got = report()
        for a, b, c in zip(got, want, report()):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_empty_point_sets(self, setup, monkeypatch):
        grid, f, params = setup
        monkeypatch.setattr(fields, "_EVAL_BLOCK", self.BUDGET)
        none = np.empty((0, 2))
        assert velocity_field(f, params, none, near=True).shape == (0, 2)
        assert pressure_field(f, params, none).shape == (0,)
        assert velocity_gradient_field(f, params, none).shape == (0, 2, 2)
        assert eval_Z(3, f, np.cos(grid.nodes), none, near=True).shape == (0,)
        assert sample_flow(f, params, none) == []

    def test_collar_point_in_last_block_refused_before_any_table(self, setup, points,
                                                                 monkeypatch):
        grid, f, params = setup
        from stokes2p import operators

        far, _ = points
        pts = np.vstack([far, [[0.0, f.values[0] + 0.5 * default_collar(f)]]])
        monkeypatch.setattr(fields, "_EVAL_BLOCK", self.BUDGET)
        rows = [r.tolist() for r, _, _ in fields._point_blocks(f, pts, np.cos(grid.nodes)[None],
                                                                near=True)]
        assert len(rows) == 7 and rows[-1] == [16]
        built = []
        init = operators._LayerTables.__init__
        monkeypatch.setattr(operators._LayerTables, "__init__",
                            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        for evaluate in (lambda: sample_flow(f, params, pts),
                         lambda: velocity_gradient_field(f, params, pts),
                         lambda: eval_Z(0, f, np.cos(grid.nodes), pts)):
            with pytest.raises(ProximityError):
                evaluate()
        assert built == []


def closest_samples(f, pts):
    """The box-pruned search at the points over the samples of f it scans."""
    return fields._closest_samples(fields._search_samples(f), pts)


def scan_samples(f):
    """The samples of f that the distance search scans."""
    m = max(8 * f.grid.n_points, 1024)
    return np.linspace(0.0, 2.0 * np.pi, m, endpoint=False), f.uniform_samples(m)


def with_nyquist(grid, seed):
    """A random profile whose spectrum reaches the Nyquist mode."""
    return InterfaceProfile(grid, band_limited(grid, seed, modes=grid.n_points // 2 - 1)
                            + 0.3 * np.cos(grid.n_points // 2 * grid.nodes))


class TestDistanceSearch:
    """The box-pruned search against the dense scan on the same samples,
    and the uniform sampler behind both."""

    @staticmethod
    def assert_matches_dense_scan(f, pts):
        dist, nearest = closest_samples(f, pts)
        want_dist, want_nearest = dense_closest_samples(*scan_samples(f), pts)
        assert np.array_equal(dist, want_dist) and np.array_equal(nearest, want_nearest)

    @pytest.mark.parametrize("n", [8, 64, 130, 256])
    def test_matches_dense_scan_across_the_seam(self, n):
        grid = PeriodicGrid(n)
        f = with_nyquist(grid, n)
        rng = np.random.default_rng(n)
        x = np.concatenate([rng.uniform(-3.0, 0.0, 300), rng.uniform(0.0, 2.0 * np.pi, 300),
                            rng.uniform(2.0 * np.pi, 2.0 * np.pi + 3.0, 300)])
        y = rng.uniform(np.min(f.values) - 2.0, np.max(f.values) + 2.0, len(x))
        self.assert_matches_dense_scan(f, np.column_stack([x, y]))

    def test_matches_dense_scan_inside_the_band(self):
        # heights between min f and max f: the range bounds prune nothing
        grid = PeriodicGrid(128)
        f = InterfaceProfile(grid, 0.4 * np.cos(grid.nodes) + 0.1 * np.sin(7 * grid.nodes))
        rng = np.random.default_rng(1)
        s = rng.uniform(-1.0, 7.0, 1000)
        pts = np.column_stack([s + rng.uniform(-0.1, 0.1, len(s)),
                               f.eval_at(s) + rng.uniform(-1e-3, 1e-3, len(s))])
        self.assert_matches_dense_scan(f, pts)

    def test_matches_dense_scan_on_a_steep_profile(self):
        grid = PeriodicGrid(256)
        f = InterfaceProfile(grid, 3.0 * np.sin(5 * grid.nodes) + 0.5 * np.cos(40 * grid.nodes))
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(-1.0, 7.0, 1000), rng.uniform(-4.0, 4.0, 1000)])
        self.assert_matches_dense_scan(f, pts)

    def test_exact_ties_go_to_the_lower_index(self):
        # a profile below half an ulp of the heights, so high above it that
        # (y - f)^2 swamps the horizontal offsets below its rounding: at
        # y = 1e9 all samples tie, at y = 1e8 those within |dx| < 1 of x,
        # across the seam included
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 1e-9 * np.cos(grid.nodes))
        x = np.array([0.0, 0.1, 3.0, 6.2, -0.5, 7.0])
        pts = np.vstack([np.column_stack([x, np.full(len(x), 1e9)]),
                         np.column_stack([x, np.full(len(x), 1e8)])])
        dist, nearest = dense_closest_samples(*scan_samples(f), pts)
        assert np.all(nearest[:len(x)] == 0.0) and nearest[len(x) + 1] == 0.0
        self.assert_matches_dense_scan(f, pts)

    def test_empty_and_single_point(self):
        grid = PeriodicGrid(64)
        f = with_nyquist(grid, 5)
        dist, nearest = closest_samples(f, np.empty((0, 2)))
        assert dist.shape == nearest.shape == (0,)
        assert min_interface_distance(f, np.empty((0, 2))).shape == (0,)
        self.assert_matches_dense_scan(f, np.array([[1.0, 0.3]]))

    @pytest.mark.parametrize("n, m", [(64, 64), (64, 512), (200, 200), (200, 1600), (200, 256)])
    def test_uniform_samples_match_eval_at(self, n, m):
        # small high modes, whose phases eval_at keeps to 1e-14, and a
        # Nyquist mode, which both split between +N/2 and -N/2
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, band_limited(grid, n, modes=16)
                             + 0.01 * np.cos(grid.n_points // 2 * grid.nodes))
        got = f.uniform_samples(m)
        assert np.max(np.abs(got - f.eval_at(2.0 * np.pi * np.arange(m) / m))) <= 1e-14

    @pytest.mark.parametrize("n, m", [(200, 1600), (200, 256)])
    def test_uniform_samples_of_a_full_spectrum(self, n, m):
        # against the interpolant summed with phases k j mod m reduced
        # exactly; eval_at's phases k s lose digits as k grows
        # (3e-14 here)
        grid = PeriodicGrid(n)
        f = with_nyquist(grid, n)
        c = np.fft.rfft(f.values) / n
        c[1:-1] *= 2.0
        k = np.arange(n // 2 + 1)
        phase = np.exp(2j * np.pi * (np.outer(np.arange(m), k) % m) / m)
        assert np.max(np.abs(f.uniform_samples(m) - (phase @ c).real)) <= 1e-14

    def test_single_point_search_memory(self):
        # a full spectrum at N = 1024: a dense (8N x N) phase matrix would
        # take 128 MB
        grid = PeriodicGrid(1024)
        f = InterfaceProfile(grid, np.random.default_rng(0).normal(size=1024))
        f.coeffs
        tracemalloc.start()
        try:
            min_interface_distance(f, np.array([[1.0, 5.0]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_side_of_memory(self):
        # a full k^(-2.1) spectrum at N = 1024: one (points x modes) phase
        # matrix over the 1920 points would take 31 MB
        grid = PeriodicGrid(1024)
        rng = np.random.default_rng(3)
        k = np.arange(513)
        c = (rng.normal(size=513) + 1j * rng.normal(size=513)) / (1.0 + k) ** 2.1
        f = InterfaceProfile(grid, np.fft.irfft(c, 1024) * 1024)
        x1, x2 = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 64), np.linspace(-1.0, 1.0, 30))
        pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
        f.coeffs
        tracemalloc.start()
        try:
            fields.side_of(f, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def z_kernel_scalar(index, r1, r2):
    """Layer kernel Z_index at one point, coded on Python floats."""
    s1, c1 = math.sin(r1 / 2.0), math.cos(r1 / 2.0)
    s2, c2 = math.sinh(r2 / 2.0), math.cosh(r2 / 2.0)
    d = s1 * s1 + s2 * s2
    z1, z2 = s1 * c1 / d, s2 * c2 / d
    return (math.log(d), z1, z2, r2 / 2.0 * ((s1 * c2) ** 2 - (s2 * c1) ** 2) / (d * d),
            r2 * z1 * z2 / 2.0, r2 * z1, r2 * z2)[index]


def quad_near(index, f_fn, dens_fn, point, foot, dist):
    """Adaptive reference for a near layer integral of the closed-form
    profile f_fn and density dens_fn, with breakpoints graded geometrically
    away from the known foot of the normal."""
    def integrand(s):
        return z_kernel_scalar(index, point[0] - s, point[1] - f_fn(s)) * dens_fn(s) / (2.0 * np.pi)

    brk, d = [foot], dist
    while d < np.pi:
        brk += [foot - d, foot + d]
        d *= 4.0
    val, _ = quad(integrand, foot - np.pi, foot + np.pi, points=sorted(brk),
                  limit=2000, epsabs=1e-12, epsrel=1e-12)
    return val


def approach_points(f, foot, dist):
    """The two points at distance dist along the normal from (foot, f(foot))."""
    slope = float(InterfaceProfile(f.grid, f.deriv_values).eval_at(foot))
    nu = np.array([-slope, 1.0]) / np.hypot(1.0, slope)
    base = np.array([foot, float(f.eval_at(foot))])
    return np.array([base + dist * nu, base - dist * nu])


class TestNearRule:
    GRID = PeriodicGrid(64)
    SCAN_STEP = 2.0 * np.pi / max(8 * 64, 1024)   # spacing of the dense distance scan

    @staticmethod
    def profile(grid, fn):
        return InterfaceProfile(grid, fn(grid.nodes))

    @pytest.mark.parametrize("foot", [40 * SCAN_STEP, 163.5 * SCAN_STEP],
                             ids=["on-sample", "between-samples"])
    def test_matches_adaptive_quadrature(self, foot):
        def f_fn(s):
            return 0.1 * np.cos(s) + 0.05 * np.sin(2 * s)

        def dens_fn(s):
            return np.cos(s) + 0.3 * np.sin(2 * s)

        grid = self.GRID
        f = self.profile(grid, f_fn)
        worst = 0.0
        for factor in 10.0 ** -np.arange(1, 7):
            dist = factor * grid.spacing
            pts = approach_points(f, foot, dist)
            for index in range(7):
                got = eval_Z(index, f, dens_fn(grid.nodes), pts, near=True)
                for p, g in zip(pts, got):
                    worst = max(worst, abs(g - quad_near(index, f_fn, dens_fn, p, foot, dist)))
        assert worst <= 1e-9

    def test_one_sample_of_f_and_of_each_density(self, monkeypatch):
        # f's samples on the 256 nodes are the ones it keeps, and the
        # densities' samples there the call's one sampling of its stack;
        # the near branch takes no eval_at, which only the routing calls,
        # once over the collar points, for their sides
        grid = self.GRID
        f = self.profile(grid, lambda s: 0.1 * np.cos(s) + 0.05 * np.sin(2 * s))
        pts = np.vstack([approach_points(f, 0.4, 1e-3 * grid.spacing)[:1],
                         approach_points(f, 2.0, 1e-1 * grid.spacing)])
        sizes, sampled, in_rule = [], [], []
        eval_at = InterfaceProfile.eval_at
        monkeypatch.setattr(InterfaceProfile, "eval_at",
                            lambda self, s: sizes.append(np.size(s)) or eval_at(self, s))
        samples = fields._samples
        monkeypatch.setattr(fields, "_samples", lambda stack, m=None:
                            sampled.append(np.shape(stack)) or samples(stack, m))
        for name in ("__init__", "rule"):
            method = getattr(fields._Cauchy, name)

            def counted(*args, method=method):
                before = len(sizes)
                out = method(*args)
                in_rule.append(len(sizes) - before)
                return out

            monkeypatch.setattr(fields._Cauchy, name, counted)
        a, b = np.cos(grid.nodes), np.sin(3 * grid.nodes)
        fields._blocked(f, pts, lambda B: [z for index in range(7) for z in B(index, a, b, a)],
                        near=True)
        assert sizes == [len(pts)] and sampled == [(2, grid.n_points)]
        assert len(in_rule) == 3 and not any(in_rule)

    def test_points_on_the_interface(self):
        # a point on one of the 256 boundary nodes, where the barycentric
        # quotient would divide by zero, and one between nodes: finite, with
        # no warning, and the limit from the side side_of gives them (below)
        grid = self.GRID
        f = self.profile(grid, lambda s: 0.1 * np.cos(s) + 0.05 * np.sin(2 * s))
        dens = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
        s = 2.0 * np.pi * np.arange(256) / 256
        fs = f.uniform_samples(256)
        j = next(j for j in range(37, 256) if not fs[j] > f.eval_at(s[j]))
        pts = np.array([[s[j], fs[j]], [1.2345, float(f.eval_at(1.2345))]])
        assert list(fields.side_of(f, pts)) == ["minus", "minus"]
        below = pts - [0.0, 1e-9]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index in range(7):
                got = eval_Z(index, f, dens, pts, near=True)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - eval_Z(index, f, dens, below, near=True))) <= 1e-8

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("amplitude", [0.3, 0.8])
    def test_matches_the_trapezoid_tables_off_the_collar(self, n, amplitude):
        # an independent check of the rule, whose approach limits the jump
        # checks build from its own boundary values: at points 1.05 to 3
        # collars from the interface on both sides, routed to it by a wider
        # collar, against the trapezoid tables there
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, amplitude * (np.cos(grid.nodes) + 0.2 * np.sin(2 * grid.nodes)
                                                + 0.05 * np.cos(5 * grid.nodes)))
        dens = 1.0 + 0.5 * np.cos(grid.nodes) + 0.2 * np.sin(3 * grid.nodes)
        collar = default_collar(f)
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 2.0 * np.pi, 200)
        side = np.where(np.arange(200) % 2, 1.0, -1.0)
        pts = np.column_stack([x, f.eval_at(x) + side * rng.uniform(1.05, 3.0, 200) * collar])
        dist = min_interface_distance(f, pts)
        pts = pts[(dist >= 1.05 * collar) & (dist <= 3.0 * collar)][:24]
        sides = fields.side_of(f, pts)
        assert len(pts) == 24 and 8 <= np.count_nonzero(sides == "plus") <= 16
        for index in range(7):
            tables = eval_Z(index, f, dens, pts)
            got = eval_Z(index, f, dens, pts, collar=3.5 * collar, near=True)
            assert np.max(np.abs(got - tables)) <= 1e-13 * np.max(np.abs(tables))

    def test_high_modes_resolved(self):
        # wide intervals are split, so grid modes far from the foot are
        # integrated as accurately as the near peak
        def f_fn(s):
            return 0.3 * np.cos(s)

        def dens_fn(s):
            return np.cos(24 * s)

        grid = self.GRID
        f = self.profile(grid, f_fn)
        foot, dist = 1.3, 1e-3 * grid.spacing
        pts = approach_points(f, foot, dist)
        for index in (0, 1, 3):
            got = eval_Z(index, f, dens_fn(grid.nodes), pts, near=True)
            want = [quad_near(index, f_fn, dens_fn, p, foot, dist) for p in pts]
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_centre_of_curvature_of_a_trough(self):
        # near the centre of curvature of a trough, off its axis by 1e-6,
        # just below and just above it: the sampled foot is the trough
        def f_fn(s):
            return 0.3 * np.cos(8 * s)

        grid = self.GRID
        f = self.profile(grid, f_fn)
        trough, radius = np.pi / 8, 1.0 / (0.3 * 64)
        p = np.array([[trough + 1e-6, f_fn(trough) + (1.0 - 1e-4) * radius],
                      [trough + 1e-6, f_fn(trough) + (1.0 + 1e-3) * radius]])
        dist, sample = closest_samples(f, p)
        assert np.allclose(sample, trough, rtol=0.0, atol=1e-12)
        for index in (1, 2):
            got = eval_Z(index, f, np.cos(grid.nodes), p, near=True)
            want = [quad_near(index, f_fn, np.cos, q, trough, d) for q, d in zip(p, dist)]
            assert np.max(np.abs(got - want)) <= 1e-9


class TestTraces:
    @pytest.mark.parametrize("variant", ["direct", "parts-g", "", "DIRECT-G"])
    def test_unknown_variant_rejected(self, variant):
        grid = PeriodicGrid(32)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
        with pytest.raises(ValueError, match="unknown variant"):
            trace_velocity(f, params, variant)

    def test_one_sided_limits_converge(self):
        # approach along the normal: Z_n tends to trace +/- jump at first order
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        dens = np.cos(grid.nodes)
        jumps = z_jump_coefficients(f)
        fp = f.deriv_values
        i = 5
        nu = np.array([-fp[i], 1.0]) / np.sqrt(1 + fp[i] ** 2)
        base = np.array([grid.nodes[i], f.values[i]])
        for idx in (1, 2):
            tr = DiagonalOps(f).composite(idx, dens)[i]
            res = []
            for eps in (1e-2, 1e-3):
                got = eval_Z(idx, f, dens, (base + eps * nu)[None, :], near=True)[0]
                res.append(abs(got - (tr + jumps[idx][i] * dens[i])))
            assert res[1] < 0.3 * res[0]          # at least first order
            assert res[1] < 1e-3

    def test_moment_layers_continuous(self):
        # the two moment-weighted layers have no jump: two-sided limits agree
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        dens = np.cos(grid.nodes)
        fp = f.deriv_values
        i = 9
        nu = np.array([-fp[i], 1.0]) / np.sqrt(1 + fp[i] ** 2)
        base = np.array([grid.nodes[i], f.values[i]])
        for idx in (5, 6):
            diffs = []
            for eps in (1e-3, 1e-4):
                up = eval_Z(idx, f, dens, (base + eps * nu)[None, :], near=True)[0]
                dn = eval_Z(idx, f, dens, (base - eps * nu)[None, :], near=True)[0]
                diffs.append(abs(up - dn))
            assert diffs[1] < 0.3 * diffs[0]   # two sides close at O(eps)
            # the stated agreement tolerance needs eps small enough for it
            eps = 3e-7
            up = eval_Z(idx, f, dens, (base + eps * nu)[None, :], near=True)[0]
            dn = eval_Z(idx, f, dens, (base - eps * nu)[None, :], near=True)[0]
            assert abs(up - dn) < 1e-6
            tr = DiagonalOps(f).composite(idx, dens)[i]
            assert abs(up - tr) < 1e-5

    @pytest.mark.parametrize("n, a, b, mu, sigma, thetas", [
        pytest.param(128, 0.1, 0.0, 1.0, 1.0, (0.0, 1.0), id="cos-128"),
        *(pytest.param(n, a, 0.2, 1.3, 0.7, (theta,), id=f"{n}-{a}-{theta}")
          for n in (128, 256) for a in (0.3, 0.8) for theta in (0.0, 1.5, -1.5))])
    def test_variants_agree(self, n, a, b, mu, sigma, thetas):
        # f = a (cos x + b sin 2x): the two codings of the trace agree to
        # within 1e-13 of the largest velocity (2.9e-14 at worst, at N = 256,
        # a = 0.8 and theta = -1.5)
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, a * (np.cos(grid.nodes) + b * np.sin(2.0 * grid.nodes)))
        for theta in thetas:
            params = PhysParams.from_theta(mu, sigma, theta)
            direct = trace_velocity(f, params, "direct-g")
            parts = trace_velocity(f, params, "parts-z")
            assert np.max(np.abs(direct - parts)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("variant, kernels",
                             [("direct-g", [0, 5]), ("parts-z", [3])])
    def test_each_kernel_built_once(self, variant, kernels, monkeypatch):
        # the direct trace reads composites 0, 5 and 6, the by-parts trace
        # composites 1..4; (3, 4) and (5, 6) share a table, and 1 and 2 read
        # D.  The sweep builds each table once per row block: one block at
        # N = 32, and three where a block holds at most 11 rows
        from stokes2p import operators

        built = []
        build = operators._LayerTables._build
        monkeypatch.setattr(operators._LayerTables, "_build",
                            lambda self, lead: built.append((self, lead)) or build(self, lead))
        grid = PeriodicGrid(32)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes) + 0.05 * np.sin(2 * grid.nodes))
        for budget, blocks in ((operators._EVAL_BLOCK, 1), (11 * 32, 3)):
            monkeypatch.setattr(operators, "_EVAL_BLOCK", budget)
            built.clear()
            trace_velocity(f, PhysParams.from_theta(1.0, 1.0, 1.0), variant)
            layers = list(dict.fromkeys(layer for layer, _ in built))
            assert len(layers) == blocks
            for layer in layers:
                assert sorted(lead for t, lead in built if t is layer) == kernels

    def test_one_sided_velocity_limits_match_the_trace(self):
        # the velocity is continuous across the interface, also for a profile
        # off the mean level: the log part of the trace carries the mean
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes) + 0.05 * np.sin(2 * grid.nodes) + 0.3)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        trace = trace_velocity(f, params, "direct-g")
        fp = f.deriv_values
        for i in (5, 21):
            nu = np.array([-fp[i], 1.0]) / np.sqrt(1 + fp[i] ** 2)
            base = np.array([grid.nodes[i], f.values[i]])
            sides = velocity_field(f, params, np.array([base + 1e-6 * nu, base - 1e-6 * nu]),
                                   near=True)
            assert np.max(np.abs(sides - trace[:, i])) < 1e-6

    def test_variants_zero_on_flat(self):
        grid = PeriodicGrid(64)
        zero = InterfaceProfile.zero(grid)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        assert np.max(np.abs(trace_velocity(zero, params, "direct-g"))) < 1e-13
        assert np.max(np.abs(trace_velocity(zero, params, "parts-z"))) < 1e-13

    def test_parts_variant_needs_mean_free(self):
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes) + 0.3)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            trace_velocity(f, params, "parts-z")

    def test_antiderivative_convention(self):
        grid = PeriodicGrid(64)
        v = np.cos(grid.nodes)
        S = antiderivative(v)
        assert np.max(np.abs(np.diff(S) / grid.spacing
                             - np.cos(grid.nodes[:-1] + grid.spacing / 2)
                             / np.sinc(grid.spacing / (2 * np.pi)))) < 1e-2
        with pytest.raises(ValueError):
            antiderivative(np.ones(64))


class TestBulkFields:
    def test_flat_profile_zero_flow(self):
        grid = PeriodicGrid(64)
        zero = InterfaceProfile.zero(grid)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        pts = np.array([[0.5, 1.0], [2.0, -1.5]])
        assert np.max(np.abs(velocity_field(zero, params, pts))) < 1e-14
        assert np.max(np.abs(pressure_field(zero, params, pts))) < 1e-14

    def test_periodicity(self, setup):
        grid, f, params = setup
        p = np.array([[0.8, 1.4]])
        v1 = velocity_field(f, params, p)
        v2 = velocity_field(f, params, p + [2 * np.pi, 0.0])
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_far_field_limits(self, setup):
        grid, f, params = setup
        res = far_field_residuals(f, params)
        for side in res.values():
            assert side["v1_residual"] < 1e-6
            assert side["v2_residual"] < 1e-6
            assert side["q_residual"] < 1e-6

    def test_far_field_limits_beyond_sinh_overflow(self, setup):
        grid, f, params = setup
        res = far_field_residuals(f, params, height=800.0)
        for side in res.values():
            assert max(side.values()) <= 1e-12

    def test_moment_layer_far_limits(self, setup):
        # the far-field behavior of the individual layers
        grid, f, params = setup
        phi = np.cos(grid.nodes) + 0.4
        mean_phi = float(np.mean(phi))
        mean_fphi = float(np.mean(f.values * phi))
        for sign in (+1.0, -1.0):
            pts = np.array([[1.0, sign * 20.0]])
            z5 = eval_Z(5, f, phi, pts)[0]
            z6 = eval_Z(6, f, phi, pts)[0]
            z0 = eval_Z(0, f, phi, pts)[0]
            # limits per side: Z - sign*x2*<phi>, with x2 = sign*20
            assert abs(z5) < 1e-6
            assert abs(z6 - 20.0 * mean_phi + sign * mean_fphi) < 1e-6
            assert abs(z0 - 20.0 * mean_phi
                       + sign * mean_fphi + mean_phi * np.log(4.0)) < 1e-6

    def test_incompressibility_and_pressure_harmonicity(self, setup):
        grid, f, params = setup
        h = 1e-3
        c1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
        off1 = np.array([-2 * h, -h, h, 2 * h])
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        off2 = np.array([-2 * h, -h, 0.0, h, 2 * h])
        rng = np.random.default_rng(4)
        pts = []
        while len(pts) < 5:
            p = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(-2.0, 2.0)])
            if min_interface_distance(f, p[None, :])[0] >= 0.6:
                pts.append(p)
        for p in pts:
            vx = [velocity_field(f, params, p + [o, 0.0]) for o in off1]
            vy = [velocity_field(f, params, p + [0.0, o]) for o in off1]
            div = sum(w * v[0] for w, v in zip(c1, vx)) \
                + sum(w * v[1] for w, v in zip(c1, vy))
            assert abs(div) < 1e-6
            qq = [pressure_field(f, params, p + [o, 0.0]) for o in off2]
            qy = [pressure_field(f, params, p + [0.0, o]) for o in off2]
            lap_q = sum(w * q for w, q in zip(c2, qq)) + sum(w * q for w, q in zip(c2, qy))
            assert abs(lap_q) < 1e-5

    def test_gradient_field_matches_finite_differences(self, setup):
        grid, f, params = setup
        p = np.array([1.3, 1.6])
        h = 1e-5
        grad = velocity_gradient_field(f, params, p)
        for j, e in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
            fd = (velocity_field(f, params, p + e) - velocity_field(f, params, p - e)) / (2 * h)
            assert np.max(np.abs(grad[:, j] - fd)) < 1e-6

    def test_sample_flow_scans_distance_once(self, setup, monkeypatch):
        grid, f, params = setup
        pts = STRIP_POINTS
        calls = []
        original = fields._closest_samples

        def spy(fs, p):
            calls.append(np.array(p))
            return original(fs, p)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        samples = sample_flow(f, params, pts)
        assert len(calls) == 1 and np.array_equal(calls[0], pts)
        assert np.array_equal([s.velocity for s in samples], velocity_field(f, params, pts))
        assert np.array_equal([s.pressure for s in samples], pressure_field(f, params, pts))
        # points clear of the strip are outside the collar without a search
        far = np.array([[0.5, 1.5], [0.5, -1.5], [2.0, 2.5]])
        calls.clear()
        samples = sample_flow(f, params, far)
        assert len(calls) == 0
        assert np.array_equal([s.velocity for s in samples], velocity_field(f, params, far))
        assert np.array_equal([s.pressure for s in samples], pressure_field(f, params, far))

    def test_far_field_residuals_build_forcing_once(self, setup, monkeypatch):
        grid, f, params = setup
        calls = []
        original = evolution.forcing_G

        def spy(f_, params_):
            calls.append(f_)
            return original(f_, params_)

        monkeypatch.setattr(fields, "forcing_G", spy)
        monkeypatch.setattr(evolution, "forcing_G", spy)
        far_field_residuals(f, params)
        assert len(calls) == 1

    def test_sample_flow_sides(self, setup):
        grid, f, params = setup
        samples = sample_flow(f, params, np.array([[0.5, 1.5], [0.5, -1.5]]))
        assert samples[0].side == "plus"
        assert samples[1].side == "minus"

    @pytest.mark.parametrize("near", [False, True])
    def test_one_set_of_search_samples_per_call(self, setup, monkeypatch, near):
        # the strip test and the search read the same max(8N, 1024) samples,
        # which a fresh profile takes once and keeps
        grid, f, params = setup
        f = InterfaceProfile(grid, f.values)
        pts = np.vstack([[[0.3, 2.0], [4.0, -1.1]], STRIP_POINTS])
        if near:
            pts = np.vstack([pts, [[0.0, f.values[0] + 0.5 * default_collar(f)]]])
        sizes, scans = [], []
        sample, search = core._samples, fields._closest_samples
        monkeypatch.setattr(core, "_samples",
                            lambda v, m=None: sizes.append(m) or sample(v, m))
        monkeypatch.setattr(fields, "_closest_samples",
                            lambda fs, p: scans.append(len(p)) or search(fs, p))
        velocity_field(f, params, pts, near=near)
        assert sizes.count(max(8 * grid.n_points, 1024)) == 1
        assert scans == [len(pts) - 2]
        # a second call on the profile reads the samples it kept
        pressure_field(f, params, pts, near=near)
        assert sizes.count(max(8 * grid.n_points, 1024)) == 1

    @pytest.mark.parametrize("options", [{}, {"near": True}, {"collar": 0.0}])
    @pytest.mark.parametrize("bad", [[np.nan, 2.0], [0.1, np.inf], [0.1, -np.inf],
                                     [np.inf, 1.0], [np.nan, np.nan]])
    def test_points_not_finite_rejected(self, options, bad):
        # not a NaN flow, and not a side: ValueError before any evaluation,
        # whether or not the point would be searched
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
        pts = np.array([[0.5, 2.0], bad])
        collar = {k: v for k, v in options.items() if k == "collar"}
        calls = [lambda: eval_Z(1, f, np.cos(grid.nodes), pts, **options),
                 lambda: velocity_field(f, params, pts, **options),
                 lambda: velocity_field(f, params, bad, **options),
                 lambda: pressure_field(f, params, pts, **options),
                 lambda: velocity_gradient_field(f, params, pts, **options),
                 lambda: sample_flow(f, params, pts, **collar),
                 lambda: fields.side_of(f, pts)]
        for call in calls:
            with pytest.raises(ValueError, match="finite") as caught:
                call()
            assert caught.type is ValueError     # not ProximityError

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.1, np.inf], [-np.inf, 0.0]])
    def test_distance_of_points_not_finite_rejected(self, bad):
        # not an infinite distance, which reads as far from the interface
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        for pts in (bad, [[0.5, 2.0], bad]):
            with pytest.raises(ValueError, match="finite"):
                fields.min_interface_distance(f, pts)
        assert np.isfinite(fields.min_interface_distance(f, [0.5, 2.0])).all()

    @pytest.mark.parametrize("height", [-20.0, 0.0, np.nan, np.inf, -np.inf])
    def test_far_field_height_finite_and_positive(self, setup, height):
        # at -20 the "plus" and "minus" probes would swap sides
        grid, f, params = setup
        with pytest.raises(ValueError, match="height"):
            far_field_residuals(f, params, height=height)

    @pytest.mark.parametrize("options", [
        {"probe_count": 0}, {"probe_count": -2}, {"eps_factors": ()},
        {"eps_factors": (1e-2, 0.0)}, {"eps_factors": (1e-2, -1e-3)},
        {"eps_factors": (np.nan,)}, {"eps_factors": (1e-2, np.inf)}])
    def test_jump_checks_reject_bad_probes(self, setup, options, capfd):
        # a ValueError, not ZeroDivisionError, IndexError or LinAlgError
        # with LAPACK's complaint on stderr
        grid, f, params = setup
        with pytest.raises(ValueError, match="probe_count") as caught:
            interface_jump_checks(f, params, **options)
        assert caught.type is ValueError
        assert capfd.readouterr().err == ""


# the builds of the jump checks: the (3, 4) table of the traces on the
# interface, then the log table of the trace sweep of each of the three
# densities of the approach points, on 256 nodes
JUMP_CHECK_BUILDS = [[3]] + [[0]] * 3 * _row_blocks(256)


@pytest.mark.slow
class TestJumpReport:
    def test_builds_each_kernel_once_per_rule(self, kernel_builds):
        # the traces on the interface; the approach points build no table
        # off it, only the log table of each density's trace sweep on 256
        # nodes, once a row block
        grid = PeriodicGrid(32)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        interface_jump_checks(f, PhysParams.from_theta(1.0, 1.0, 0.5), probe_count=2,
                              eps_factors=(1e-2, 1e-3))
        assert builds_per_table(kernel_builds) == JUMP_CHECK_BUILDS

    def test_stress_check_shares_the_jump_evaluator(self, kernel_builds, monkeypatch):
        # one search for the collar check, one (3, 4) table for the traces
        grid = PeriodicGrid(32)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        scans = []
        original = fields._closest_samples

        def spy(f_, p):
            scans.append(len(p))
            return original(f_, p)

        monkeypatch.setattr(fields, "_closest_samples", spy)
        interface_jump_checks(f, PhysParams.from_theta(1.0, 1.0, 0.5), probe_count=2,
                              eps_factors=(1e-2, 1e-3))
        assert builds_per_table(kernel_builds) == JUMP_CHECK_BUILDS
        assert len(scans) == 1

    def test_report_converges(self):
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
        params = PhysParams.from_theta(1.0, 1.0, 0.5)
        rep = interface_jump_checks(f, params, probe_count=2,
                                    eps_factors=(1e-2, 1e-3))
        for idx, res in rep.z_residuals.items():
            assert res[-1] < res[0]
        assert all(o > 0.8 for o in rep.z_orders.values())
        assert rep.pressure_residuals[-1] < 1e-2
        assert rep.stress_tangential_residual < 1e-2
        assert rep.stress_normal_residual < 1e-2
